"""Analytical response-time and profit evaluation (eq. (1)-(2) of the paper).

This module is the library's single source of truth for "how good is an
allocation".  Every solver — the paper's heuristic, the baselines, the
Monte Carlo reference — is scored by :func:`evaluate_profit` on the
allocation it returns; no solver grades itself.

Model recap (section III):

* each (client i, server j) pair with traffic portion ``alpha_ij`` runs two
  tandem M/M/1 queues (processing then communication) whose service rates
  are ``phi^p_ij * C^p_j / t^p_i`` and ``phi^b_ij * C^b_j / t^b_i``;
* the client's mean response time is the alpha-weighted sum of the two
  sojourn times over the servers it touches (eq. (1));
* revenue is ``lambda^a_i * U_i(R_i)`` — the *agreed* rate prices the SLA
  while the *predicted* rate drives the queues;
* cost is ``P0_j + P1_j * (processing utilization)`` for each ON server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.model.allocation import Allocation, ServerAllocation
from repro.model.client import Client
from repro.model.datacenter import CloudSystem
from repro.audit.invariants import Violation, find_violations


def mm1_response_time(service_rate: float, arrival_rate: float) -> float:
    """Mean sojourn time of an M/M/1 queue; ``inf`` when unstable.

    ``W = 1 / (mu - lambda)`` for ``mu > lambda >= 0``.  Rather than raising
    on an unstable configuration, this returns ``inf`` so that search
    algorithms can score the state as arbitrarily bad and move on.
    """
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= arrival_rate:
        return math.inf
    return 1.0 / (service_rate - arrival_rate)


def response_time_of_entries(
    system: CloudSystem,
    client: Client,
    entries: Dict[int, ServerAllocation],
    arrival_rate: float,
) -> float:
    """Eq. (1) on a pre-fetched ``server_id -> entry`` mapping.

    Shared kernel of :func:`client_response_time`, :func:`evaluate_profit`
    and the incremental :class:`~repro.core.delta.DeltaScorer`, so all
    three agree bit-for-bit.  The two M/M/1 sojourn times are inlined
    (rather than calling :func:`mm1_response_time` per queue) because this
    sits in the innermost loop of every accept-if-better gate.
    """
    if not entries:
        return math.inf
    total = 0.0
    total_alpha = 0.0
    for server_id, entry in entries.items():
        alpha = entry.alpha
        if alpha <= 0.0:
            continue
        server = system.server(server_id)
        branch_arrivals = alpha * arrival_rate
        mu_p = entry.phi_p * server.cap_processing / client.t_proc
        mu_b = entry.phi_b * server.cap_bandwidth / client.t_comm
        if mu_p <= branch_arrivals or mu_b <= branch_arrivals:
            return math.inf
        sojourn = 1.0 / (mu_p - branch_arrivals) + 1.0 / (mu_b - branch_arrivals)
        total += alpha * sojourn
        total_alpha += alpha
    if total_alpha <= 0.0:
        return math.inf
    return total


def client_response_time(
    system: CloudSystem,
    allocation: Allocation,
    client_id: int,
    rate: Optional[float] = None,
) -> float:
    """Mean response time of a client under the allocation (eq. (1)).

    ``rate`` overrides the arrival rate driving the queues; by default the
    client's *predicted* rate is used, matching how the paper provisions.
    Returns ``inf`` when the client serves no traffic or any touched queue
    is unstable; returns 0 for a client with all-zero traffic portions.
    """
    client = system.client(client_id)
    arrival_rate = client.rate_predicted if rate is None else rate
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    return response_time_of_entries(
        system, client, allocation.entries_of_client(client_id), arrival_rate
    )


@dataclass(frozen=True)
class ClientOutcome:
    """Evaluation of one client under an allocation."""

    client_id: int
    response_time: float
    utility_value: float
    revenue: float
    served: bool


@dataclass(frozen=True)
class ServerOutcome:
    """Evaluation of one server under an allocation."""

    server_id: int
    is_on: bool
    utilization_processing: float
    utilization_bandwidth: float
    storage_used: float
    cost: float


@dataclass
class ProfitBreakdown:
    """Full scoring of an allocation: totals, per-entity detail, violations."""

    total_profit: float
    total_revenue: float
    total_cost: float
    clients: Dict[int, ClientOutcome] = field(default_factory=dict)
    servers: Dict[int, ServerOutcome] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def num_servers_on(self) -> int:
        return sum(1 for outcome in self.servers.values() if outcome.is_on)

    def profit_or_neg_inf(self) -> float:
        """Profit for feasible allocations, ``-inf`` otherwise.

        This is the objective value search algorithms should compare: an
        infeasible state never beats a feasible one.
        """
        return self.total_profit if self.feasible else -math.inf

    def summary(self) -> str:
        status = "feasible" if self.feasible else f"{len(self.violations)} violations"
        return (
            f"profit={self.total_profit:.4f} (revenue={self.total_revenue:.4f}, "
            f"cost={self.total_cost:.4f}), servers ON={self.num_servers_on}, "
            f"{status}"
        )


def evaluate_profit(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    check_feasibility: bool = True,
) -> ProfitBreakdown:
    """Score an allocation: total profit with a full per-entity breakdown.

    Unserved clients earn their utility at infinite delay (0 for the
    clipped forms) — they produce no revenue but the provider also pays no
    cost for them.  When ``require_all_served`` is True (the default, and
    the paper's setting), an unserved client additionally marks the
    allocation infeasible.
    """
    total_revenue = 0.0
    client_outcomes: Dict[int, ClientOutcome] = {}
    for client in system.clients:
        cid = client.client_id
        # One entries fetch per client; every term below reuses it.
        entries = allocation.entries_of_client(cid)
        total_alpha = sum(entry.alpha for entry in entries.values())
        served = bool(entries) and total_alpha > 0.0
        response = (
            response_time_of_entries(system, client, entries, client.rate_predicted)
            if served
            else math.inf
        )
        utility_value = client.utility_class.function.value(response)
        revenue = client.rate_agreed * utility_value
        if math.isinf(response) and math.isinf(utility_value):
            # Unclipped linear utility at infinite delay: treat as zero
            # revenue rather than poisoning the totals with -inf.
            revenue = 0.0
            utility_value = 0.0
        total_revenue += revenue
        client_outcomes[cid] = ClientOutcome(
            client_id=cid,
            response_time=response,
            utility_value=utility_value,
            revenue=revenue,
            served=served,
        )

    total_cost = 0.0
    server_outcomes: Dict[int, ServerOutcome] = {}
    for server in system.servers():
        sid = server.server_id
        used_p, used_b = allocation.server_share_totals(sid)
        util_p = used_p + server.background_processing
        util_b = used_b + server.background_bandwidth
        storage = server.background_storage
        for client_id in allocation.clients_on_server(sid):
            entry = allocation.entry(client_id, sid)
            if entry is not None and entry.alpha > 0.0:
                storage += system.client(client_id).storage_req
        is_on = allocation.server_is_used(sid) or server.has_background_load
        cost = 0.0
        if is_on:
            cost = server.server_class.power_fixed + server.server_class.power_per_util * min(
                util_p, 1.0
            )
        total_cost += cost
        server_outcomes[sid] = ServerOutcome(
            server_id=sid,
            is_on=is_on,
            utilization_processing=util_p,
            utilization_bandwidth=util_b,
            storage_used=storage,
            cost=cost,
        )

    violations: List[Violation] = []
    if check_feasibility:
        violations = find_violations(
            system, allocation, require_all_served=require_all_served
        )

    return ProfitBreakdown(
        total_profit=total_revenue - total_cost,
        total_revenue=total_revenue,
        total_cost=total_cost,
        clients=client_outcomes,
        servers=server_outcomes,
        violations=violations,
    )
