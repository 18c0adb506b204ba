"""Paper constraints as named, tolerance-parameterized predicates.

Single source of truth for feasibility.  Each hard constraint of the
profit-maximization MINLP (section IV of the paper) is one predicate
returning a list of structured :class:`Violation` records:

=========================  ==========================================
predicate                  paper constraint
=========================  ==========================================
check_cluster_assignment   (6)/(10): one cluster per client, entries
                           only inside it
check_traffic_conservation (5): per-client alpha sums to exactly 1
check_share_capacity       (4): per-server GPS shares sum to <= 1
check_storage_capacity     (8): disk reservations fit the server
check_queue_stability      (7): both M/M/1 queues of every branch
                           strictly stable
=========================  ==========================================

The module also owns every numerical tolerance the rest of the code
uses, so that "how close to the boundary is still feasible" is decided
in exactly one place:

``FEASIBILITY_TOLERANCE``
    Slack on constraint sums (alpha totals, share totals, storage).
    Shares come out of bisection so exact equality cannot be expected.
``AGREEMENT_TOLERANCE``
    Maximum tolerated profit disagreement between any two scoring paths
    (scalar oracle, vectorized kernels, delta scorer, service engine).
``ACCEPT_TOLERANCE``
    Hill-climbing accept-if-better gate: a move must improve profit by
    more than this to be kept.  Strictly below the agreement tolerance
    would let scoring noise masquerade as improvement, so the gate sits
    three orders below it and the scorers are held to 1e-9 agreement.
``NEGLIGIBLE_ALPHA``
    Traffic portions below this are treated as "not served here" when
    pruning near-empty branches.
``SHARE_BUDGET_TOLERANCE``
    Slack allowed when a move planner checks a candidate share budget
    against a server's remaining capacity.

:mod:`repro.model` re-exports :func:`find_violations` /
:func:`validate_allocation` from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.exceptions import InfeasibleAllocationError
from repro.model.allocation import Allocation
from repro.model.datacenter import CloudSystem

#: Numerical slack for share sums and alpha sums.  Shares are produced by
#: bisection so exact equality cannot be expected.
FEASIBILITY_TOLERANCE = 1e-6

#: Maximum tolerated profit disagreement between any two scoring paths.
AGREEMENT_TOLERANCE = 1e-9

#: Accept-if-better gate for hill-climbing moves (shares, dispersion,
#: reassignment, power, repair): keep a move only if it improves profit
#: by more than this.
ACCEPT_TOLERANCE = 1e-12

#: Traffic portions below this are treated as zero when pruning branches.
NEGLIGIBLE_ALPHA = 1e-9

#: Slack when checking a candidate share budget against server capacity.
SHARE_BUDGET_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One violated constraint, tagged with the paper's constraint label.

    The first three fields match the legacy record exactly (callers
    construct them positionally).  The optional fields identify the
    offending entity and quantify the miss: ``slack`` is the margin to
    the constraint boundary in its natural orientation (capacity minus
    demand, ``mu - lambda``, ``1 - sum``), so a violated constraint
    reports a negative slack.
    """

    constraint: str
    subject: str
    detail: str
    client_id: Optional[int] = None
    server_id: Optional[int] = None
    cluster_id: Optional[int] = None
    slack: Optional[float] = None

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.subject}: {self.detail}"


def check_cluster_assignment(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Constraint (6)/(10): each client served by exactly one known cluster,
    with every per-server entry inside that cluster."""
    violations: List[Violation] = []
    for client in system.clients:
        cid = client.client_id
        if not allocation.is_assigned(cid):
            if require_all_served:
                violations.append(
                    Violation(
                        "(6)",
                        f"client {cid}",
                        "not assigned to any cluster",
                        client_id=cid,
                    )
                )
            continue
        cluster_id = allocation.cluster_of[cid]
        if cluster_id not in system.cluster_ids():
            violations.append(
                Violation(
                    "(6)",
                    f"client {cid}",
                    f"unknown cluster {cluster_id}",
                    client_id=cid,
                    cluster_id=cluster_id,
                )
            )
            continue
        for server_id in allocation.entries_of_client(cid):
            if system.cluster_of_server(server_id) != cluster_id:
                violations.append(
                    Violation(
                        "(6)",
                        f"client {cid}",
                        f"entry on server {server_id} outside assigned "
                        f"cluster {cluster_id}",
                        client_id=cid,
                        server_id=server_id,
                        cluster_id=cluster_id,
                    )
                )
    return violations


def check_traffic_conservation(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Constraint (5): every served client's traffic portions sum to 1.

    ``require_all_served=False`` relaxes this to "sums to 1 *for clients
    that have any entries*", which is what partial states inside the
    greedy constructor need.  Clients flagged by
    :func:`check_cluster_assignment` for an unknown cluster are skipped
    here (their entries are meaningless).
    """
    violations: List[Violation] = []
    for client in system.clients:
        cid = client.client_id
        if not allocation.is_assigned(cid):
            continue
        cluster_id = allocation.cluster_of[cid]
        if cluster_id not in system.cluster_ids():
            continue
        entries = allocation.entries_of_client(cid)
        if not entries:
            if require_all_served:
                violations.append(
                    Violation(
                        "(5)",
                        f"client {cid}",
                        "assigned but serves no traffic",
                        client_id=cid,
                        cluster_id=cluster_id,
                        slack=-1.0,
                    )
                )
            continue
        total_alpha = allocation.total_alpha(cid)
        if abs(total_alpha - 1.0) > tolerance:
            violations.append(
                Violation(
                    "(5)",
                    f"client {cid}",
                    f"traffic portions sum to {total_alpha:.9f}, expected 1",
                    client_id=cid,
                    cluster_id=cluster_id,
                    slack=1.0 - total_alpha,
                )
            )
    return violations


def check_share_capacity(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Constraint (4): per-server GPS shares (plus background load) <= 1."""
    violations: List[Violation] = []
    for server in system.servers():
        sid = server.server_id
        used_p, used_b = allocation.server_share_totals(sid)
        used_p += server.background_processing
        used_b += server.background_bandwidth
        if used_p > 1.0 + tolerance:
            violations.append(
                Violation(
                    "(4)",
                    f"server {sid}",
                    f"processing shares sum to {used_p:.9f} > 1",
                    server_id=sid,
                    slack=1.0 - used_p,
                )
            )
        if used_b > 1.0 + tolerance:
            violations.append(
                Violation(
                    "(4)",
                    f"server {sid}",
                    f"bandwidth shares sum to {used_b:.9f} > 1",
                    server_id=sid,
                    slack=1.0 - used_b,
                )
            )
    return violations


def check_storage_capacity(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Constraint (8): disk reservations of served clients fit the server."""
    violations: List[Violation] = []
    for server in system.servers():
        sid = server.server_id
        storage = server.background_storage
        for client_id in allocation.clients_on_server(sid):
            entry = allocation.entry(client_id, sid)
            if entry is not None and entry.alpha > 0.0:
                storage += system.client(client_id).storage_req
        if storage > server.cap_storage + tolerance:
            violations.append(
                Violation(
                    "(8)",
                    f"server {sid}",
                    f"storage demand {storage:.9f} exceeds capacity "
                    f"{server.cap_storage:.9f}",
                    server_id=sid,
                    slack=server.cap_storage - storage,
                )
            )
    return violations


def check_queue_stability(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Constraint (7): both M/M/1 queues of every served branch are
    strictly stable (``mu > lambda``, an open inequality — no tolerance:
    a queue at ``rho == 1`` has unbounded response time, so "almost
    stable" is not a numerical nicety we can grant)."""
    violations: List[Violation] = []
    for client_id, server_id, entry in allocation.iter_entries():
        if entry.alpha <= 0.0:
            continue
        client = system.client(client_id)
        server = system.server(server_id)
        arrival = entry.alpha * client.rate_predicted
        mu_p = entry.phi_p * server.cap_processing / client.t_proc
        mu_b = entry.phi_b * server.cap_bandwidth / client.t_comm
        if mu_p <= arrival:
            violations.append(
                Violation(
                    "(7)",
                    f"client {client_id} on server {server_id}",
                    f"processing queue unstable: mu={mu_p:.9f} <= "
                    f"lambda={arrival:.9f}",
                    client_id=client_id,
                    server_id=server_id,
                    slack=mu_p - arrival,
                )
            )
        if mu_b <= arrival:
            violations.append(
                Violation(
                    "(7)",
                    f"client {client_id} on server {server_id}",
                    f"communication queue unstable: mu={mu_b:.9f} <= "
                    f"lambda={arrival:.9f}",
                    client_id=client_id,
                    server_id=server_id,
                    slack=mu_b - arrival,
                )
            )
    return violations


#: Every invariant, in reporting order, keyed by a short name.  All
#: predicates share one signature
#: ``(system, allocation, require_all_served, tolerance) -> [Violation]``.
INVARIANTS: Tuple[
    Tuple[str, Callable[[CloudSystem, Allocation, bool, float], List[Violation]]],
    ...,
] = (
    ("cluster-assignment", check_cluster_assignment),
    ("traffic-conservation", check_traffic_conservation),
    ("share-capacity", check_share_capacity),
    ("storage-capacity", check_storage_capacity),
    ("queue-stability", check_queue_stability),
)


def check_no_entries_on_servers(
    allocation: Allocation,
    server_ids,
    reason: str = "failed",
) -> List[Violation]:
    """Operational invariant: no allocation row references a server from
    ``server_ids`` (used by the online service after draining a failed
    server — any surviving row would bill traffic to dead hardware)."""
    violations: List[Violation] = []
    excluded = set(server_ids)
    for client_id, server_id, entry in allocation.iter_entries():
        if server_id in excluded:
            violations.append(
                Violation(
                    "(3)",
                    f"client {client_id} on server {server_id}",
                    f"entry references {reason} server {server_id} "
                    f"(alpha={entry.alpha:.9f})",
                    client_id=client_id,
                    server_id=server_id,
                )
            )
    return violations


def find_violations(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> List[Violation]:
    """Check every hard constraint; return all violations found.

    Composes the :data:`INVARIANTS` predicates in order.  Empty result
    == feasible.
    """
    violations: List[Violation] = []
    for _name, predicate in INVARIANTS:
        violations.extend(predicate(system, allocation, require_all_served, tolerance))
    return violations


def validate_allocation(
    system: CloudSystem,
    allocation: Allocation,
    require_all_served: bool = True,
    tolerance: float = FEASIBILITY_TOLERANCE,
) -> None:
    """Raise :class:`InfeasibleAllocationError` if any constraint is violated."""
    violations = find_violations(
        system, allocation, require_all_served=require_all_served, tolerance=tolerance
    )
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise InfeasibleAllocationError(
            f"{len(violations)} violations: {summary}{more}", violations=violations
        )
