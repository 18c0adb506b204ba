"""Top-level driver: the paper's ``Resource_Alloc`` heuristic (Figure 3).

Structure mirrors the pseudo code:

1. generate ``num_initial_solutions`` randomized greedy solutions and keep
   the best (:mod:`repro.core.initial`);
2. ``while (Steady)``: one round applies, in order,

   * ``Adjust_ResourceShares`` on every used server,
   * ``Adjust_DispersionRates`` on every client,
   * ``TurnON_servers`` / ``TurnOFF_servers`` per cluster,
   * (optionally) the cluster-level client-reassignment local search,
   * a retry pass that places clients the greedy constructor had to skip,

   and the loop exits once a full round improves profit by less than the
   configured tolerance (or after ``max_improvement_rounds``).

Every move inside the round is accept-if-better against the *exact*
evaluator, so the heuristic's reported profit is always achieved by the
returned allocation (property-tested invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.config import SolverConfig
from repro.core.assign import apply_placement, best_placement
from repro.core.delta import DeltaScorer
from repro.core.dispersion import adjust_dispersion_rates
from repro.core.initial import build_initial_solution
from repro.core.local_search import reassignment_pass
from repro.core.power import (
    force_client_into_cluster,
    turn_off_servers,
    turn_on_servers,
)
from repro.core.shares import adjust_resource_shares
from repro.core.state import WorkingState
from repro.model.allocation import Allocation
from repro.model.datacenter import CloudSystem
from repro.model.profit import ProfitBreakdown, evaluate_profit


@dataclass
class AllocationResult:
    """What :meth:`ResourceAllocator.solve` returns.

    ``profit_history`` holds the evaluated profit after the initial
    solution and after each improvement round, so experiments can plot
    convergence.  ``breakdown`` is the final, independently evaluated
    scoring of ``allocation``.
    """

    allocation: Allocation
    breakdown: ProfitBreakdown
    initial_profit: float
    profit_history: List[float] = field(default_factory=list)
    rounds: int = 0
    runtime_seconds: float = 0.0

    @property
    def profit(self) -> float:
        return self.breakdown.total_profit


class ResourceAllocator:
    """The paper's distributed profit-maximizing resource allocator."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def solve(self, system: CloudSystem) -> AllocationResult:
        """Run the full heuristic (initial solutions + improvement loop)."""
        started = time.perf_counter()
        rng = np.random.default_rng(self.config.seed)
        report = build_initial_solution(system, self.config, rng)
        result = self._improve(
            system, report.best_allocation, rng, initial_profit=report.best_profit
        )
        result.runtime_seconds = time.perf_counter() - started
        return result

    def improve(
        self, system: CloudSystem, allocation: Allocation
    ) -> AllocationResult:
        """Run only the improvement loop on an externally built allocation.

        This is what Figure 5 needs: random (bad) initial solutions pushed
        through the paper's local search.
        """
        started = time.perf_counter()
        rng = np.random.default_rng(self.config.seed)
        initial = evaluate_profit(
            system, allocation, require_all_served=False
        ).total_profit
        result = self._improve(system, allocation.copy(), rng, initial_profit=initial)
        result.runtime_seconds = time.perf_counter() - started
        return result

    def improvement_round(
        self,
        state: WorkingState,
        rng: np.random.Generator,
        blocked_for_shutdown: Optional[Set[int]] = None,
    ) -> None:
        """One improvement round on an externally managed working state.

        The sharded hierarchical solver drives its worker-resident shard
        states through this: the same move sequence as one iteration of
        :meth:`solve`'s while-not-steady loop, including the straggler
        retry pass.
        """
        self._improvement_round(
            state,
            rng,
            blocked_for_shutdown if blocked_for_shutdown is not None else set(),
        )

    # -- internals ----------------------------------------------------------

    def _improvement_round(
        self,
        state: WorkingState,
        rng: np.random.Generator,
        blocked_for_shutdown: Set[int],
    ) -> None:
        config = self.config
        system = state.system
        for server in system.servers():
            if state.allocation.clients_on_server(server.server_id):
                adjust_resource_shares(state, server.server_id, config)
        for client_id in system.client_ids():
            adjust_dispersion_rates(state, client_id, config)
        for cluster_id in system.cluster_ids():
            turn_on_servers(state, cluster_id, config)
            turn_off_servers(state, cluster_id, config, blocked_for_shutdown)
        if config.include_cluster_reassignment:
            reassignment_pass(state, config, rng)
        self._place_stragglers(state)

    def _place_stragglers(self, state: WorkingState) -> None:
        """Retry clients the greedy constructor could not place.

        ``Assign_Distribute`` only sees *free* capacity, so a straggler can
        be unplaceable even though re-splitting some server's shares would
        fit it.  The fallback forces the client onto a host via the same
        merge move ``TurnOFF_servers`` uses (foothold + exact convex
        re-split), accepting any placement that keeps the state feasible —
        serving every client is a hard constraint (6), not a preference.
        """
        for client_id in state.system.client_ids():
            if state.allocation.entries_of_client(client_id):
                continue
            client = state.system.client(client_id)
            placement = best_placement(state, client, self.config)
            if placement is not None:
                apply_placement(state, placement)
                continue
            self._force_place(state, client_id)

    def _force_place(self, state: WorkingState, client_id: int) -> bool:
        clusters = sorted(
            state.system.cluster_ids(),
            key=lambda kid: sum(
                state.free_processing(sid) + state.free_bandwidth(sid)
                for sid in state.system.cluster(kid).server_ids()
            ),
            reverse=True,
        )
        for cluster_id in clusters:
            snapshot = state.snapshot()
            if force_client_into_cluster(state, client_id, cluster_id, self.config):
                return True
            state.restore(snapshot)
        return False

    def _improve(
        self,
        system: CloudSystem,
        allocation: Allocation,
        rng: np.random.Generator,
        initial_profit: float,
    ) -> AllocationResult:
        state = WorkingState(system, allocation)
        if self.config.use_delta_scoring:
            # Accept-if-better gates across every move module then cost
            # O(touched) instead of a full re-evaluation (see core.delta).
            DeltaScorer(state, validate=self.config.validate_delta_scoring)
        self._place_stragglers(state)
        blocked_for_shutdown: Set[int] = set()
        history: List[float] = []
        profit = evaluate_profit(
            system, state.allocation, require_all_served=False
        ).total_profit
        history.append(profit)
        rounds = 0
        for _ in range(self.config.max_improvement_rounds):
            self._improvement_round(state, rng, blocked_for_shutdown)
            rounds += 1
            new_profit = evaluate_profit(
                system, state.allocation, require_all_served=False
            ).total_profit
            history.append(new_profit)
            if new_profit <= profit + self.config.improvement_tolerance:
                profit = max(profit, new_profit)
                break
            profit = new_profit
        breakdown = evaluate_profit(system, state.allocation)
        return AllocationResult(
            allocation=state.allocation,
            breakdown=breakdown,
            initial_profit=initial_profit,
            profit_history=history,
            rounds=rounds,
        )
