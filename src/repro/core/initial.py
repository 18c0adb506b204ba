"""Randomized greedy construction of initial solutions (section V.A).

The paper generates ``num_init_solns`` candidate solutions: each pass
shuffles the client processing order, then assigns every client to the
cluster where ``Assign_Distribute`` finds the highest approximated profit
given the capacity already committed in that pass.  The best-evaluated
pass seeds the improvement loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SolverConfig
from repro.core.assign import apply_placement, best_placement
from repro.core.power import force_client_into_cluster
from repro.core.state import WorkingState
from repro.model.allocation import Allocation
from repro.model.datacenter import CloudSystem
from repro.model.profit import evaluate_profit


@dataclass
class InitialSolutionReport:
    """What the constructor produced, pass by pass."""

    best_allocation: Allocation
    best_profit: float
    pass_profits: List[float] = field(default_factory=list)
    unplaced_clients: List[int] = field(default_factory=list)


def greedy_pass(
    system: CloudSystem,
    config: SolverConfig,
    rng: np.random.Generator,
    starting_allocation: Optional[Allocation] = None,
) -> WorkingState:
    """One greedy construction pass over a random client order.

    Clients that no cluster can host through ``Assign_Distribute`` (which
    only sees *free* capacity) get a second chance via the squeeze-and-
    resplit force placement, so each pass is evaluated on the profit of
    serving everyone it possibly can — constraint (6) is part of the
    problem, not an afterthought.
    """
    allocation = (
        starting_allocation.copy() if starting_allocation is not None else None
    )
    state = WorkingState(system, allocation)
    order = list(system.client_ids())
    rng.shuffle(order)
    stragglers = []
    for client_id in order:
        client = system.client(client_id)
        placement = best_placement(state, client, config)
        if placement is not None:
            apply_placement(state, placement)
        else:
            stragglers.append(client_id)
    for client_id in stragglers:
        clusters = sorted(
            system.cluster_ids(),
            key=lambda kid: sum(
                state.free_processing(sid) + state.free_bandwidth(sid)
                for sid in system.cluster(kid).server_ids()
            ),
            reverse=True,
        )
        for cluster_id in clusters:
            snapshot = state.snapshot()
            if force_client_into_cluster(state, client_id, cluster_id, config):
                break
            state.restore(snapshot)
    return state


def build_initial_solution(
    system: CloudSystem,
    config: SolverConfig,
    rng: Optional[np.random.Generator] = None,
) -> InitialSolutionReport:
    """Run ``num_initial_solutions`` greedy passes; keep the best-evaluated one.

    Pass quality is judged by the independent evaluator on the *real*
    utility functions (not the linear surrogate the constructor optimizes),
    with unserved clients allowed: a pass that serves more clients at
    equal profit wins through its higher evaluated revenue.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    best_state: Optional[WorkingState] = None
    best_profit = -math.inf
    pass_profits: List[float] = []
    for _ in range(config.num_initial_solutions):
        state = greedy_pass(system, config, rng)
        breakdown = evaluate_profit(
            system, state.allocation, require_all_served=False
        )
        pass_profits.append(breakdown.total_profit)
        if breakdown.total_profit > best_profit:
            best_profit = breakdown.total_profit
            best_state = state
    assert best_state is not None  # num_initial_solutions >= 1
    unplaced = [
        cid
        for cid in system.client_ids()
        if not best_state.allocation.is_assigned(cid)
    ]
    return InitialSolutionReport(
        best_allocation=best_state.allocation,
        best_profit=best_profit,
        pass_profits=pass_profits,
        unplaced_clients=unplaced,
    )
