"""Cluster-level client reassignment local search.

Section VI describes the move precisely: "the clients are picked one at a
time and [each] is removed from the assigned cluster and then the best
cluster to serve the client is found based on the available condition of
the clusters.  This repeats until no further reassignment is possible."

The same routine serves two masters:

* inside :class:`~repro.core.allocator.ResourceAllocator` it is the
  "change client assignment" part of the paper's local search;
* standing alone it upgrades the random assignments of the Monte Carlo
  reference (:mod:`repro.baselines.monte_carlo`) and of Figure 5's
  worst-initial-solution study.

Hot-path engineering: a pass used to pay a *full* ``score`` before and
after every client move plus an O(entries) snapshot per client.  Moves
now run inside a :class:`~repro.core.state.WorkingState` transaction
(O(touched) undo on rejection) and are gated by
:func:`~repro.core.scoring.score_state`, which re-scores only the
touched clients/servers when a :class:`~repro.core.delta.DeltaScorer` is
attached.  The accept/reject decisions are unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.audit.hooks import audit_point
from repro.audit.invariants import ACCEPT_TOLERANCE
from repro.config import SolverConfig
from repro.core.assign import apply_placement, best_placement
from repro.core.delta import DeltaScorer
from repro.core.power import force_client_into_cluster
from repro.core.scoring import score_state
from repro.core.state import WorkingState
from repro.model.allocation import Allocation
from repro.model.datacenter import CloudSystem


def reassignment_pass(
    state: WorkingState,
    config: SolverConfig,
    rng: np.random.Generator,
) -> float:
    """One pass: each client gets one chance to move; returns profit delta."""
    order = list(state.system.client_ids())
    rng.shuffle(order)
    total_delta = 0.0
    for client_id in order:
        client = state.system.client(client_id)
        before = score_state(state)
        state.begin_txn()
        state.unassign_client(client_id)
        placement = best_placement(state, client, config)
        if placement is not None:
            apply_placement(state, placement)
        else:
            # No cluster has *free* room: try the squeeze-and-resplit
            # force move so clients locked into a bad forced spot can
            # still relocate.
            placed = False
            for cluster_id in state.system.cluster_ids():
                state.begin_txn()
                if (
                    force_client_into_cluster(state, client_id, cluster_id, config)
                    and score_state(state) > before + ACCEPT_TOLERANCE
                ):
                    state.commit_txn()
                    placed = True
                    break
                state.rollback_txn()
            if not placed:
                state.rollback_txn()
                continue
        after = score_state(state)
        if after > before + ACCEPT_TOLERANCE:
            total_delta += after - before
            state.commit_txn()
        else:
            state.rollback_txn()
    audit_point(
        state.system, state.allocation, "local_search.reassignment_pass"
    )
    return total_delta


def cluster_reassignment_search(
    system: CloudSystem,
    allocation: Allocation,
    config: Optional[SolverConfig] = None,
    rng: Optional[np.random.Generator] = None,
    max_passes: int = 10,
) -> Allocation:
    """Repeat reassignment passes until none improves; returns a new allocation."""
    config = config or SolverConfig()
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    state = WorkingState(system, allocation.copy())
    if config.use_delta_scoring:
        DeltaScorer(state, validate=config.validate_delta_scoring)
    for _ in range(max_passes):
        delta = reassignment_pass(state, config, rng)
        if delta <= config.improvement_tolerance:
            break
    return state.allocation
