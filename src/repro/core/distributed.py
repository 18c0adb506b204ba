"""Distributed decision making (section V: "local agents ... parallelize
the solution and decrease the decision time").

Two layers of parallelism, both semantically transparent:

* the randomized greedy *initial solutions* are independent, so the
  ``num_initial_solutions`` passes run as separate worker processes;
* after assignment, every improvement move except cross-cluster
  reassignment (share adjustment, dispersion, power on/off) touches a
  single cluster, so each cluster's subproblem — the cluster plus the
  clients bound to it — is improved in its own worker process and the
  disjoint results are merged.  A final sequential reassignment pass
  restores the cross-cluster move.

The output is the same *kind* of solution as the sequential
:class:`~repro.core.allocator.ResourceAllocator`; the speedup factor on
``K`` clusters is what the paper's complexity paragraph claims.

**Dispatch cost.**  The first version of this module shipped the whole
:class:`~repro.model.datacenter.CloudSystem` inside *every* task tuple,
so each of the ``num_initial_solutions + K`` tasks re-pickled the full
instance (and each cluster task additionally carried a standalone
sub-system).  The pool is now *persistent*: the system and the worker
config ride to each worker exactly once through the executor's
``initializer``, tasks carry only per-task deltas (a seed, or a
``(cluster_id, allocation rows)`` payload), and the executor itself is
reused across :meth:`DistributedAllocator.solve` calls on the same
system.  Results are unchanged — the workers run the same code on the
same subproblems.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.core.allocator import AllocationResult, ResourceAllocator
from repro.core.initial import greedy_pass
from repro.core.local_search import reassignment_pass
from repro.core.state import WorkingState
from repro.io import dump_canonical, system_to_dict
from repro.model.allocation import Allocation
from repro.model.datacenter import ArrayBackedCloudSystem, CloudSystem
from repro.model.profit import evaluate_profit

#: One client's branch rows inside a cluster task:
#: ``(client_id, ((server_id, alpha, phi_p, phi_b), ...))``.
ClientRows = Tuple[int, Tuple[Tuple[int, float, float, float], ...]]

# Per-worker-process state, installed once by the pool initializer.  The
# globals live in the *worker* interpreter; the parent only writes them
# when it is also acting as the inline fallback (num_workers == 0 is not
# a supported mode, but tests drive the task functions directly).
_WORKER_SYSTEM: Optional[CloudSystem] = None
_WORKER_CONFIG: Optional[SolverConfig] = None


def _pool_initializer(system: CloudSystem, config: SolverConfig) -> None:
    """Install the shared instance in a worker (runs once per process)."""
    global _WORKER_SYSTEM, _WORKER_CONFIG
    _WORKER_SYSTEM = system
    _WORKER_CONFIG = config


# -- system fingerprint -------------------------------------------------------

#: id(system) -> (weakref to the system, membership epoch, sha256 digest).
#: Keyed on object identity + membership epoch: recomputing the canonical
#: dump of a 100k-client system costs seconds, and pool acquisition does
#: it on *every* solve call.  The weakref callback evicts the slot when
#: the system dies, so a recycled id() can never alias a stale digest.
_FINGERPRINT_MEMO: Dict[int, Tuple["weakref.ref", int, str]] = {}

#: Population size (clients + servers) above which an array-backed
#: system's fingerprint hashes the raw column buffers instead of the
#: canonical dump (see the guard in :func:`system_fingerprint`).
_TOKEN_FINGERPRINT_FLOOR = 5_000


def system_fingerprint(system: CloudSystem) -> str:
    """Content hash of a system, memoized per live object.

    The memo is invalidated by client membership edits (tracked through
    :attr:`CloudSystem.membership_epoch`); topology is immutable, so the
    epoch fully covers the mutable surface the canonical dump sees.
    """
    key = id(system)
    slot = _FINGERPRINT_MEMO.get(key)
    if (
        slot is not None
        and slot[0]() is system
        and slot[1] == system.membership_epoch
    ):
        return slot[2]
    if (
        isinstance(system, ArrayBackedCloudSystem)
        and system.is_array_backed
        and system.num_clients + system.num_servers > _TOKEN_FINGERPRINT_FLOOR
    ):
        # Hash the raw column buffers instead of the canonical dump: the
        # dump would materialize every client/server view (minutes at
        # n=1M) while the buffers hash in milliseconds.  Guarded by a
        # size floor so small systems — the only ones that ever *thaw*
        # (the online service tier's membership edits) — keep the dump
        # scheme and fingerprints stay a pure function of content across
        # backing changes.  Large batch systems never thaw, so they are
        # only ever fingerprinted on this one path.
        hasher = hashlib.sha256(b"soa-v1:")
        hasher.update(system.name.encode("utf-8"))
        hasher.update(system.arrays.content_token())
        digest = hasher.hexdigest()
    else:
        digest = hashlib.sha256(
            dump_canonical(system_to_dict(system)).encode("utf-8")
        ).hexdigest()
    ref = weakref.ref(system, lambda _, k=key: _FINGERPRINT_MEMO.pop(k, None))
    _FINGERPRINT_MEMO[key] = (ref, system.membership_epoch, digest)
    return digest


class WorkerPool:
    """A persistent ProcessPoolExecutor primed once per (system, size).

    The system and worker config ride to each worker exactly once through
    the executor initializer; repeated :meth:`acquire` calls with the
    same system and size return the warm pool.  Shared by the per-cluster
    :class:`DistributedAllocator` and the sharded hierarchical solver.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key: Optional[Tuple[str, int]] = None

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        return self._pool

    @property
    def key(self) -> Optional[Tuple[str, int]]:
        return self._key

    def acquire(
        self,
        system: CloudSystem,
        worker_config: SolverConfig,
        max_workers: int,
    ) -> ProcessPoolExecutor:
        """The persistent executor primed with ``system``; re-primed on change."""
        key = (system_fingerprint(system), max_workers)
        if self._pool is not None and self._key == key:
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_pool_initializer,
            initargs=(system, worker_config),
        )
        self._key = key
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._key = None


def _initial_pass_task(seed: int) -> Tuple[float, Allocation]:
    """One greedy construction pass against the worker's shared system."""
    assert _WORKER_SYSTEM is not None and _WORKER_CONFIG is not None
    rng = np.random.default_rng(seed)
    state = greedy_pass(_WORKER_SYSTEM, _WORKER_CONFIG, rng)
    profit = evaluate_profit(
        _WORKER_SYSTEM, state.allocation, require_all_served=False
    ).total_profit
    return profit, state.allocation


def _cluster_rows(allocation: Allocation, cluster_id: int) -> Tuple[ClientRows, ...]:
    """The per-task delta: every entry row of the cluster's clients."""
    rows: List[ClientRows] = []
    for cid in allocation.clients_in_cluster(cluster_id):
        entries = allocation.entries_of_client(cid)
        rows.append(
            (
                cid,
                tuple(
                    (sid, entry.alpha, entry.phi_p, entry.phi_b)
                    for sid, entry in entries.items()
                ),
            )
        )
    return tuple(rows)


def _subproblem_from_rows(
    system: CloudSystem, cluster_id: int, rows: Sequence[ClientRows]
) -> Tuple[CloudSystem, Allocation]:
    """Rebuild one cluster's standalone instance from shared system + delta."""
    cluster = system.cluster(cluster_id)
    clients = [system.client(cid) for cid, _ in rows]
    sub_system = CloudSystem(
        clusters=[cluster],
        clients=clients,
        name=f"{system.name}/cluster-{cluster_id}",
    )
    sub_allocation = Allocation()
    for cid, entry_rows in rows:
        sub_allocation.assign_client(cid, cluster_id)
        for sid, alpha, phi_p, phi_b in entry_rows:
            sub_allocation.set_entry(cid, sid, alpha, phi_p, phi_b)
    return sub_system, sub_allocation


def _improve_cluster_task(
    task: Tuple[int, Tuple[ClientRows, ...]]
) -> Allocation:
    """Improvement loop on one cluster subproblem (shared system + delta)."""
    assert _WORKER_SYSTEM is not None and _WORKER_CONFIG is not None
    cluster_id, rows = task
    sub_system, sub_allocation = _subproblem_from_rows(
        _WORKER_SYSTEM, cluster_id, rows
    )
    allocator = ResourceAllocator(_WORKER_CONFIG)
    return allocator.improve(sub_system, sub_allocation).allocation


def _cluster_subproblem(
    system: CloudSystem, allocation: Allocation, cluster_id: int
) -> Tuple[CloudSystem, Allocation]:
    """Extract one cluster and its bound clients as a standalone instance.

    Kept as the reference construction: the worker-side
    :func:`_subproblem_from_rows` must build exactly this instance from
    the compact row payload (regression-tested).
    """
    return _subproblem_from_rows(
        system, cluster_id, _cluster_rows(allocation, cluster_id)
    )


class DistributedAllocator:
    """Per-cluster parallel variant of :class:`ResourceAllocator`.

    Holds one persistent :class:`~concurrent.futures.ProcessPoolExecutor`
    keyed to the system it was primed with; repeated :meth:`solve` calls
    on the same system reuse the warm workers (and their shipped copy of
    the instance).  Solving a different system re-primes the pool.  Use
    as a context manager — or call :meth:`close` — to release the worker
    processes; an unclosed pool is reaped with the executor's usual
    atexit handling.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        base = config or SolverConfig()
        # Workers improve a single cluster; the cross-cluster move runs in
        # the final sequential pass instead.
        self.config = base
        self._worker_config = replace(
            base, include_cluster_reassignment=False, parallel_clusters=False
        )
        self._pool_manager = WorkerPool()

    # -- pool lifecycle ------------------------------------------------------

    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        return self._pool_manager.pool

    @property
    def _pool_key(self) -> Optional[Tuple[str, int]]:
        return self._pool_manager.key

    def _system_fingerprint(self, system: CloudSystem) -> str:
        return system_fingerprint(system)

    def _acquire_pool(self, system: CloudSystem) -> ProcessPoolExecutor:
        """The persistent executor primed with ``system``; re-primed on change."""
        max_workers = self.config.num_workers or max(system.num_clusters, 1)
        return self._pool_manager.acquire(system, self._worker_config, max_workers)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self._pool_manager.close()

    def __enter__(self) -> "DistributedAllocator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- solving -------------------------------------------------------------

    def solve(self, system: CloudSystem) -> AllocationResult:
        started = time.perf_counter()
        config = self.config
        seed_source = np.random.default_rng(config.seed)
        seeds = [int(seed_source.integers(0, 2**31 - 1)) for _ in range(
            config.num_initial_solutions
        )]

        pool = self._acquire_pool(system)
        passes = list(pool.map(_initial_pass_task, seeds))
        initial_profit, allocation = max(passes, key=lambda item: item[0])

        tasks = [
            (cluster_id, _cluster_rows(allocation, cluster_id))
            for cluster_id in system.cluster_ids()
        ]
        improved = list(pool.map(_improve_cluster_task, tasks))

        merged = Allocation()
        for sub_allocation in improved:
            for cid, kid in sub_allocation.cluster_of.items():
                merged.assign_client(cid, kid)
                for sid, entry in sub_allocation.entries_of_client(cid).items():
                    merged.set_entry(cid, sid, entry.alpha, entry.phi_p, entry.phi_b)
        # Clients the greedy pass could not place carry no entries; keep
        # them visible to the final sequential pass.
        for cid in system.client_ids():
            if not merged.is_assigned(cid) and allocation.is_assigned(cid):
                merged.assign_client(cid, allocation.cluster_of[cid])

        state = WorkingState(system, merged)
        rng = np.random.default_rng(config.seed)
        history: List[float] = [
            evaluate_profit(system, merged, require_all_served=False).total_profit
        ]
        if config.include_cluster_reassignment:
            for _ in range(2):
                delta = reassignment_pass(state, config, rng)
                history.append(
                    evaluate_profit(
                        system, state.allocation, require_all_served=False
                    ).total_profit
                )
                if delta <= config.improvement_tolerance:
                    break

        breakdown = evaluate_profit(system, state.allocation)
        return AllocationResult(
            allocation=state.allocation,
            breakdown=breakdown,
            initial_profit=initial_profit,
            profit_history=history,
            rounds=len(history) - 1,
            runtime_seconds=time.perf_counter() - started,
        )
