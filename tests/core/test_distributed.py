"""Tests for the per-cluster distributed allocator."""

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.core.distributed import (
    DistributedAllocator,
    _cluster_rows,
    _cluster_subproblem,
    _improve_cluster_task,
    _initial_pass_task,
    _pool_initializer,
    _subproblem_from_rows,
)
from repro.io import allocation_to_dict, dump_canonical
from repro.model.allocation import Allocation
from repro.audit.invariants import find_violations


def _manifest(allocation: Allocation) -> str:
    return dump_canonical(allocation_to_dict(allocation))


class TestClusterSubproblem:
    def test_extracts_only_bound_clients(self, generated_20, solver_config):
        result = ResourceAllocator(solver_config).solve(generated_20)
        cluster_id = generated_20.cluster_ids()[0]
        sub_system, sub_allocation = _cluster_subproblem(
            generated_20, result.allocation, cluster_id
        )
        expected = set(result.allocation.clients_in_cluster(cluster_id))
        assert {c.client_id for c in sub_system.clients} == expected
        assert sub_system.num_clusters == 1
        for cid in expected:
            assert sub_allocation.cluster_of[cid] == cluster_id

    def test_subproblem_allocation_feasible(self, generated_20, solver_config):
        result = ResourceAllocator(solver_config).solve(generated_20)
        for cluster_id in generated_20.cluster_ids():
            sub_system, sub_allocation = _cluster_subproblem(
                generated_20, result.allocation, cluster_id
            )
            assert (
                find_violations(sub_system, sub_allocation, require_all_served=False)
                == []
            )


class TestDistributedAllocator:
    def test_produces_feasible_solution(self, generated_20):
        config = SolverConfig(seed=1, num_workers=2)
        result = DistributedAllocator(config).solve(generated_20)
        assert result.breakdown.feasible

    def test_quality_comparable_to_sequential(self, generated_20):
        config = SolverConfig(seed=1, num_workers=2)
        distributed = DistributedAllocator(config).solve(generated_20)
        sequential = ResourceAllocator(SolverConfig(seed=1)).solve(generated_20)
        # Same class of solution: within 15% of each other.
        assert distributed.profit >= sequential.profit * 0.85

    def test_all_clients_served(self, generated_20):
        config = SolverConfig(seed=1, num_workers=2)
        result = DistributedAllocator(config).solve(generated_20)
        for cid in generated_20.client_ids():
            assert result.allocation.total_alpha(cid) == pytest.approx(
                1.0, abs=1e-6
            )


class TestPersistentPool:
    """The initializer-shipped pool must change dispatch cost, not results."""

    def test_row_payload_rebuilds_reference_subproblem(
        self, generated_20, solver_config
    ):
        result = ResourceAllocator(solver_config).solve(generated_20)
        for cluster_id in generated_20.cluster_ids():
            ref_system, ref_allocation = _cluster_subproblem(
                generated_20, result.allocation, cluster_id
            )
            rows = _cluster_rows(result.allocation, cluster_id)
            sub_system, sub_allocation = _subproblem_from_rows(
                generated_20, cluster_id, rows
            )
            assert {c.client_id for c in sub_system.clients} == {
                c.client_id for c in ref_system.clients
            }
            assert _manifest(sub_allocation) == _manifest(ref_allocation)

    def test_pool_dispatch_matches_inline_execution(self, generated_20):
        """Worker results equal the same task functions run in-process.

        The old implementation shipped (system, config) in every task
        tuple; the tasks themselves computed exactly what the new task
        functions compute against the initializer-installed globals, so
        equality here is the no-behavior-change regression gate.
        """
        config = SolverConfig(seed=2, num_workers=2)
        alloc = DistributedAllocator(config)
        _pool_initializer(generated_20, alloc._worker_config)

        seed_source = np.random.default_rng(config.seed)
        seeds = [
            int(seed_source.integers(0, 2**31 - 1))
            for _ in range(config.num_initial_solutions)
        ]
        passes = [_initial_pass_task(seed) for seed in seeds]
        _, initial = max(passes, key=lambda item: item[0])
        inline_improved = [
            _improve_cluster_task((kid, _cluster_rows(initial, kid)))
            for kid in generated_20.cluster_ids()
        ]

        with alloc:
            pool = alloc._acquire_pool(generated_20)
            pooled_passes = list(pool.map(_initial_pass_task, seeds))
            _, pooled_initial = max(pooled_passes, key=lambda item: item[0])
            pooled_improved = list(
                pool.map(
                    _improve_cluster_task,
                    [
                        (kid, _cluster_rows(pooled_initial, kid))
                        for kid in generated_20.cluster_ids()
                    ],
                )
            )
        assert _manifest(pooled_initial) == _manifest(initial)
        assert [_manifest(a) for a in pooled_improved] == [
            _manifest(a) for a in inline_improved
        ]

    def test_pool_reused_across_solves(self, generated_20):
        config = SolverConfig(seed=3, num_workers=2)
        with DistributedAllocator(config) as alloc:
            first = alloc.solve(generated_20)
            pool = alloc._pool
            second = alloc.solve(generated_20)
            assert alloc._pool is pool  # same warm executor
        assert alloc._pool is None  # context exit shut it down
        assert _manifest(first.allocation) == _manifest(second.allocation)

    def test_pool_reprimed_on_different_system(self, generated_20):
        from repro.workload.generator import generate_system

        other = generate_system(num_clients=16, seed=8)
        config = SolverConfig(seed=3, num_workers=2)
        with DistributedAllocator(config) as alloc:
            alloc.solve(generated_20)
            first_pool = alloc._pool
            result = alloc.solve(other)
            assert alloc._pool is not first_pool
        assert result.breakdown.feasible
