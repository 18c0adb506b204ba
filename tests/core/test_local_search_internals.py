"""Focused tests for the reassignment pass and straggler handling."""

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.core.local_search import reassignment_pass
from repro.core.scoring import score
from repro.core.state import WorkingState
from repro.baselines.assignment import (
    build_allocation_for_assignment,
    random_assignment,
)
from repro.audit.invariants import find_violations
from repro.workload import generate_system
from repro.workload.generator import WorkloadConfig


class TestReassignmentPass:
    def test_delta_matches_score_change(self, small, solver_config):
        rng = np.random.default_rng(2)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        before = score(small, state.allocation)
        delta = reassignment_pass(state, solver_config, np.random.default_rng(1))
        after = score(small, state.allocation)
        assert after - before == pytest.approx(delta, abs=1e-9)

    def test_keeps_feasibility(self, small, solver_config):
        rng = np.random.default_rng(4)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        reassignment_pass(state, solver_config, np.random.default_rng(1))
        assert (
            find_violations(small, state.allocation, require_all_served=False)
            == []
        )

    def test_idempotent_at_local_optimum(self, small, solver_config):
        """Once no move helps, repeating the pass changes nothing."""
        rng = np.random.default_rng(5)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        for _ in range(6):
            delta = reassignment_pass(state, solver_config, np.random.default_rng(1))
            if delta <= 1e-9:
                break
        settled = state.snapshot()
        final_delta = reassignment_pass(
            state, solver_config, np.random.default_rng(1)
        )
        assert final_delta <= 1e-9
        assert state.allocation == settled


class TestStragglerHandling:
    def make_tight_system(self):
        """Tight capacity: the greedy pass usually strands someone."""
        config = WorkloadConfig(
            num_clusters=2,
            num_server_classes=3,
            num_utility_classes=2,
            servers_per_cluster=3,
        )
        return generate_system(num_clients=12, seed=7, config=config)

    def test_solver_serves_everyone_or_reports_honestly(self):
        system = self.make_tight_system()
        result = ResourceAllocator(SolverConfig(seed=0)).solve(system)
        served = sum(
            1
            for cid in system.client_ids()
            if result.allocation.entries_of_client(cid)
        )
        if served == system.num_clients:
            assert result.breakdown.feasible
        else:
            # Honesty: the breakdown must flag exactly the unserved ones.
            unserved = {
                v.subject
                for v in result.breakdown.violations
                if v.constraint == "(6)"
            }
            assert len(unserved) == system.num_clients - served

    def test_no_resource_violations_even_when_tight(self):
        system = self.make_tight_system()
        result = ResourceAllocator(SolverConfig(seed=0)).solve(system)
        hard = [
            v
            for v in find_violations(
                system, result.allocation, require_all_served=False
            )
        ]
        assert hard == []
