"""Tests for the top-level ResourceAllocator and the initial constructor."""

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.core.initial import build_initial_solution, greedy_pass
from repro.core.local_search import cluster_reassignment_search
from repro.baselines.assignment import (
    build_allocation_for_assignment,
    random_assignment,
)
from repro.baselines.exhaustive import exhaustive_search
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations


class TestInitialSolution:
    def test_all_clients_placed_with_ample_capacity(self, generated_20, solver_config):
        rng = np.random.default_rng(0)
        report = build_initial_solution(generated_20, solver_config, rng)
        assert report.unplaced_clients == []
        for cid in generated_20.client_ids():
            assert report.best_allocation.total_alpha(cid) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_initial_solution_feasible(self, generated_20, solver_config):
        rng = np.random.default_rng(0)
        report = build_initial_solution(generated_20, solver_config, rng)
        assert (
            find_violations(
                generated_20, report.best_allocation, require_all_served=False
            )
            == []
        )

    def test_best_of_three_at_least_single_pass(self, generated_20):
        single = SolverConfig(seed=0, num_initial_solutions=1)
        triple = SolverConfig(seed=0, num_initial_solutions=3)
        rng1 = np.random.default_rng(7)
        rng3 = np.random.default_rng(7)
        report1 = build_initial_solution(generated_20, single, rng1)
        report3 = build_initial_solution(generated_20, triple, rng3)
        # Same seed: the triple run's first pass equals the single run.
        assert report3.best_profit >= report1.best_profit - 1e-9
        assert len(report3.pass_profits) == 3

    def test_greedy_pass_respects_starting_allocation(
        self, generated_20, solver_config
    ):
        rng = np.random.default_rng(0)
        first = greedy_pass(generated_20, solver_config, rng)
        again = greedy_pass(
            generated_20,
            solver_config,
            np.random.default_rng(1),
            starting_allocation=first.allocation,
        )
        # All clients already placed: second pass must keep them placed.
        for cid in generated_20.client_ids():
            assert again.allocation.total_alpha(cid) == pytest.approx(1.0, abs=1e-6)


class TestResourceAllocator:
    def test_solution_is_feasible(self, generated_20, solver_config):
        result = ResourceAllocator(solver_config).solve(generated_20)
        assert result.breakdown.feasible
        assert result.breakdown.violations == []

    def test_reported_profit_matches_independent_evaluation(
        self, generated_20, solver_config
    ):
        result = ResourceAllocator(solver_config).solve(generated_20)
        independent = evaluate_profit(generated_20, result.allocation)
        assert result.profit == pytest.approx(independent.total_profit)

    def test_profit_history_non_decreasing(self, generated_20, solver_config):
        result = ResourceAllocator(solver_config).solve(generated_20)
        history = result.profit_history
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9

    def test_improvement_beats_initial(self, generated_20, solver_config):
        result = ResourceAllocator(solver_config).solve(generated_20)
        assert result.profit >= result.initial_profit - 1e-9

    def test_deterministic_given_seed(self, small):
        a = ResourceAllocator(SolverConfig(seed=42)).solve(small)
        b = ResourceAllocator(SolverConfig(seed=42)).solve(small)
        assert a.profit == pytest.approx(b.profit)
        assert a.allocation == b.allocation

    def test_improve_external_allocation(self, small, solver_config):
        rng = np.random.default_rng(3)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        initial = evaluate_profit(
            small, state.allocation, require_all_served=False
        ).total_profit
        result = ResourceAllocator(solver_config).improve(small, state.allocation)
        assert result.profit >= initial - 1e-9
        assert result.breakdown.feasible

    def test_matches_exhaustive_on_tiny(self, tiny, solver_config):
        exhaustive = exhaustive_search(tiny, solver_config)
        result = ResourceAllocator(solver_config).solve(tiny)
        # Within the paper's 9% of the best-known solution.
        assert result.profit >= exhaustive.best_profit * 0.91 - 1e-9

    def test_runtime_recorded(self, small, fast_config):
        result = ResourceAllocator(fast_config).solve(small)
        assert result.runtime_seconds > 0.0

    def test_round_cap_respected(self, small):
        config = SolverConfig(seed=0, max_improvement_rounds=1)
        result = ResourceAllocator(config).solve(small)
        assert result.rounds <= 1


class TestClusterReassignmentSearch:
    def test_improves_random_allocation(self, small, solver_config):
        rng = np.random.default_rng(11)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        before = evaluate_profit(
            small, state.allocation, require_all_served=False
        ).total_profit
        improved = cluster_reassignment_search(
            small, state.allocation, solver_config, rng=np.random.default_rng(1)
        )
        after = evaluate_profit(
            small, improved, require_all_served=False
        ).total_profit
        assert after >= before - 1e-9

    def test_does_not_mutate_input(self, small, solver_config):
        rng = np.random.default_rng(11)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        original = state.allocation.copy()
        cluster_reassignment_search(
            small, state.allocation, solver_config, rng=np.random.default_rng(1)
        )
        assert state.allocation == original
