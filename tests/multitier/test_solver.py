"""Tests for the multi-tier allocator and evaluator."""

import math

import pytest

from repro.config import SolverConfig
from repro.audit.invariants import find_violations
from repro.multitier import (
    MultiTierAllocator,
    evaluate_multitier_profit,
    expand_to_flat,
    generate_multitier_system,
)


@pytest.fixture(scope="module")
def solved():
    system = generate_multitier_system(num_applications=6, seed=5)
    result = MultiTierAllocator(SolverConfig(seed=1)).solve(system)
    return system, result


class TestMultiTierAllocator:
    def test_feasible(self, solved):
        system, result = solved
        assert result.breakdown.feasible, [
            str(v) for v in result.breakdown.violations
        ]

    def test_all_applications_served(self, solved):
        _, result = solved
        assert all(o.served for o in result.breakdown.applications.values())

    def test_colocation_holds(self, solved):
        _, result = solved
        for outcome in result.breakdown.applications.values():
            assert outcome.colocated
            assert outcome.cluster_id is not None

    def test_flat_resource_constraints_hold(self, solved):
        _, result = solved
        violations = find_violations(
            result.expansion.flat_system,
            result.allocation,
            require_all_served=False,
        )
        assert violations == []

    def test_profit_history_non_decreasing(self, solved):
        _, result = solved
        for earlier, later in zip(result.profit_history, result.profit_history[1:]):
            assert later >= earlier - 1e-9

    def test_reported_profit_matches_evaluator(self, solved):
        system, result = solved
        independent = evaluate_multitier_profit(
            system, result.expansion, result.allocation
        )
        assert result.profit == pytest.approx(independent.total_profit)

    def test_deterministic(self):
        system = generate_multitier_system(num_applications=4, seed=7)
        a = MultiTierAllocator(SolverConfig(seed=3)).solve(system)
        b = MultiTierAllocator(SolverConfig(seed=3)).solve(system)
        assert a.profit == pytest.approx(b.profit)


class TestMultiTierEvaluator:
    def test_response_is_sum_of_tiers(self, solved):
        system, result = solved
        for outcome in result.breakdown.applications.values():
            assert outcome.response_time == pytest.approx(
                sum(outcome.tier_response_times)
            )

    def test_unserved_app_flagged(self, solved):
        system, result = solved
        broken = result.allocation.copy()
        victim_app = system.applications[0]
        first_tier = result.expansion.tier_clients[victim_app.app_id][0]
        broken.unassign_client(first_tier)
        breakdown = evaluate_multitier_profit(system, result.expansion, broken)
        assert not breakdown.feasible
        outcome = breakdown.applications[victim_app.app_id]
        assert not outcome.served
        assert outcome.revenue == 0.0
        assert math.isinf(outcome.response_time)

    def test_colocation_violation_flagged(self, solved):
        system, result = solved
        expansion = result.expansion
        flat = expansion.flat_system
        # Find an app and move one tier's entry to another cluster.
        for app in system.applications:
            ids = expansion.tier_clients[app.app_id]
            if len(ids) < 2:
                continue
            moved = result.allocation.copy()
            victim = ids[0]
            current_cluster = moved.cluster_of[victim]
            other_cluster = next(
                k for k in flat.cluster_ids() if k != current_cluster
            )
            target_server = flat.cluster(other_cluster).server_ids()[0]
            moved.assign_client(victim, other_cluster)
            moved.set_entry(victim, target_server, 1.0, 0.3, 0.3)
            breakdown = evaluate_multitier_profit(system, expansion, moved)
            assert any("span clusters" in v.detail for v in breakdown.violations)
            return
        pytest.skip("no multi-tier app in the fixture")

    def test_summary_mentions_served_count(self, solved):
        system, result = solved
        assert "apps served" in result.breakdown.summary()


class TestEconomics:
    def test_multitier_profit_positive_by_default(self, solved):
        _, result = solved
        assert result.profit > 0

    def test_single_tier_app_matches_flat_semantics(self):
        """A 1-tier application is exactly a flat client."""
        system = generate_multitier_system(
            num_applications=5, seed=11, min_tiers=1, max_tiers=1
        )
        result = MultiTierAllocator(SolverConfig(seed=1)).solve(system)
        expansion = result.expansion
        for app in system.applications:
            outcome = result.breakdown.applications[app.app_id]
            assert len(expansion.tier_clients[app.app_id]) == 1
            assert outcome.served
