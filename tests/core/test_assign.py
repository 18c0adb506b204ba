"""Tests for Assign_Distribute."""

import pytest

from repro.config import SolverConfig
from repro.core.assign import (
    apply_placement,
    assign_distribute,
    best_placement,
)
from repro.core.state import WorkingState
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations


class TestAssignDistribute:
    def test_places_full_traffic(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        placement = assign_distribute(state, client, 0, solver_config)
        assert placement is not None
        assert sum(a for a, _, _ in placement.entries.values()) == pytest.approx(1.0)

    def test_applied_placement_is_feasible(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        placement = assign_distribute(state, client, 0, solver_config)
        assert placement is not None
        apply_placement(state, placement)
        violations = find_violations(
            two_cluster_system, state.allocation, require_all_served=False
        )
        assert violations == []

    def test_respects_free_capacity(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        # Pre-commit most of both servers in cluster 0.
        state.assign_client(2, 0)
        state.set_entry(2, 0, 0.5, 0.9, 0.9)
        state.set_entry(2, 1, 0.5, 0.9, 0.9)
        client = two_cluster_system.client(0)
        placement = assign_distribute(state, client, 0, solver_config)
        if placement is not None:
            apply_placement(state, placement)
            for sid in (0, 1):
                used_p, used_b = state.allocation.server_share_totals(sid)
                assert used_p <= 1.0 + 1e-9
                assert used_b <= 1.0 + 1e-9

    def test_respects_storage(self, two_cluster_system, gold_class, solver_config):
        state = WorkingState(two_cluster_system)
        # Exhaust storage on both cluster-0 servers (cap 4, entries cost 0.5).
        from repro.model.client import Client
        big = Client(
            client_id=99,
            utility_class=gold_class,
            rate_agreed=0.5,
            t_proc=0.5,
            t_comm=0.5,
            storage_req=10.0,  # bigger than any server's disk
        )
        placement = assign_distribute(state, big, 0, solver_config)
        assert placement is None

    def test_excluded_servers_skipped(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        placement = assign_distribute(
            state, client, 0, solver_config, excluded_server_ids={0}
        )
        assert placement is not None
        assert 0 not in placement.entries

    def test_all_servers_excluded(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        placement = assign_distribute(
            state, client, 0, solver_config, excluded_server_ids={0, 1}
        )
        assert placement is None

    def test_estimate_tracks_actual_profit_delta(
        self, two_cluster_system, solver_config
    ):
        """The linear-surrogate estimate must correlate with real profit."""
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        before = evaluate_profit(
            two_cluster_system, state.allocation, require_all_served=False
        ).total_profit
        placement = assign_distribute(state, client, 0, solver_config)
        assert placement is not None
        apply_placement(state, placement)
        after = evaluate_profit(
            two_cluster_system, state.allocation, require_all_served=False
        ).total_profit
        actual_delta = after - before
        # Same sign and same ballpark (the estimate ignores clipping).
        assert actual_delta > 0
        assert placement.estimated_profit == pytest.approx(actual_delta, rel=0.5)

    def test_activation_cost_discourages_second_server(
        self, two_cluster_system
    ):
        """A light client should be packed onto one server, not split."""
        config = SolverConfig(seed=0, alpha_granularity=4)
        state = WorkingState(two_cluster_system)
        client = two_cluster_system.client(0)
        placement = assign_distribute(state, client, 0, config)
        assert placement is not None
        assert len(placement.entries) == 1


class TestBestPlacement:
    def test_picks_some_cluster(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        placement = best_placement(
            state, two_cluster_system.client(0), solver_config
        )
        assert placement is not None
        assert placement.cluster_id in (0, 1)

    def test_prefers_emptier_cluster(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        # Saturate cluster 0.
        state.assign_client(2, 0)
        state.set_entry(2, 0, 0.5, 0.95, 0.95)
        state.set_entry(2, 1, 0.5, 0.95, 0.95)
        placement = best_placement(
            state, two_cluster_system.client(0), solver_config
        )
        assert placement is not None
        assert placement.cluster_id == 1

    def test_restricted_cluster_list(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        placement = best_placement(
            state, two_cluster_system.client(0), solver_config, cluster_ids=[1]
        )
        assert placement is not None
        assert placement.cluster_id == 1
