"""Tests for the improvement moves: shares, dispersion, power, scoring.

The overarching invariant (DESIGN.md #4): no move may decrease the
exactly evaluated profit, and no move may introduce a hard violation.
"""

import math

import pytest

from repro.config import SolverConfig
from repro.core.assign import apply_placement, best_placement
from repro.core.dispersion import adjust_dispersion_rates
from repro.core.initial import build_initial_solution
from repro.core.power import turn_off_servers, turn_on_servers
from repro.core.scoring import score
from repro.core.shares import adjust_resource_shares
from repro.core.state import WorkingState
from repro.model.allocation import Allocation
from repro.audit.invariants import find_violations

import numpy as np


def build_state(system, config):
    rng = np.random.default_rng(0)
    report = build_initial_solution(system, config, rng)
    return WorkingState(system, report.best_allocation)


class TestScoring:
    def test_feasible_scores_profit(self, two_cluster_system, solver_config):
        state = build_state(two_cluster_system, solver_config)
        value = score(two_cluster_system, state.allocation)
        assert math.isfinite(value)

    def test_violation_scores_neg_inf(self, two_cluster_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 1.0, 0.9, 0.9)
        alloc.assign_client(1, 0)
        alloc.set_entry(1, 0, 1.0, 0.9, 0.9)  # share overflow
        assert score(two_cluster_system, alloc) == -math.inf

    def test_partial_assignment_allowed(self, two_cluster_system):
        assert math.isfinite(score(two_cluster_system, Allocation()))


class TestAdjustResourceShares:
    def test_never_decreases_score(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        before = score(generated_20, state.allocation)
        for server in generated_20.servers():
            delta = adjust_resource_shares(state, server.server_id, solver_config)
            assert delta >= 0.0
        after = score(generated_20, state.allocation)
        assert after >= before - 1e-9

    def test_no_clients_is_noop(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        assert adjust_resource_shares(state, 0, solver_config) == 0.0

    def test_keeps_feasibility(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        for server in generated_20.servers():
            adjust_resource_shares(state, server.server_id, solver_config)
        violations = find_violations(
            generated_20, state.allocation, require_all_served=False
        )
        assert violations == []

    def test_balances_shares_toward_weights(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        # Two identical clients on one server with lopsided shares.
        for cid in (0, 1):
            state.assign_client(cid, 0)
        state.set_entry(0, 0, 1.0, 0.7, 0.7)
        state.set_entry(1, 0, 1.0, 0.25, 0.25)
        adjust_resource_shares(state, 0, solver_config)
        e0 = state.allocation.entry(0, 0)
        e1 = state.allocation.entry(1, 0)
        assert e0 is not None and e1 is not None
        # Client 1 has higher arrival rate (1.5 vs 1.0) so it needs at
        # least as much; lopsidedness must shrink.
        assert abs(e0.phi_p - e1.phi_p) < 0.45


class TestAdjustDispersionRates:
    def test_never_decreases_score(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        before = score(generated_20, state.allocation)
        for cid in generated_20.client_ids():
            delta = adjust_dispersion_rates(state, cid, solver_config)
            assert delta >= 0.0
        assert score(generated_20, state.allocation) >= before - 1e-9

    def test_single_branch_is_noop(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.5, 0.5)
        assert adjust_dispersion_rates(state, 0, solver_config) == 0.0

    def test_rebalances_lopsided_split(self, two_cluster_system, solver_config):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        # Same shares on both servers but 90/10 traffic: optimal is 50/50.
        state.set_entry(0, 0, 0.9, 0.5, 0.5)
        state.set_entry(0, 1, 0.1, 0.5, 0.5)
        delta = adjust_dispersion_rates(state, 0, solver_config)
        assert delta > 0.0
        e0 = state.allocation.entry(0, 0)
        e1 = state.allocation.entry(0, 1)
        assert e0 is not None and e1 is not None
        assert e0.alpha == pytest.approx(0.5, abs=0.05)
        assert e1.alpha == pytest.approx(0.5, abs=0.05)

    def test_alpha_still_sums_to_one(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        for cid in generated_20.client_ids():
            adjust_dispersion_rates(state, cid, solver_config)
            if state.allocation.entries_of_client(cid):
                assert state.allocation.total_alpha(cid) == pytest.approx(
                    1.0, abs=1e-6
                )


class TestPowerMoves:
    def test_turn_off_consolidates_overprovisioned(
        self, overprovisioned, solver_config
    ):
        state = build_state(overprovisioned, solver_config)
        active_before = len(state.active_server_ids())
        before = score(overprovisioned, state.allocation)
        blocked = set()
        for cluster_id in overprovisioned.cluster_ids():
            turn_off_servers(state, cluster_id, solver_config, blocked)
        after = score(overprovisioned, state.allocation)
        assert after >= before - 1e-9
        assert len(state.active_server_ids()) <= active_before

    def test_turn_off_keeps_everyone_served(self, overprovisioned, solver_config):
        state = build_state(overprovisioned, solver_config)
        served_before = {
            cid
            for cid in overprovisioned.client_ids()
            if state.allocation.entries_of_client(cid)
        }
        blocked = set()
        for cluster_id in overprovisioned.cluster_ids():
            turn_off_servers(state, cluster_id, solver_config, blocked)
        for cid in served_before:
            assert state.allocation.entries_of_client(cid)
            assert state.allocation.total_alpha(cid) == pytest.approx(1.0, abs=1e-6)

    def test_turn_off_records_blocked(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        blocked = set()
        for cluster_id in generated_20.cluster_ids():
            turn_off_servers(state, cluster_id, solver_config, blocked)
        # Rejected candidates (if any) are remembered for later rounds.
        assert all(isinstance(sid, int) for sid in blocked)

    def test_turn_on_never_decreases_score(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        before = score(generated_20, state.allocation)
        for cluster_id in generated_20.cluster_ids():
            delta = turn_on_servers(state, cluster_id, solver_config)
            assert delta >= 0.0
        assert score(generated_20, state.allocation) >= before - 1e-9

    def test_turn_on_helps_congested_cluster(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        # Cram all three clients onto server 0; server 1 stays off.
        for cid in (0, 1, 2):
            state.assign_client(cid, 0)
        state.set_entry(0, 0, 1.0, 0.30, 0.30)
        state.set_entry(1, 0, 1.0, 0.30, 0.30)
        state.set_entry(2, 0, 1.0, 0.38, 0.38)
        before = score(two_cluster_system, state.allocation)
        delta = turn_on_servers(state, 0, config)
        after = score(two_cluster_system, state.allocation)
        assert after >= before - 1e-9
        assert delta >= 0.0

    def test_moves_keep_feasibility(self, generated_20, solver_config):
        state = build_state(generated_20, solver_config)
        blocked = set()
        for cluster_id in generated_20.cluster_ids():
            turn_on_servers(state, cluster_id, solver_config)
            turn_off_servers(state, cluster_id, solver_config, blocked)
        violations = find_violations(
            generated_20, state.allocation, require_all_served=False
        )
        assert violations == []
