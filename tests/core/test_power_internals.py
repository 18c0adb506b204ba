"""Unit tests for the power-move building blocks."""

import math

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.initial import build_initial_solution
from repro.core.power import (
    _ActivationCandidate,
    _activation_candidates,
    _approximated_utility,
    _branch_response_costs,
    _incumbent_minimum_shares,
    _knapsack_select,
    force_client_into_cluster,
    merge_client_onto_server,
)
from repro.core.scoring import score
from repro.core.state import WorkingState
from repro.audit.invariants import find_violations


def candidate(value, units, client_id=0):
    return _ActivationCandidate(
        client_id=client_id,
        value=value,
        fraction=0.5,
        share_units=units,
        phi_p=0.3,
        phi_b=0.3,
    )


class TestKnapsackSelect:
    def test_takes_best_fit(self):
        chosen = _knapsack_select(
            [candidate(5.0, 6), candidate(4.0, 5), candidate(3.0, 5)], 10
        )
        # 4 + 3 (units 10) beats 5 alone (units 6).
        assert sorted(chosen) == [1, 2]

    def test_empty_candidates(self):
        assert _knapsack_select([], 10) == []

    def test_zero_capacity(self):
        assert _knapsack_select([candidate(5.0, 1)], 0) == []

    def test_oversized_item_skipped(self):
        chosen = _knapsack_select([candidate(10.0, 20), candidate(1.0, 5)], 10)
        assert chosen == [1]

    def test_all_fit(self):
        chosen = _knapsack_select([candidate(1.0, 2), candidate(2.0, 3)], 10)
        assert sorted(chosen) == [0, 1]


class TestBranchResponseCosts:
    def test_zero_without_entries(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        assert _branch_response_costs(state, 0) == 0.0

    def test_matches_hand_computation(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.5, 0.5)
        client = two_cluster_system.client(0)
        # rate_p = 0.5*4/0.5 = 4; rate_b = 0.5*4/0.4 = 5; lambda = 1.
        expected = 1.0 / (4 - 1) + 1.0 / (5 - 1)
        assert _branch_response_costs(state, 0) == pytest.approx(expected)

    def test_scale_reduces_cost(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.5, 0.5)
        full = _branch_response_costs(state, 0, scale=1.0)
        half = _branch_response_costs(state, 0, scale=0.5)
        assert half < full

    def test_unstable_is_inf(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.05, 0.5)  # proc rate 0.4 < lambda 1
        assert math.isinf(_branch_response_costs(state, 0))


class TestActivationCandidates:
    def test_congested_cluster_produces_candidates(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        for cid, phi in ((0, 0.3), (1, 0.3), (2, 0.38)):
            state.assign_client(cid, 0)
            state.set_entry(cid, 0, 1.0, phi, phi)
        candidates = _activation_candidates(state, 0, 1, config)
        assert candidates, "congestion on server 0 should motivate server 1"
        for cand in candidates:
            assert cand.value > 0
            assert 0 < cand.fraction <= 1
            assert cand.share_units >= 1

    def test_no_candidates_when_uncongested(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.9, 0.9)  # plenty of share, low delay
        candidates = _activation_candidates(state, 0, 1, config)
        # Moving traffic to a fresh server cannot buy much here.
        assert all(c.value < 1.0 for c in candidates)


class TestApproximatedUtility:
    def test_empty_server_is_pure_cost(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        value = _approximated_utility(state, 0)
        sku = two_cluster_system.server(0).server_class
        assert value == pytest.approx(-sku.power_fixed)

    def test_served_traffic_raises_utility(self, two_cluster_system):
        state = WorkingState(two_cluster_system)
        empty = _approximated_utility(state, 0)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.5, 0.5)
        busy = _approximated_utility(state, 0)
        assert busy > empty


class TestMergeAndForce:
    def test_incumbent_minimum_shares(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.5, 0.5)
        low_p, low_b = _incumbent_minimum_shares(state, 0, config)
        client = two_cluster_system.client(0)
        expected_p = (
            client.rate_predicted
            * client.t_proc
            / 4.0
            * config.stability_margin
            + config.min_share
        )
        assert low_p == pytest.approx(expected_p)
        assert low_b > 0

    def test_merge_squeezes_incumbent(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        state.set_entry(0, 0, 1.0, 0.95, 0.95)  # hog
        state.assign_client(1, 0)
        assert merge_client_onto_server(state, 1, 0, config)
        used_p, used_b = state.allocation.server_share_totals(0)
        assert used_p <= 1.0 + 1e-9
        assert used_b <= 1.0 + 1e-9
        assert find_violations(
            two_cluster_system, state.allocation, require_all_served=False
        ) == []

    def test_merge_respects_storage(self, two_cluster_system, gold_class):
        from repro.model.client import Client

        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        big = Client(
            client_id=50,
            utility_class=gold_class,
            rate_agreed=1.0,
            t_proc=0.5,
            t_comm=0.5,
            storage_req=99.0,
        )
        # big is not part of the system; simulate by checking storage gate:
        assert state.free_storage(0) < big.storage_req

    def test_merge_partial_fraction(self, two_cluster_system):
        config = SolverConfig(seed=0)
        state = WorkingState(two_cluster_system)
        state.assign_client(0, 0)
        assert merge_client_onto_server(state, 0, 0, config, traffic_fraction=0.5)
        entry = state.allocation.entry(0, 0)
        assert entry is not None and entry.alpha == pytest.approx(0.5)

    def test_force_splits_oversized_client(self, gold_class, sku):
        """A client too big for any single server is split across two."""
        from repro.model.client import Client
        from repro.model.cluster import Cluster
        from repro.model.datacenter import CloudSystem
        from repro.model.server import Server

        heavy = Client(
            client_id=0,
            utility_class=gold_class,
            rate_agreed=6.0,  # needs proc capacity 3.0 > what one phi=1 gives
            t_proc=0.9,
            t_comm=0.5,
            storage_req=0.5,
        )
        # One server: rate at phi=1 is 4/0.9 = 4.44 < 6 -> single-server
        # hosting is impossible; two servers at alpha=0.5 each are fine.
        system = CloudSystem(
            clusters=[
                Cluster(
                    cluster_id=0,
                    servers=[
                        Server(server_id=0, cluster_id=0, server_class=sku),
                        Server(server_id=1, cluster_id=0, server_class=sku),
                    ],
                )
            ],
            clients=[heavy],
        )
        config = SolverConfig(seed=0)
        state = WorkingState(system)
        assert force_client_into_cluster(state, 0, 0, config)
        entries = state.allocation.entries_of_client(0)
        assert len(entries) == 2
        assert state.allocation.total_alpha(0) == pytest.approx(1.0, abs=1e-6)
        assert score(system, state.allocation) > -math.inf

    def test_force_fails_when_hopeless(self, gold_class, sku):
        from repro.model.client import Client
        from repro.model.cluster import Cluster
        from repro.model.datacenter import CloudSystem
        from repro.model.server import Server

        impossible = Client(
            client_id=0,
            utility_class=gold_class,
            rate_agreed=50.0,  # no fleet this size can serve it
            t_proc=0.9,
            t_comm=0.9,
            storage_req=0.5,
        )
        system = CloudSystem(
            clusters=[
                Cluster(
                    cluster_id=0,
                    servers=[
                        Server(server_id=0, cluster_id=0, server_class=sku),
                        Server(server_id=1, cluster_id=0, server_class=sku),
                    ],
                )
            ],
            clients=[impossible],
        )
        state = WorkingState(system)
        assert not force_client_into_cluster(state, 0, 0, SolverConfig(seed=0))


class TestTxnShutdown:
    """The transactional rejection path must match snapshot/restore."""

    def _solved_state(self, use_txn: bool):
        from repro.core.allocator import ResourceAllocator
        from repro.workload import generate_system

        system = generate_system(num_clients=16, seed=11)
        config = SolverConfig(
            seed=2,
            num_initial_solutions=1,
            max_improvement_rounds=2,
            use_txn_shutdown=use_txn,
        )
        result = ResourceAllocator(config).solve(system)
        state = WorkingState(system, result.allocation)
        return system, config, state

    def test_accept_reject_decisions_match_snapshot_path(self):
        from repro.core.power import try_shutdown_server
        from repro.io import allocation_to_dict

        system, config, state_snap = self._solved_state(use_txn=False)
        _, txn_config, state_txn = self._solved_state(use_txn=True)
        victims = sorted(
            sid
            for sid in (s.server_id for s in system.servers())
            if state_snap.allocation.clients_on_server(sid)
        )
        for victim in victims:
            d_snap = try_shutdown_server(state_snap, victim, config)
            d_txn = try_shutdown_server(state_txn, victim, txn_config)
            # Same decision; the realized deltas agree to float tolerance
            # (undo replay is semantically exact, not bitwise).
            assert (d_snap > 0.0) == (d_txn > 0.0)
            assert d_txn == pytest.approx(d_snap, abs=1e-9)
        # Structurally identical end states (same assignments, same
        # client/server entry pairs); share values may differ by ulps
        # because undo replay is not bitwise.
        snap_dict = allocation_to_dict(state_snap.allocation)
        txn_dict = allocation_to_dict(state_txn.allocation)
        assert txn_dict["assignments"] == snap_dict["assignments"]
        assert [
            (e["client_id"], e["server_id"]) for e in txn_dict["entries"]
        ] == [(e["client_id"], e["server_id"]) for e in snap_dict["entries"]]

    def test_rejected_candidate_rolls_back_cleanly(self):
        from repro.core.scoring import score_state

        system, config, state = self._solved_state(use_txn=True)
        from repro.core.power import try_shutdown_server
        from repro.io import allocation_to_dict

        before_score = score_state(state)
        before_manifest = allocation_to_dict(state.allocation)
        rejected = 0
        for server in system.servers():
            sid = server.server_id
            if not state.allocation.clients_on_server(sid):
                continue
            if try_shutdown_server(state, sid, config) == 0.0:
                rejected += 1
                assert allocation_to_dict(state.allocation) == before_manifest
                assert score_state(state) == pytest.approx(
                    before_score, abs=1e-9
                )
                state.check_consistency()
            else:
                break
        assert rejected >= 1

    def test_solver_with_txn_shutdown_is_audit_clean(self):
        from repro.core.allocator import ResourceAllocator
        from repro.workload import generate_system

        system = generate_system(num_clients=16, seed=11)
        base = SolverConfig(
            seed=2, num_initial_solutions=1, max_improvement_rounds=3
        )
        snap = ResourceAllocator(base).solve(system)
        txn = ResourceAllocator(
            SolverConfig(
                seed=2,
                num_initial_solutions=1,
                max_improvement_rounds=3,
                use_txn_shutdown=True,
            )
        ).solve(system)
        assert find_violations(system, txn.allocation) == []
        # Semantically the same search; tiny divergence is possible once a
        # ulp-level difference flips a later accept-if-better gate, so the
        # bound is loose but the profits must be close.
        assert txn.profit == pytest.approx(snap.profit, rel=1e-6)
