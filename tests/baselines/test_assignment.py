"""Tests for the shared assignment-to-allocation builder."""

import numpy as np
import pytest

from repro.baselines.assignment import (
    build_allocation_for_assignment,
    random_assignment,
)
from repro.exceptions import SolverError
from repro.audit.invariants import find_violations


class TestRandomAssignment:
    def test_covers_all_clients(self, small):
        rng = np.random.default_rng(0)
        assignment = random_assignment(small, rng)
        assert set(assignment) == set(small.client_ids())
        assert set(assignment.values()) <= set(small.cluster_ids())

    def test_deterministic_for_seed(self, small):
        a = random_assignment(small, np.random.default_rng(5))
        b = random_assignment(small, np.random.default_rng(5))
        assert a == b


class TestBuildAllocation:
    def test_respects_assignment(self, small, solver_config):
        rng = np.random.default_rng(1)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        for cid, kid in assignment.items():
            assert state.allocation.cluster_of[cid] == kid

    def test_result_has_no_hard_violations(self, small, solver_config):
        rng = np.random.default_rng(1)
        assignment = random_assignment(small, rng)
        state = build_allocation_for_assignment(small, assignment, solver_config)
        assert (
            find_violations(small, state.allocation, require_all_served=False) == []
        )

    def test_unknown_client_rejected(self, small, solver_config):
        with pytest.raises(SolverError):
            build_allocation_for_assignment(small, {999: 0}, solver_config)

    def test_polish_does_not_hurt(self, small, solver_config):
        from repro.model.profit import evaluate_profit

        rng = np.random.default_rng(1)
        assignment = random_assignment(small, rng)
        raw = build_allocation_for_assignment(
            small, assignment, solver_config, polish=False
        )
        polished = build_allocation_for_assignment(
            small, assignment, solver_config, polish=True
        )
        raw_profit = evaluate_profit(
            small, raw.allocation, require_all_served=False
        ).total_profit
        polished_profit = evaluate_profit(
            small, polished.allocation, require_all_served=False
        ).total_profit
        assert polished_profit >= raw_profit - 1e-9

    def test_custom_order_is_honoured(self, small, solver_config):
        assignment = {cid: small.cluster_ids()[0] for cid in small.client_ids()}
        order = list(reversed(small.client_ids()))
        state = build_allocation_for_assignment(
            small, assignment, solver_config, order=order, polish=False
        )
        # Later clients in the order see less capacity; all must still be
        # bound to the requested cluster.
        for cid in small.client_ids():
            assert state.allocation.cluster_of[cid] == small.cluster_ids()[0]
