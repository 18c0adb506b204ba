"""Tests for the Proportional Share baselines."""

import pytest

from repro.baselines.proportional_share import (
    modified_proportional_share,
    original_proportional_share,
)
from repro.core.allocator import ResourceAllocator
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations


class TestModifiedPS:
    def test_no_hard_violations(self, generated_20, solver_config):
        allocation = modified_proportional_share(generated_20, solver_config)
        assert (
            find_violations(generated_20, allocation, require_all_served=False)
            == []
        )

    def test_serves_most_clients(self, generated_20, solver_config):
        allocation = modified_proportional_share(generated_20, solver_config)
        breakdown = evaluate_profit(
            generated_20, allocation, require_all_served=False
        )
        served = sum(1 for c in breakdown.clients.values() if c.served)
        assert served >= generated_20.num_clients * 0.7

    def test_served_clients_fully_dispatched(self, generated_20, solver_config):
        allocation = modified_proportional_share(generated_20, solver_config)
        for cid in generated_20.client_ids():
            if allocation.entries_of_client(cid):
                assert allocation.total_alpha(cid) == pytest.approx(1.0, abs=1e-6)

    def test_all_clients_assigned_somewhere(self, generated_20, solver_config):
        allocation = modified_proportional_share(generated_20, solver_config)
        for cid in generated_20.client_ids():
            assert allocation.is_assigned(cid)

    def test_below_the_heuristic(self, generated_20, solver_config):
        """The paper's headline comparison: PS is not competitive."""
        ps_profit = evaluate_profit(
            generated_20,
            modified_proportional_share(generated_20, solver_config),
            require_all_served=False,
        ).total_profit
        heuristic = ResourceAllocator(solver_config).solve(generated_20).profit
        assert heuristic > ps_profit

    def test_deterministic(self, generated_20, solver_config):
        a = modified_proportional_share(generated_20, solver_config)
        b = modified_proportional_share(generated_20, solver_config)
        assert a == b


class TestOriginalPS:
    def test_no_share_overflow(self, generated_20, solver_config):
        allocation = original_proportional_share(generated_20, solver_config)
        violations = find_violations(
            generated_20, allocation, require_all_served=False
        )
        assert [v for v in violations if v.constraint == "(4)"] == []

    def test_spreads_across_servers(self, generated_20, solver_config):
        allocation = original_proportional_share(generated_20, solver_config)
        spread = [
            len(allocation.entries_of_client(cid))
            for cid in generated_20.client_ids()
            if allocation.entries_of_client(cid)
        ]
        assert spread and max(spread) > 1  # the original PS fans out

    def test_worse_than_modified(self, generated_20, solver_config):
        """The paper modified PS because the original performs worse."""
        original = evaluate_profit(
            generated_20,
            original_proportional_share(generated_20, solver_config),
            require_all_served=False,
        ).total_profit
        modified = evaluate_profit(
            generated_20,
            modified_proportional_share(generated_20, solver_config),
            require_all_served=False,
        ).total_profit
        assert modified >= original
