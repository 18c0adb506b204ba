"""End-to-end tests with non-empty cluster initial states.

Section V.A: "this initial state can be a result of the resources
allocated to the previously assigned and running clients ... or other
applications that are not related to the cloud computing system."
These tests run the full solver on instances where a share of every
server is already spoken for.
"""

import pytest

from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations
from repro.workload import generate_system
from repro.workload.generator import WorkloadConfig


@pytest.fixture(scope="module")
def loaded_system():
    return generate_system(
        num_clients=12,
        seed=19,
        config=WorkloadConfig(background_load_fraction=0.6),
    )


@pytest.fixture(scope="module")
def solved(loaded_system):
    return ResourceAllocator(SolverConfig(seed=1)).solve(loaded_system)


class TestSolvingWithBackgroundLoad:
    def test_no_hard_violations(self, loaded_system, solved):
        assert (
            find_violations(
                loaded_system, solved.allocation, require_all_served=False
            )
            == []
        )

    def test_budgets_respect_background(self, loaded_system, solved):
        for server in loaded_system.servers():
            used_p, used_b = solved.allocation.server_share_totals(
                server.server_id
            )
            assert used_p + server.background_processing <= 1.0 + 1e-6
            assert used_b + server.background_bandwidth <= 1.0 + 1e-6

    def test_background_servers_always_cost(self, loaded_system, solved):
        breakdown = evaluate_profit(
            loaded_system, solved.allocation, require_all_served=False
        )
        for server in loaded_system.servers():
            if server.has_background_load:
                assert breakdown.servers[server.server_id].is_on
                assert breakdown.servers[server.server_id].cost > 0

    def test_background_utilization_counted_in_cost(self, loaded_system):
        """An empty allocation still pays for the background load."""
        from repro.model.allocation import Allocation

        breakdown = evaluate_profit(
            loaded_system, Allocation(), require_all_served=False
        )
        expected = sum(
            s.server_class.power_fixed
            + s.server_class.power_per_util * s.background_processing
            for s in loaded_system.servers()
            if s.has_background_load
        )
        assert breakdown.total_cost == pytest.approx(expected)

    def test_profit_lower_than_clean_instance(self, loaded_system):
        """Background load consumes capacity: profit must not exceed the
        same instance without it."""
        clean = generate_system(
            num_clients=12,
            seed=19,
            config=WorkloadConfig(background_load_fraction=0.0),
        )
        loaded_result = ResourceAllocator(SolverConfig(seed=1)).solve(loaded_system)
        clean_result = ResourceAllocator(SolverConfig(seed=1)).solve(clean)
        # Same clients and hardware; only the pre-existing load differs
        # (note: the RNG consumes extra draws for background load, so the
        # instances differ slightly — compare with slack).
        assert loaded_result.profit <= clean_result.profit * 1.10
