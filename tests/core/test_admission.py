"""Tests for admission control (the relaxed-constraint extension)."""

import pytest

from repro.config import SolverConfig
from repro.core.admission import admission_controlled_solve
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations
from repro.model.utility import ClippedLinearUtility, UtilityClass
from repro.model.client import Client
from repro.model.cluster import Cluster
from repro.model.datacenter import CloudSystem
from repro.model.server import Server, ServerClass
from repro.workload import generate_system


class TestAdmissionControlledSolve:
    def test_never_below_constrained_profit(self, generated_20, solver_config):
        result = admission_controlled_solve(generated_20, solver_config)
        assert result.profit >= result.baseline_profit - 1e-9
        assert result.admission_gain >= -1e-9

    def test_partition_is_complete(self, generated_20, solver_config):
        result = admission_controlled_solve(generated_20, solver_config)
        assert sorted(result.accepted + result.rejected) == generated_20.client_ids()

    def test_no_hard_violations(self, generated_20, solver_config):
        result = admission_controlled_solve(generated_20, solver_config)
        violations = find_violations(
            generated_20, result.allocation, require_all_served=False
        )
        assert violations == []

    def test_reported_profit_matches_evaluation(self, generated_20, solver_config):
        result = admission_controlled_solve(generated_20, solver_config)
        independent = evaluate_profit(
            generated_20, result.allocation, require_all_served=False
        )
        assert result.profit == pytest.approx(independent.total_profit)

    def test_rejects_money_losing_client(self):
        """A client whose max price cannot cover any server's P0 is rejected."""
        sku = ServerClass(
            index=0,
            cap_processing=4.0,
            cap_bandwidth=4.0,
            cap_storage=4.0,
            power_fixed=5.0,  # expensive hardware
            power_per_util=1.0,
        )
        good = UtilityClass(0, ClippedLinearUtility(base_value=20.0, slope=1.0))
        bad = UtilityClass(1, ClippedLinearUtility(base_value=0.5, slope=1.0))
        clusters = [
            Cluster(
                cluster_id=0,
                servers=[
                    Server(server_id=0, cluster_id=0, server_class=sku),
                    Server(server_id=1, cluster_id=0, server_class=sku),
                ],
            )
        ]
        clients = [
            Client(
                client_id=0,
                utility_class=good,
                rate_agreed=2.0,
                t_proc=0.5,
                t_comm=0.5,
                storage_req=3.5,
            ),
            Client(
                client_id=1,
                utility_class=bad,  # pays at most 0.5/request
                rate_agreed=1.0,
                t_proc=0.9,
                t_comm=0.9,
                storage_req=3.5,  # needs its own server (storage)
            ),
        ]
        system = CloudSystem(clusters=clusters, clients=clients)
        result = admission_controlled_solve(system, SolverConfig(seed=0))
        assert 1 in result.rejected
        assert 0 in result.accepted
        assert result.admission_gain > 0

    def test_keeps_everyone_when_all_profitable(self):
        system = generate_system(num_clients=8, seed=21)
        result = admission_controlled_solve(system, SolverConfig(seed=0))
        # The default economy makes serving profitable on average; at this
        # small size nobody should be worth rejecting.
        assert len(result.accepted) >= 7


class TestAdmissionDominanceProperty:
    """Property: dropping the serve-everyone constraint can only help.

    ``admission_controlled_solve`` must never return a profit below what
    the constrained ``ResourceAllocator.solve`` achieves on the same
    instance — across a seeded sweep of instance shapes, not just one
    hand-picked system.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_clients", [4, 9])
    def test_never_below_constrained_solver(self, seed, num_clients):
        from repro.core.allocator import ResourceAllocator

        system = generate_system(num_clients=num_clients, seed=100 + seed)
        config = SolverConfig(
            seed=seed,
            num_initial_solutions=1,
            alpha_granularity=5,
            max_improvement_rounds=3,
        )
        constrained = ResourceAllocator(config).solve(system)
        result = admission_controlled_solve(system, config)
        assert result.baseline_profit == pytest.approx(constrained.profit)
        assert result.profit >= constrained.profit - 1e-9
        # And the reported profit is real: the returned allocation earns it.
        independent = evaluate_profit(
            system, result.allocation, require_all_served=False
        )
        assert result.profit == pytest.approx(independent.total_profit)
