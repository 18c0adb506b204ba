"""Tests for constraint validation: every paper constraint has a trigger."""

import pytest

from repro.exceptions import InfeasibleAllocationError
from repro.model.allocation import Allocation
from repro.audit.invariants import find_violations, validate_allocation


def serve_fully(system, phi_p=0.5, phi_b=0.5):
    alloc = Allocation()
    for client in system.clients:
        alloc.assign_client(client.client_id, 0)
        alloc.set_entry(client.client_id, 0, 1.0, phi_p, phi_b)
    return alloc


class TestConstraint6And5:
    def test_unassigned_client_flagged(self, one_server_system):
        violations = find_violations(one_server_system, Allocation())
        assert any(v.constraint == "(6)" for v in violations)

    def test_unassigned_allowed_when_relaxed(self, one_server_system):
        violations = find_violations(
            one_server_system, Allocation(), require_all_served=False
        )
        assert violations == []

    def test_assigned_but_no_traffic_flagged(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        violations = find_violations(one_server_system, alloc)
        assert any(v.constraint == "(5)" for v in violations)

    def test_alpha_sum_must_be_one(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 0.7, 0.5, 0.5)
        violations = find_violations(one_server_system, alloc)
        assert any(v.constraint == "(5)" for v in violations)

    def test_entry_outside_cluster_flagged(self, two_cluster_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 2, 1.0, 0.5, 0.5)  # server 2 lives in cluster 1
        violations = find_violations(
            two_cluster_system, alloc, require_all_served=False
        )
        assert any(v.constraint == "(6)" for v in violations)

    def test_unknown_cluster_flagged(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 42)
        violations = find_violations(one_server_system, alloc)
        assert any("unknown cluster" in v.detail for v in violations)


class TestConstraint4:
    def test_processing_share_overflow(self, two_cluster_system):
        alloc = Allocation()
        for cid, phi in ((0, 0.6), (1, 0.6)):
            alloc.assign_client(cid, 0)
            alloc.set_entry(cid, 0, 1.0, phi, 0.3)
        violations = find_violations(
            two_cluster_system, alloc, require_all_served=False
        )
        assert any(
            v.constraint == "(4)" and "processing" in v.detail for v in violations
        )

    def test_bandwidth_share_overflow(self, two_cluster_system):
        alloc = Allocation()
        for cid, phi in ((0, 0.6), (1, 0.6)):
            alloc.assign_client(cid, 0)
            alloc.set_entry(cid, 0, 1.0, 0.3, phi)
        violations = find_violations(
            two_cluster_system, alloc, require_all_served=False
        )
        assert any(
            v.constraint == "(4)" and "bandwidth" in v.detail for v in violations
        )

    def test_background_counts_toward_budget(self, sku, gold_class):
        from repro.model.client import Client
        from repro.model.cluster import Cluster
        from repro.model.datacenter import CloudSystem
        from repro.model.server import Server

        server = Server(
            server_id=0, cluster_id=0, server_class=sku, background_processing=0.6
        )
        system = CloudSystem(
            clusters=[Cluster(cluster_id=0, servers=[server])],
            clients=[
                Client(
                    client_id=0,
                    utility_class=gold_class,
                    rate_agreed=1.0,
                    t_proc=0.5,
                    t_comm=0.5,
                    storage_req=0.5,
                )
            ],
        )
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 1.0, 0.5, 0.3)
        violations = find_violations(system, alloc)
        assert any(v.constraint == "(4)" for v in violations)


class TestConstraint8:
    def test_storage_overflow(self, sku, gold_class):
        from repro.model.client import Client
        from repro.model.cluster import Cluster
        from repro.model.datacenter import CloudSystem
        from repro.model.server import Server

        clients = [
            Client(
                client_id=i,
                utility_class=gold_class,
                rate_agreed=0.5,
                t_proc=0.5,
                t_comm=0.5,
                storage_req=3.0,  # two of these exceed cap_storage=4
            )
            for i in range(2)
        ]
        system = CloudSystem(
            clusters=[
                Cluster(
                    cluster_id=0,
                    servers=[Server(server_id=0, cluster_id=0, server_class=sku)],
                )
            ],
            clients=clients,
        )
        alloc = Allocation()
        for i in range(2):
            alloc.assign_client(i, 0)
            alloc.set_entry(i, 0, 1.0, 0.2, 0.2)
        violations = find_violations(system, alloc)
        assert any(v.constraint == "(8)" for v in violations)


class TestConstraint7:
    def test_unstable_processing_queue(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        # service rate = 0.1 * 4 / 0.5 = 0.8 < lambda = 1
        alloc.set_entry(0, 0, 1.0, 0.1, 0.9)
        violations = find_violations(one_server_system, alloc)
        assert any(
            v.constraint == "(7)" and "processing" in v.detail for v in violations
        )

    def test_unstable_communication_queue(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 1.0, 0.9, 0.1)
        violations = find_violations(one_server_system, alloc)
        assert any(
            v.constraint == "(7)" and "communication" in v.detail for v in violations
        )


class TestValidateAllocation:
    def test_passes_for_feasible(self, one_server_system):
        alloc = serve_fully(one_server_system)
        validate_allocation(one_server_system, alloc)  # no raise

    def test_raises_with_summary(self, one_server_system):
        with pytest.raises(InfeasibleAllocationError, match="violations"):
            validate_allocation(one_server_system, Allocation())

    def test_violation_str_includes_constraint(self, one_server_system):
        violations = find_violations(one_server_system, Allocation())
        assert str(violations[0]).startswith("[(")
