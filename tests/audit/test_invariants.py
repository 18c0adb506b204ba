"""The invariant pack: named predicates, rich violations, shared constants."""

import pytest

from repro.audit import invariants
from repro.audit.invariants import (
    ACCEPT_TOLERANCE,
    AGREEMENT_TOLERANCE,
    FEASIBILITY_TOLERANCE,
    INVARIANTS,
    NEGLIGIBLE_ALPHA,
    Violation,
    check_cluster_assignment,
    check_no_entries_on_servers,
    check_queue_stability,
    check_share_capacity,
    check_storage_capacity,
    check_traffic_conservation,
    find_violations,
    validate_allocation,
)
from repro.exceptions import InfeasibleAllocationError
from repro.model.allocation import Allocation


def serve_fully(system, phi_p=0.5, phi_b=0.5):
    alloc = Allocation()
    for client in system.clients:
        alloc.assign_client(client.client_id, 0)
        alloc.set_entry(client.client_id, 0, 1.0, phi_p, phi_b)
    return alloc


class TestRegistry:
    def test_every_paper_constraint_has_a_named_predicate(self):
        names = [name for name, _ in INVARIANTS]
        assert names == [
            "cluster-assignment",
            "traffic-conservation",
            "share-capacity",
            "storage-capacity",
            "queue-stability",
        ]

    def test_find_violations_composes_the_registry(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 0.7, 0.01, 0.01)  # bad alpha sum + unstable
        composed = find_violations(one_server_system, alloc)
        by_hand = []
        for _name, predicate in INVARIANTS:
            by_hand.extend(predicate(one_server_system, alloc, True, 1e-6))
        assert composed == by_hand
        assert {v.constraint for v in composed} == {"(5)", "(7)"}


class TestNamedPredicates:
    def test_cluster_assignment_flags_unassigned(self, one_server_system):
        found = check_cluster_assignment(one_server_system, Allocation())
        assert [v.constraint for v in found] == ["(6)"]
        assert found[0].client_id == 0

    def test_cluster_assignment_flags_foreign_entry(self, two_cluster_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 2, 1.0, 0.5, 0.5)  # server 2 lives in cluster 1
        found = check_cluster_assignment(
            two_cluster_system, alloc, require_all_served=False
        )
        assert found and found[0].server_id == 2 and found[0].cluster_id == 0

    def test_traffic_conservation_reports_signed_slack(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 0.75, 0.5, 0.5)
        found = check_traffic_conservation(one_server_system, alloc)
        assert len(found) == 1
        assert found[0].slack == pytest.approx(0.25)

    def test_traffic_conservation_skips_unknown_cluster(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 42)
        # the bogus binding is cluster-assignment's report, not (5)'s
        assert check_traffic_conservation(one_server_system, alloc) == []
        assert any(
            "unknown cluster" in v.detail
            for v in check_cluster_assignment(one_server_system, alloc)
        )

    def test_share_capacity_negative_slack_when_violated(self, two_cluster_system):
        alloc = Allocation()
        for cid, phi in ((0, 0.6), (1, 0.6)):
            alloc.assign_client(cid, 0)
            alloc.set_entry(cid, 0, 1.0, phi, 0.3)
        found = check_share_capacity(two_cluster_system, alloc)
        assert len(found) == 1
        assert found[0].server_id == 0
        assert found[0].slack == pytest.approx(-0.2)

    def test_storage_capacity_counts_only_served_entries(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 0.0, 0.0, 0.0)  # zero traffic: no disk held
        assert check_storage_capacity(one_server_system, alloc) == []

    def test_queue_stability_slack_is_mu_minus_lambda(self, one_server_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        # mu_p = 0.1 * 4 / 0.5 = 0.8 < lambda = 1
        alloc.set_entry(0, 0, 1.0, 0.1, 0.9)
        found = check_queue_stability(one_server_system, alloc)
        assert [v.constraint for v in found] == ["(7)"]
        assert found[0].slack == pytest.approx(0.8 - 1.0)

    def test_no_entries_on_servers(self, two_cluster_system):
        alloc = Allocation()
        alloc.assign_client(0, 0)
        alloc.set_entry(0, 0, 0.5, 0.2, 0.2)
        alloc.set_entry(0, 1, 0.5, 0.2, 0.2)
        found = check_no_entries_on_servers(alloc, {1})
        assert len(found) == 1
        assert (found[0].client_id, found[0].server_id) == (0, 1)
        assert check_no_entries_on_servers(alloc, set()) == []


class TestValidateAllocation:
    def test_passes_for_feasible(self, one_server_system):
        validate_allocation(one_server_system, serve_fully(one_server_system))

    def test_error_carries_structured_violations(self, one_server_system):
        with pytest.raises(InfeasibleAllocationError) as excinfo:
            validate_allocation(one_server_system, Allocation())
        assert excinfo.value.violations
        assert all(isinstance(v, Violation) for v in excinfo.value.violations)

    def test_plain_error_has_empty_violations(self):
        assert InfeasibleAllocationError("boom").violations == []


class TestUnifiedConstants:
    """Satellite: the scattered epsilons now come from one module."""

    def test_model_package_reexports_invariants(self):
        import repro.model

        assert repro.model.find_violations is find_violations
        assert repro.model.Violation is Violation

    def test_delta_scorer_agreement_bound_is_shared(self):
        from repro.core import delta

        assert delta.AGREEMENT_TOLERANCE == AGREEMENT_TOLERANCE

    def test_dispersion_negligible_alpha_is_shared(self):
        from repro.core import dispersion

        assert dispersion._NEGLIGIBLE_ALPHA == NEGLIGIBLE_ALPHA

    def test_tolerance_ordering_is_sane(self):
        # gate << agreement << feasibility: an accepted move's improvement
        # must be resolvable by every scorer, and scorer agreement must be
        # finer than the feasibility slack it polices.
        assert ACCEPT_TOLERANCE < AGREEMENT_TOLERANCE < FEASIBILITY_TOLERANCE

    def test_core_modules_import_the_audit_gate(self):
        from repro.core import admission, local_search, power, repair, shares

        for module in (admission, local_search, power, repair, shares):
            assert module.ACCEPT_TOLERANCE == ACCEPT_TOLERANCE
