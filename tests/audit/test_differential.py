"""Differential harness: four scoring paths, one truth."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import differential
from repro.audit.differential import (
    PATH_NAMES,
    audit_journal,
    audit_snapshot,
    run_differential,
    run_matrix,
)
from repro.config import SolverConfig
from repro.service.driver import (
    TraceDriverConfig,
    empty_copy,
    flatten_events,
    generate_epoch_events,
)
from repro.service.engine import AllocationService
from repro.service.journal import EventJournal
from repro.workload.generator import generate_system


class TestRunDifferential:
    def test_fixture_report_is_clean(self, differential_report):
        assert differential_report.ok, differential_report.summary()

    def test_all_four_paths_present(self, differential_report):
        assert tuple(sorted(differential_report.paths)) == tuple(sorted(PATH_NAMES))

    def test_paths_self_consistent_within_agreement(self, differential_report):
        for path in differential_report.paths.values():
            assert path.self_consistent, (
                f"{path.name}: reported {path.reported_profit!r} vs "
                f"recomputed {path.recomputed_profit!r}"
            )
            assert path.violations == []

    def test_scalar_and_vectorized_bit_identical(self, differential_report):
        scalar = differential_report.paths["scalar"]
        vectorized = differential_report.paths["vectorized"]
        assert scalar.reported_profit == vectorized.reported_profit
        assert scalar.allocation == vectorized.allocation

    def test_matrix_over_seeds(self, fast_audit_config):
        reports = run_matrix(
            seeds=range(3), num_clients=6, config=fast_audit_config
        )
        assert len(reports) == 3
        for report in reports:
            assert report.ok, f"seed {report.seed}:\n{report.summary()}"

    def test_disagreement_is_detected(self, differential_report):
        # force a fake drift: the report machinery must flag it
        differential_report.paths["delta"].reported_profit += 1.0
        assert not differential_report.paths["delta"].self_consistent


class TestDualBoundSanityLayer:
    def test_clean_run_stays_clean_with_dual_bound(self, fast_audit_config):
        system = generate_system(num_clients=6, seed=3)
        report = run_differential(
            system, config=fast_audit_config, seed=3, check_dual_bound=True
        )
        assert report.ok, report.summary()

    def test_injected_overreport_is_caught(self, fast_audit_config, monkeypatch):
        """An inflated reported profit must be flagged as *provably
        impossible* by the independent Lagrangian judge — a structured
        ``(dual-bound)`` violation, not merely a self-consistency miss."""
        system = generate_system(num_clients=6, seed=3)
        real_solve = differential._solve_path

        def inflated_solve(sys_, config):
            profit, allocation = real_solve(sys_, config)
            return profit + 1000.0, allocation

        monkeypatch.setattr(differential, "_solve_path", inflated_solve)
        report = run_differential(
            system, config=fast_audit_config, seed=3, check_dual_bound=True
        )
        assert not report.ok
        flagged = [
            violation
            for path in report.paths.values()
            for violation in path.violations
            if violation.constraint == "(dual-bound)"
        ]
        assert flagged, "the dual-bound layer missed an impossible profit"
        assert all(v.slack < 0 for v in flagged)

    def test_without_flag_overreport_only_trips_self_consistency(
        self, fast_audit_config, monkeypatch
    ):
        system = generate_system(num_clients=6, seed=3)
        real_solve = differential._solve_path

        def inflated_solve(sys_, config):
            profit, allocation = real_solve(sys_, config)
            return profit + 1000.0, allocation

        monkeypatch.setattr(differential, "_solve_path", inflated_solve)
        report = run_differential(system, config=fast_audit_config, seed=3)
        for path in report.paths.values():
            assert not any(
                violation.constraint == "(dual-bound)"
                for violation in path.violations
            )


def _traced_service(tmp_path, num_epochs=3, snapshot_at=None):
    system = generate_system(num_clients=8, seed=11)
    events = flatten_events(
        generate_epoch_events(
            system,
            TraceDriverConfig(
                pattern="random_walk",
                num_epochs=num_epochs,
                seed=12,
                churn_probability=0.3,
                failure_probability=0.3,
            ),
        )
    )
    journal_path = str(tmp_path / "events.journal")
    service = AllocationService(
        empty_copy(system),
        config=SolverConfig(seed=11),
        journal=EventJournal(journal_path),
    )
    mid_doc = None
    cut = snapshot_at if snapshot_at is not None else len(events)
    for index, event in enumerate(events):
        if index == cut:
            mid_doc = service.snapshot()
        service.apply(event)
    return service, mid_doc, journal_path


class TestSnapshotAudit:
    def test_live_snapshot_is_clean(self, tmp_path):
        service, _, _ = _traced_service(tmp_path)
        assert audit_snapshot(service.snapshot()) == []

    def test_tampered_profit_is_flagged(self, tmp_path):
        service, _, _ = _traced_service(tmp_path)
        doc = service.snapshot()
        doc["profit"] += 0.5
        problems = audit_snapshot(doc)
        assert any("disagrees" in p for p in problems)

    def test_tampered_alpha_is_flagged(self, tmp_path):
        service, _, _ = _traced_service(tmp_path)
        doc = service.snapshot()
        row = doc["allocation"]["entries"][0]
        row["alpha"] = row["alpha"] * 0.5
        problems = audit_snapshot(doc)
        assert problems  # traffic conservation and/or profit disagreement

    def test_stale_failed_row_is_flagged(self, tmp_path):
        service, _, _ = _traced_service(tmp_path)
        doc = service.snapshot()
        row = doc["allocation"]["entries"][0]
        doc["failed_servers"] = sorted(
            set(doc["failed_servers"]) | {row["server_id"]}
        )
        problems = audit_snapshot(doc)
        assert any("(3)" in p for p in problems)

    def test_snapshot_doc_round_trips_json(self, tmp_path):
        service, _, _ = _traced_service(tmp_path)
        doc = json.loads(json.dumps(service.snapshot()))
        assert audit_snapshot(doc) == []


class TestJournalAudit:
    def test_replay_with_audit_armed_is_clean(self, tmp_path):
        service, mid_doc, journal_path = _traced_service(tmp_path, snapshot_at=4)
        assert mid_doc is not None
        assert audit_journal(mid_doc, journal_path, config=SolverConfig(seed=11)) == []

    def test_corrupt_snapshot_fails_replay(self, tmp_path):
        service, mid_doc, journal_path = _traced_service(tmp_path, snapshot_at=4)
        mid_doc["profit"] += 1.0
        problems = audit_journal(mid_doc, journal_path, config=SolverConfig(seed=11))
        assert any("replay failed" in p for p in problems)


#: One step of state churn: a (possibly rejected) reassignment move, a
#: snapshot restore, or a canonicalization boundary — the three mutation
#: shapes the local search and the online service drive a WorkingState
#: through, and the three the curve store must be transparent across.
_interleaving_ops = st.lists(
    st.one_of(
        st.tuples(st.just("move"), st.integers(0, 7), st.booleans()),
        st.just(("restore",)),
        st.just(("canonicalize",)),
    ),
    max_size=10,
)


class TestCacheTransparency:
    """The curve store must be invisible: production == scalar oracle."""

    @staticmethod
    def _drive(system, config, ops):
        """Apply one op interleaving to a fresh state; return it."""
        from repro.core.assign import apply_placement, best_placement
        from repro.core.state import WorkingState

        state = WorkingState(system)
        start = state.snapshot()
        for op in ops:
            if op[0] == "move":
                _, index, commit = op
                client = system.clients[index % len(system.clients)]
                state.begin_txn()
                state.unassign_client(client.client_id)
                placement = best_placement(state, client, config)
                if placement is not None:
                    apply_placement(state, placement)
                if commit and placement is not None:
                    state.commit_txn()
                else:
                    state.rollback_txn()
            elif op[0] == "restore":
                state.restore(start)
            else:
                state.canonicalize()
        return state

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_interleaving_ops)
    def test_interleaved_mutations_match_scalar_oracle(self, ops):
        from repro.core.scoring import score_state

        system = generate_system(num_clients=8, seed=3)
        base = dict(
            seed=0,
            num_initial_solutions=1,
            alpha_granularity=5,
            max_improvement_rounds=2,
        )
        cached = self._drive(system, SolverConfig(**base), ops)
        oracle = self._drive(
            system, SolverConfig(use_vectorized_kernels=False, **base), ops
        )
        assert score_state(cached) == score_state(oracle)  # bitwise
        assert cached.allocation == oracle.allocation


class TestPublicSurface:
    def test_differential_is_not_eagerly_imported(self):
        # the package root must stay light (model-only deps), so the
        # heavyweight harness is reached by explicit import only
        import importlib
        import sys

        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name.startswith("repro")
        }
        try:
            importlib.import_module("repro.audit")
            assert "repro.audit.differential" not in sys.modules
            assert "repro.service.engine" not in sys.modules
        finally:
            sys.modules.update(saved)
