"""CI gate: the feasibility audit finds nothing to report on clean runs.

Two checks, both merge gates (tiny sizes, seconds of runtime):

1. the differential harness over a seeded matrix — every instance must
   come back clean across all four scoring paths (scalar, vectorized,
   incremental delta, online service), with zero constraint violations
   and reported-vs-recomputed profit agreement within 1e-9;
2. a churny service trace recorded with hooks armed (`REPRO_AUDIT`
   semantics) — the final snapshot and a mid-stream snapshot + journal
   replay must both audit clean.

Exit status 0 on success, 1 with a diagnostic on any finding::

    PYTHONPATH=src python benchmarks/check_audit.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script usage without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.audit import disable_audit, enable_audit  # noqa: E402
from repro.audit.differential import (  # noqa: E402
    audit_journal,
    audit_snapshot,
    run_matrix,
)
from repro.config import SolverConfig  # noqa: E402
from repro.service import (  # noqa: E402
    AllocationService,
    EventJournal,
    TraceDriverConfig,
    flatten_events,
    generate_epoch_events,
)
from repro.service.driver import empty_copy  # noqa: E402
from repro.workload.generator import generate_system  # noqa: E402

MATRIX_SEEDS = range(6)
MATRIX_CLIENTS = 8
MATRIX_CONFIG = SolverConfig(
    seed=0,
    num_initial_solutions=1,
    alpha_granularity=5,
    max_improvement_rounds=2,
)
TRACE_CONFIG = TraceDriverConfig(
    pattern="random_walk",
    num_epochs=4,
    drift=0.25,
    seed=5,
    churn_probability=0.5,
    failure_probability=0.4,
)
SNAPSHOT_AT = 5  # event index for the mid-stream snapshot


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def check_differential_matrix() -> int:
    # The production paths (curve store included) against the scalar
    # oracle — the same gate the CLI exposes as ``repro-cloud audit``.
    reports = list(
        run_matrix(
            seeds=MATRIX_SEEDS,
            num_clients=MATRIX_CLIENTS,
            config=MATRIX_CONFIG,
        )
    )
    dirty = [report for report in reports if not report.ok]
    if dirty:
        for report in dirty:
            print(report.summary())
        return fail(
            f"{len(dirty)}/{len(reports)} differential instances disagree"
        )
    print(
        f"ok: differential matrix clean on {len(reports)} instances "
        "(scalar, vectorized, delta, service)"
    )
    return 0


def check_recorded_journal() -> int:
    system = generate_system(num_clients=8, seed=11)
    events = flatten_events(generate_epoch_events(system, TRACE_CONFIG))
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = str(Path(tmp) / "events.journal")
        service = AllocationService(
            empty_copy(system),
            config=SolverConfig(seed=11),
            journal=EventJournal(journal_path),
        )
        enable_audit()  # record the trace with every boundary re-checked
        try:
            mid_doc = None
            for index, event in enumerate(events):
                if index == SNAPSHOT_AT:
                    mid_doc = service.snapshot()
                service.apply(event)
            final_doc = service.snapshot()
        finally:
            disable_audit()
        problems = [f"final snapshot: {p}" for p in audit_snapshot(final_doc)]
        if mid_doc is None:
            problems.append(f"trace too short for snapshot at {SNAPSHOT_AT}")
        else:
            problems.extend(
                f"journal replay: {p}"
                for p in audit_journal(
                    mid_doc, journal_path, config=SolverConfig(seed=11)
                )
            )
    if problems:
        for problem in problems:
            print(problem)
        return fail(f"{len(problems)} audit findings on the recorded trace")
    print(
        f"ok: recorded service trace ({len(events)} events) audits clean, "
        "snapshot + journal replay included"
    )
    return 0


def main() -> int:
    status = check_differential_matrix()
    status = check_recorded_journal() or status
    return status


if __name__ == "__main__":
    sys.exit(main())
