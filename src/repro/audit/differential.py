"""Differential verification across the four scoring paths.

The repo scores an allocation four ways:

1. the **scalar oracle** — :func:`repro.model.profit.evaluate_profit`
   driving :class:`~repro.core.allocator.ResourceAllocator` with the
   pure-Python kernels;
2. the **vectorized kernels** — the same solver with the NumPy batched
   curves (claimed bit-parity with the scalar kernels);
3. the **delta scorer** — the solver gated by
   :class:`~repro.core.delta.DeltaScorer`'s incremental profit;
4. the **service engine** — the online repair path
   (:class:`~repro.service.engine.AllocationService`), admitting the
   same clients one event at a time.

:func:`run_differential` pushes one instance through all four and cross-
checks them:

* every path's final allocation must carry **zero violations** under the
  invariant pack (:mod:`repro.audit.invariants`);
* every path's *reported* profit must match an independent scalar
  re-evaluation of its own allocation within ``AGREEMENT_TOLERANCE``
  (this is the check that catches a drifting incremental scorer);
* paths 1-3 solve the same batch problem, so their profits must agree
  within ``AGREEMENT_TOLERANCE`` — and paths 1 and 2 must agree
  **bitwise**, allocation and profit, because kernel vectorization
  promises bit-parity;
* the service path solves a different (online) problem, so its profit is
  compared only against its own re-evaluation, never cross-path.

The harness backs the ``repro audit`` CLI subcommand and the pytest
fixtures in ``tests/audit/conftest.py``; :func:`audit_snapshot` /
:func:`audit_journal` run the same checks over saved service state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.invariants import (
    AGREEMENT_TOLERANCE,
    Violation,
    check_no_entries_on_servers,
    find_violations,
)
from repro.config import SolverConfig
from repro.model.allocation import Allocation
from repro.model.datacenter import CloudSystem
from repro.model.profit import evaluate_profit

#: Path names, in reporting order.
PATH_NAMES = ("scalar", "vectorized", "delta", "service")


@dataclass
class PathReport:
    """One scoring path's outcome on one instance."""

    name: str
    reported_profit: float
    recomputed_profit: float
    violations: List[Violation]
    allocation: Allocation

    @property
    def self_consistent(self) -> bool:
        if math.isinf(self.reported_profit) or math.isinf(self.recomputed_profit):
            return self.reported_profit == self.recomputed_profit
        return (
            abs(self.reported_profit - self.recomputed_profit)
            <= AGREEMENT_TOLERANCE
        )

    @property
    def ok(self) -> bool:
        return self.self_consistent and not self.violations


@dataclass
class DifferentialReport:
    """All four paths plus the cross-path disagreements for one instance."""

    seed: Optional[int]
    paths: Dict[str, PathReport]
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and all(p.ok for p in self.paths.values())

    def summary(self) -> str:
        lines = []
        for name in PATH_NAMES:
            path = self.paths[name]
            status = "ok" if path.ok else "FAIL"
            lines.append(
                f"  {name:<10} profit={path.reported_profit:+.9f} "
                f"violations={len(path.violations)} [{status}]"
            )
        for issue in self.disagreements:
            lines.append(f"  DISAGREE: {issue}")
        return "\n".join(lines)


def _solve_path(
    system: CloudSystem, config: SolverConfig
) -> Tuple[float, Allocation]:
    from repro.core.allocator import ResourceAllocator

    result = ResourceAllocator(config).solve(system)
    return result.profit, result.allocation


def _service_path(
    system: CloudSystem, config: SolverConfig
) -> Tuple[float, Allocation]:
    from repro.service.driver import empty_copy
    from repro.service.engine import AllocationService
    from repro.service.events import ClientAdmit

    service = AllocationService(empty_copy(system), config=config)
    for client in system.clients:
        service.apply(ClientAdmit(client=client))
    return service.profit(), service.allocation.copy()


def _path_report(
    name: str, system: CloudSystem, reported: float, allocation: Allocation
) -> PathReport:
    recomputed = evaluate_profit(
        system, allocation, require_all_served=False
    ).total_profit
    violations = find_violations(system, allocation, require_all_served=False)
    return PathReport(
        name=name,
        reported_profit=reported,
        recomputed_profit=recomputed,
        violations=violations,
        allocation=allocation,
    )


def run_differential(
    system: CloudSystem,
    config: Optional[SolverConfig] = None,
    seed: Optional[int] = None,
    tolerance: float = AGREEMENT_TOLERANCE,
    check_dual_bound: bool = False,
) -> DifferentialReport:
    """Run one instance through all four scoring paths and cross-check.

    The vectorized, delta and service paths run the production
    configuration, curve store (:mod:`repro.core.cache`) included, so
    the bitwise scalar-vs-vectorized gate also proves the store
    transparent; the scalar oracle never consults the store.

    ``check_dual_bound`` adds the Lagrangian upper bound
    (:func:`repro.gap.dual.dual_bound`) as a fifth, *independent* judge:
    no feasible allocation can earn more than the bound, so any path
    whose reported profit exceeds it is provably mis-scoring — the one
    failure mode the four paths cannot catch by agreeing with each
    other (a bug in shared scoring machinery shifts them all together).
    Breaches are reported as structured ``(dual-bound)`` violations on
    the offending path.
    """
    base = config or SolverConfig()
    variants: Dict[str, SolverConfig] = {
        "scalar": replace(
            base,
            use_vectorized_kernels=False,
            use_delta_scoring=False,
        ),
        "vectorized": replace(
            base,
            use_vectorized_kernels=True,
            use_delta_scoring=False,
        ),
        "delta": replace(
            base,
            use_vectorized_kernels=True,
            use_delta_scoring=True,
        ),
    }
    paths: Dict[str, PathReport] = {}
    for name, variant in variants.items():
        reported, allocation = _solve_path(system, variant)
        paths[name] = _path_report(name, system, reported, allocation)
    reported, allocation = _service_path(system, variants["delta"])
    paths["service"] = _path_report("service", system, reported, allocation)

    disagreements: List[str] = []
    scalar = paths["scalar"]
    vectorized = paths["vectorized"]
    if scalar.reported_profit != vectorized.reported_profit:
        disagreements.append(
            "scalar vs vectorized profit not bit-identical: "
            f"{scalar.reported_profit!r} != {vectorized.reported_profit!r}"
        )
    if scalar.allocation != vectorized.allocation:
        disagreements.append("scalar vs vectorized allocations differ")
    delta = paths["delta"]
    if abs(delta.reported_profit - scalar.reported_profit) > tolerance:
        disagreements.append(
            "delta-scored solve drifted from scalar solve: "
            f"{delta.reported_profit!r} vs {scalar.reported_profit!r}"
        )
    if check_dual_bound:
        _check_dual_bound(system, paths)
    return DifferentialReport(seed=seed, paths=paths, disagreements=disagreements)


#: Numerical slack for the dual-bound sanity check: the bound is a float
#: computation on a different code path, so exact comparison is wrong,
#: but any real mis-scoring overshoots by whole profit units.
DUAL_BOUND_TOLERANCE = 1e-6


def _check_dual_bound(system: CloudSystem, paths: Dict[str, PathReport]) -> None:
    """Flag any path whose reported profit exceeds the Lagrangian bound."""
    from repro.gap.dual import dual_bound

    bound = dual_bound(system).bound
    for report in paths.values():
        if report.reported_profit > bound + DUAL_BOUND_TOLERANCE:
            report.violations.append(
                Violation(
                    "(dual-bound)",
                    f"path {report.name}",
                    f"reported profit {report.reported_profit!r} exceeds "
                    f"the Lagrangian upper bound {bound!r} — no feasible "
                    "allocation can earn that much, the path is mis-scoring",
                    slack=bound - report.reported_profit,
                )
            )


def run_matrix(
    seeds=range(20),
    num_clients: int = 10,
    config: Optional[SolverConfig] = None,
    tolerance: float = AGREEMENT_TOLERANCE,
    system_factory: Optional[Callable[[int], CloudSystem]] = None,
    check_dual_bound: bool = False,
) -> List[DifferentialReport]:
    """Differential-verify a matrix of seeded workload instances."""
    from repro.workload.generator import generate_system

    reports = []
    for seed in seeds:
        system = (
            system_factory(seed)
            if system_factory is not None
            else generate_system(num_clients=num_clients, seed=seed)
        )
        base = config or SolverConfig(seed=seed)
        reports.append(
            run_differential(
                system,
                config=base,
                seed=seed,
                tolerance=tolerance,
                check_dual_bound=check_dual_bound,
            )
        )
    return reports


def audit_snapshot(
    doc: dict,
    tolerance: float = AGREEMENT_TOLERANCE,
) -> List[str]:
    """Cross-check a service snapshot document; returns found problems.

    Verifies the stored profit against a scalar re-evaluation, runs the
    invariant pack over the stored allocation (every in-system client of
    a healthy snapshot is fully served), and scans for rows referencing
    servers the snapshot itself marks as failed.
    """
    from repro.io import allocation_from_dict, system_from_dict

    problems: List[str] = []
    system = system_from_dict(doc["system"])
    allocation = allocation_from_dict(doc["allocation"])
    for violation in find_violations(system, allocation, require_all_served=True):
        problems.append(str(violation))
    for violation in check_no_entries_on_servers(
        allocation, doc.get("failed_servers", ())
    ):
        problems.append(str(violation))
    recomputed = evaluate_profit(
        system, allocation, require_all_served=False
    ).total_profit
    stored = doc.get("profit")
    if stored is None:
        problems.append("snapshot carries no profit field")
    elif math.isinf(recomputed) or abs(recomputed - stored) > tolerance:
        problems.append(
            f"stored profit {stored!r} disagrees with re-evaluation "
            f"{recomputed!r}"
        )
    return problems


def audit_journal(
    snapshot_doc: dict,
    journal_path: Optional[str] = None,
    config: Optional[SolverConfig] = None,
    tolerance: float = AGREEMENT_TOLERANCE,
) -> List[str]:
    """Replay snapshot + journal with the audit hooks armed.

    Every replayed event re-runs the invariant pack (via the service's
    audit point), and the final state's incremental profit is checked
    against the scalar oracle.  Returns the list of problems found.
    """
    from repro.audit import hooks
    from repro.core.scoring import score
    from repro.exceptions import ReproError
    from repro.service.journal import recover

    problems: List[str] = []
    previously_enabled = hooks.audit_enabled()
    hooks.enable_audit()
    try:
        service = recover(snapshot_doc, journal_path, config=config)
    except ReproError as exc:
        return [f"replay failed: {exc}"]
    finally:
        if not previously_enabled:
            hooks.reset_audit()
    incremental = service.profit()
    oracle = score(service.system, service.allocation)
    if math.isinf(incremental) or abs(incremental - oracle) > tolerance:
        problems.append(
            f"replayed service profit {incremental!r} disagrees with "
            f"oracle {oracle!r}"
        )
    return problems
