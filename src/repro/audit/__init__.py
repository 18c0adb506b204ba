"""Feasibility audit + differential verification.

This package is the single source of truth for the paper's hard
constraints and for every numerical tolerance the solvers use:

* :mod:`repro.audit.invariants` — each constraint of the MINLP
  (section IV, (3)-(12)) as a named, tolerance-parameterized predicate
  over an :class:`~repro.model.allocation.Allocation` and a
  :class:`~repro.model.datacenter.CloudSystem`, plus the shared
  tolerance constants (``FEASIBILITY_TOLERANCE``, ``ACCEPT_TOLERANCE``,
  ``AGREEMENT_TOLERANCE``, ...) that used to live scattered across the
  core modules;
* :mod:`repro.audit.differential` — a harness that pushes one instance
  through all four scoring paths (scalar oracle, vectorized kernels,
  delta scorer, online service) and asserts they agree;
* :mod:`repro.audit.hooks` — opt-in debug instrumentation
  (``REPRO_AUDIT=1`` or ``--audit``) that re-validates the working
  allocation after every solver pass, repair op, and service event.

:mod:`repro.audit.differential` imports the solvers and the service
engine; import it explicitly (``from repro.audit import differential``)
rather than through this package root, which stays dependency-light so
that :mod:`repro.model` can import the invariants without cycles.
"""

from repro.audit.hooks import audit_enabled, audit_point, disable_audit, enable_audit
from repro.audit.invariants import (
    ACCEPT_TOLERANCE,
    AGREEMENT_TOLERANCE,
    FEASIBILITY_TOLERANCE,
    NEGLIGIBLE_ALPHA,
    SHARE_BUDGET_TOLERANCE,
    INVARIANTS,
    Violation,
    find_violations,
    validate_allocation,
)

__all__ = [
    "ACCEPT_TOLERANCE",
    "AGREEMENT_TOLERANCE",
    "FEASIBILITY_TOLERANCE",
    "NEGLIGIBLE_ALPHA",
    "SHARE_BUDGET_TOLERANCE",
    "INVARIANTS",
    "Violation",
    "find_violations",
    "validate_allocation",
    "audit_enabled",
    "audit_point",
    "enable_audit",
    "disable_audit",
]
