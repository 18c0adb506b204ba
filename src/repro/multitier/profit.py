"""True multi-tier profit: end-to-end response priced by the real SLA.

The flat expansion optimizes the *linear* surrogate; this evaluator
re-scores an allocation with the application's actual (possibly clipped
or stepped) utility applied to the *sum* of tier response times, plus the
standard server costs and a co-location check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.model.allocation import Allocation
from repro.model.profit import client_response_time, evaluate_profit
from repro.audit.invariants import Violation
from repro.multitier.model import FlatExpansion, MultiTierSystem


@dataclass(frozen=True)
class ApplicationOutcome:
    """Evaluation of one application under an allocation."""

    app_id: int
    response_time: float  # end-to-end (sum over tiers); inf if any tier unserved
    tier_response_times: List[float]
    utility_value: float
    revenue: float
    served: bool
    colocated: bool
    cluster_id: Optional[int]


@dataclass
class MultiTierBreakdown:
    """Totals plus per-application detail."""

    total_profit: float
    total_revenue: float
    total_cost: float
    applications: Dict[int, ApplicationOutcome] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        served = sum(1 for o in self.applications.values() if o.served)
        status = "feasible" if self.feasible else f"{len(self.violations)} violations"
        return (
            f"profit={self.total_profit:.4f} (revenue={self.total_revenue:.4f}, "
            f"cost={self.total_cost:.4f}), apps served={served}/"
            f"{len(self.applications)}, {status}"
        )


def evaluate_multitier_profit(
    system: MultiTierSystem,
    expansion: FlatExpansion,
    allocation: Allocation,
    require_all_served: bool = True,
    require_colocation: bool = True,
) -> MultiTierBreakdown:
    """Score an allocation of the flat expansion against the true SLAs."""
    flat = expansion.flat_system
    # Hard resource constraints come from the flat validator; the
    # "every client served" flat constraint is replaced by the per-app
    # checks below, so it is disabled here.
    flat_breakdown = evaluate_profit(flat, allocation, require_all_served=False)
    violations = list(flat_breakdown.violations)

    total_revenue = 0.0
    outcomes: Dict[int, ApplicationOutcome] = {}
    for app in system.applications:
        tier_ids = expansion.tier_clients[app.app_id]
        tier_responses: List[float] = []
        clusters = set()
        served = True
        for client_id in tier_ids:
            if not allocation.entries_of_client(client_id):
                served = False
                tier_responses.append(math.inf)
                continue
            clusters.add(allocation.cluster_of.get(client_id))
            tier_responses.append(client_response_time(flat, allocation, client_id))
        response = sum(tier_responses)
        if math.isinf(response):
            served = False
        colocated = len(clusters) <= 1
        utility_value = app.utility_class.function.value(response)
        if math.isinf(utility_value):
            utility_value = 0.0
        revenue = app.rate_agreed * utility_value if served else 0.0
        total_revenue += revenue
        outcomes[app.app_id] = ApplicationOutcome(
            app_id=app.app_id,
            response_time=response,
            tier_response_times=tier_responses,
            utility_value=utility_value if served else 0.0,
            revenue=revenue,
            served=served,
            colocated=colocated,
            cluster_id=next(iter(clusters)) if len(clusters) == 1 else None,
        )
        if require_all_served and not served:
            violations.append(
                Violation(
                    "(6)",
                    f"application {app.app_id}",
                    "not all tiers are served",
                )
            )
        if require_colocation and not colocated:
            violations.append(
                Violation(
                    "(6)",
                    f"application {app.app_id}",
                    f"tiers span clusters {sorted(c for c in clusters if c is not None)}",
                )
            )

    total_cost = flat_breakdown.total_cost
    return MultiTierBreakdown(
        total_profit=total_revenue - total_cost,
        total_revenue=total_revenue,
        total_cost=total_cost,
        applications=outcomes,
        violations=violations,
    )
