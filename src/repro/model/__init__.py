"""System model for the SLA-based cloud profit-maximization problem.

This subpackage implements section III of the paper: utility functions,
server classes and servers, clusters, clients, the datacenter container,
the allocation state (the decision variables ``x``, ``alpha``, ``phi``),
the analytical response-time/profit evaluator, and feasibility validation.
"""

from repro.model.utility import (
    UtilityFunction,
    LinearUtility,
    ClippedLinearUtility,
    PiecewiseLinearUtility,
    StepUtility,
    UtilityClass,
)
from repro.model.server import ServerClass, Server
from repro.model.cluster import Cluster
from repro.model.client import Client
from repro.model.arrays import SystemArrays
from repro.model.datacenter import ArrayBackedCloudSystem, CloudSystem
from repro.model.allocation import Allocation, ServerAllocation
from repro.model.profit import (
    ProfitBreakdown,
    ClientOutcome,
    ServerOutcome,
    evaluate_profit,
    client_response_time,
    mm1_response_time,
)
from repro.audit.invariants import (
    Violation,
    find_violations,
    validate_allocation,
)

__all__ = [
    "UtilityFunction",
    "LinearUtility",
    "ClippedLinearUtility",
    "PiecewiseLinearUtility",
    "StepUtility",
    "UtilityClass",
    "ServerClass",
    "Server",
    "Cluster",
    "Client",
    "CloudSystem",
    "ArrayBackedCloudSystem",
    "SystemArrays",
    "Allocation",
    "ServerAllocation",
    "ProfitBreakdown",
    "ClientOutcome",
    "ServerOutcome",
    "evaluate_profit",
    "client_response_time",
    "mm1_response_time",
    "Violation",
    "find_violations",
    "validate_allocation",
]
