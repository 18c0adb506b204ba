"""Randomized end-to-end property tests (hypothesis).

These draw whole problem instances and assert the library's global
invariants (DESIGN.md §6) across the full pipeline, not just on curated
fixtures.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.bounds import profit_upper_bound
from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.model.profit import evaluate_profit
from repro.audit.invariants import find_violations
from repro.workload.generator import WorkloadConfig, generate_system

FAST = SolverConfig(
    seed=0,
    num_initial_solutions=1,
    alpha_granularity=5,
    max_improvement_rounds=2,
)

instance_params = st.tuples(
    st.integers(min_value=2, max_value=8),   # clients
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=3),   # clusters
)


def draw_system(params):
    num_clients, seed, num_clusters = params
    config = WorkloadConfig(
        num_clusters=num_clusters,
        num_server_classes=3,
        num_utility_classes=2,
    )
    return generate_system(num_clients=num_clients, seed=seed, config=config)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=instance_params)
def test_solver_end_to_end_invariants(params):
    """Solve a random instance: feasibility, honesty, monotone history."""
    system = draw_system(params)
    result = ResourceAllocator(FAST).solve(system)

    # 1. No hard violations, ever (unserved clients are the only excuse).
    hard = find_violations(system, result.allocation, require_all_served=False)
    assert hard == []

    # 2. Reported profit equals independent evaluation.
    independent = evaluate_profit(
        system, result.allocation, require_all_served=False
    )
    assert result.profit == pytest.approx(independent.total_profit)

    # 3. The improvement loop never loses ground.
    history = result.profit_history
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-9

    # 4. Every served client's traffic sums to one and its shares fit.
    for cid in system.client_ids():
        if result.allocation.entries_of_client(cid):
            assert result.allocation.total_alpha(cid) == pytest.approx(
                1.0, abs=1e-6
            )
    for server in system.servers():
        used_p, used_b = result.allocation.server_share_totals(server.server_id)
        assert used_p <= 1.0 + 1e-6
        assert used_b <= 1.0 + 1e-6


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=instance_params)
def test_profit_never_exceeds_upper_bound(params):
    """The analytical certificate dominates anything the solver achieves."""
    system = draw_system(params)
    result = ResourceAllocator(FAST).solve(system)
    bound = profit_upper_bound(system)
    assert result.profit <= bound.profit_bound + 1e-6


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=instance_params)
def test_serialization_round_trip_property(params):
    """System and solution survive a JSON round trip bit-for-bit in score."""
    system = draw_system(params)
    result = ResourceAllocator(FAST).solve(system)

    system_clone = system_from_dict(system_to_dict(system))
    allocation_clone = allocation_from_dict(allocation_to_dict(result.allocation))
    original = evaluate_profit(system, result.allocation, require_all_served=False)
    cloned = evaluate_profit(
        system_clone, allocation_clone, require_all_served=False
    )
    assert cloned.total_profit == pytest.approx(original.total_profit)
    assert len(cloned.violations) == len(original.violations)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    params=instance_params,
    factor=st.floats(min_value=0.4, max_value=1.0),
)
def test_response_times_decrease_with_lighter_traffic(params, factor):
    """Pricing sanity: scaling predicted rates down never slows anyone."""
    system = draw_system(params)
    result = ResourceAllocator(FAST).solve(system)
    from repro.model.profit import client_response_time

    for cid in system.client_ids():
        if not result.allocation.entries_of_client(cid):
            continue
        client = system.client(cid)
        full = client_response_time(
            system, result.allocation, cid, rate=client.rate_predicted
        )
        lighter = client_response_time(
            system, result.allocation, cid, rate=client.rate_predicted * factor
        )
        if math.isfinite(full):
            assert lighter <= full + 1e-9
