"""``TurnON_servers`` / ``TurnOFF_servers`` — server power moves (V.B.2).

Activating a server pays its fixed cost ``P0`` but relieves congestion;
deactivating one saves ``P0`` but squeezes its clients onto the rest of
the cluster.  Both moves follow the paper's structure:

* **TurnON** — for every server class with an idle unit, estimate for each
  client the value of shifting a grid fraction of its traffic onto a fresh
  server of that class (closed-form shares, linear utility surrogate),
  pick the best fraction per client, then solve a 0/1 knapsack over the
  new server's (quantized) processing share to select the client set.
  The move is applied tentatively and kept only if the exactly evaluated
  profit beats the activation cost.  (The paper notes its own selection is
  a low-complexity suboptimal decomposition + DP; this is our reading —
  see DESIGN.md "Substitutions".)
* **TurnOFF** — rank active servers by their approximated utility
  contribution, try to evacuate the lowest-ranked one by re-dispersing
  each hosted client over its remaining branches (falling back to a full
  in-cluster ``Assign_Distribute`` that excludes the victim), and keep the
  shutdown only when the evaluated profit improves.  Rejected candidates
  go onto a ``blocked`` set so later rounds explore other servers, exactly
  as the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.audit.invariants import (
    ACCEPT_TOLERANCE,
    NEGLIGIBLE_ALPHA,
    SHARE_BUDGET_TOLERANCE,
)
from repro.config import SolverConfig
from repro.core.assign import apply_placement, assign_distribute, _closed_form_share
from repro.core.dispersion import adjust_dispersion_rates
from repro.core.shares import adjust_resource_shares
from repro.core.scoring import score_state
from repro.core.state import WorkingState
from repro.model.client import Client
from repro.optim.kkt import DispersionBranch, optimal_dispersion


@dataclass(frozen=True)
class _ActivationCandidate:
    """One client's best traffic shift onto a server being activated."""

    client_id: int
    value: float
    fraction: float
    share_units: int
    phi_p: float
    phi_b: float


def _branch_response_costs(
    state: WorkingState, client_id: int, scale: float = 1.0
) -> float:
    """Sum of ``alpha * (W_p + W_b)`` over a client's current branches.

    ``scale`` multiplies every alpha (used to estimate the relief from
    moving ``1 - scale`` of the traffic elsewhere); returns ``inf`` when
    any scaled branch would be unstable, which cannot happen for
    ``scale <= 1`` on a stable allocation.
    """
    client = state.system.client(client_id)
    total = 0.0
    for server_id, entry in state.allocation.entries_of_client(client_id).items():
        alpha = entry.alpha * scale
        if alpha <= 0.0:
            continue
        server = state.system.server(server_id)
        rate_p = entry.phi_p * server.cap_processing / client.t_proc
        rate_b = entry.phi_b * server.cap_bandwidth / client.t_comm
        arrival = alpha * client.rate_predicted
        head_p = rate_p - arrival
        head_b = rate_b - arrival
        if head_p <= 0.0 or head_b <= 0.0:
            return math.inf
        total += alpha * (1.0 / head_p + 1.0 / head_b)
    return total


def _knapsack_select(
    candidates: Sequence[_ActivationCandidate], capacity_units: int
) -> List[int]:
    """0/1 knapsack over share units; returns indices of chosen candidates."""
    best: List[float] = [0.0] * (capacity_units + 1)
    take: List[List[bool]] = []
    for candidate in candidates:
        row = [False] * (capacity_units + 1)
        weight = candidate.share_units
        for units in range(capacity_units, weight - 1, -1):
            with_it = best[units - weight] + candidate.value
            if with_it > best[units]:
                best[units] = with_it
                row[units] = True
        take.append(row)
    chosen: List[int] = []
    units = capacity_units
    for idx in range(len(candidates) - 1, -1, -1):
        if take[idx][units]:
            chosen.append(idx)
            units -= candidates[idx].share_units
    chosen.reverse()
    return chosen


def _activation_profile(
    client: Client,
    server,
    free_p: float,
    free_b: float,
    config: SolverConfig,
) -> List[Tuple[int, float, float, float]]:
    """Feasible grid points ``(g, phi_p, phi_b, cost_new_branch)`` for one
    client joining one idle server.

    Pure in (client, server class, free capacities, config): nothing here
    reads the allocation.  The early ``break`` on the stability lower
    bounds and the ``continue`` on non-positive headroom stop at the
    first infeasible grid point and skip points without headroom.
    """
    granularity = config.alpha_granularity
    linear = client.utility_class.linear_approximation()
    weight_base = client.rate_agreed * linear.slope
    s_p = server.cap_processing / client.t_proc
    s_b = server.cap_bandwidth / client.t_comm
    # Same opportunity-cost sizing as the constructor, so several
    # clients can share the freshly activated server.
    amortized = config.capacity_price_factor * server.server_class.power_fixed
    price_p = server.server_class.power_per_util + amortized
    price_b = config.bandwidth_shadow_price + amortized
    profile: List[Tuple[int, float, float, float]] = []
    for g in range(1, granularity + 1):
        fraction = g / granularity
        arrival = fraction * client.rate_predicted
        lower_p = arrival / s_p * config.stability_margin + config.min_share
        lower_b = arrival / s_b * config.stability_margin + config.min_share
        if lower_p > free_p or lower_b > free_b:
            break
        phi_p = _closed_form_share(
            s_p, arrival, weight_base * fraction, price_p, lower_p, free_p
        )
        phi_b = _closed_form_share(
            s_b, arrival, weight_base * fraction, price_b, lower_b, free_b
        )
        head_p = s_p * phi_p - arrival
        head_b = s_b * phi_b - arrival
        if head_p <= 0.0 or head_b <= 0.0:
            continue
        cost_new_branch = fraction * (1.0 / head_p + 1.0 / head_b)
        profile.append((g, phi_p, phi_b, cost_new_branch))
    return profile


def _activation_candidates(
    state: WorkingState,
    cluster_id: int,
    server_id: int,
    config: SolverConfig,
) -> List[_ActivationCandidate]:
    """Per-client best traffic shift onto the (still idle) ``server_id``."""
    granularity = config.alpha_granularity
    server = state.system.server(server_id)
    free_p = state.free_processing(server_id)
    free_b = state.free_bandwidth(server_id)
    candidates: List[_ActivationCandidate] = []
    for client_id in state.allocation.clients_in_cluster(cluster_id):
        entries = state.allocation.entries_of_client(client_id)
        if not entries or server_id in entries:
            continue
        client = state.system.client(client_id)
        if state.free_storage(server_id) < client.storage_req:
            continue
        linear = client.utility_class.linear_approximation()
        weight_base = client.rate_agreed * linear.slope
        cost_now = _branch_response_costs(state, client_id)
        if math.isinf(cost_now):
            continue
        profile = _activation_profile(client, server, free_p, free_b, config)
        best: Optional[_ActivationCandidate] = None
        for g, phi_p, phi_b, cost_new_branch in profile:
            fraction = g / granularity
            cost_scaled = _branch_response_costs(state, client_id, 1.0 - fraction)
            value = (
                weight_base * (cost_now - cost_scaled - cost_new_branch)
                - server.server_class.power_per_util * phi_p
            )
            if value <= 0.0:
                continue
            units = max(1, math.ceil(phi_p * granularity))
            if best is None or value > best.value:
                best = _ActivationCandidate(
                    client_id=client_id,
                    value=value,
                    fraction=fraction,
                    share_units=units,
                    phi_p=phi_p,
                    phi_b=phi_b,
                )
        if best is not None:
            candidates.append(best)
    return candidates


def _try_activate(
    state: WorkingState,
    cluster_id: int,
    server_id: int,
    config: SolverConfig,
) -> float:
    """Tentatively power on one server; returns the realized profit delta."""
    candidates = _activation_candidates(state, cluster_id, server_id, config)
    if not candidates:
        return 0.0
    server = state.system.server(server_id)
    capacity_units = int(state.free_processing(server_id) * config.alpha_granularity)
    chosen = _knapsack_select(candidates, capacity_units)
    expected_gain = sum(candidates[idx].value for idx in chosen)
    if expected_gain <= server.server_class.power_fixed:
        return 0.0

    before = score_state(state)
    snapshot = state.snapshot()
    for idx in sorted(chosen, key=lambda i: candidates[i].value, reverse=True):
        candidate = candidates[idx]
        client = state.system.client(candidate.client_id)
        if state.free_storage(server_id) < client.storage_req:
            continue
        # Re-bound the shares against whatever capacity is left after the
        # clients applied before this one.
        phi_p = min(candidate.phi_p, state.free_processing(server_id))
        phi_b = min(candidate.phi_b, state.free_bandwidth(server_id))
        arrival = candidate.fraction * client.rate_predicted
        if (
            phi_p * server.cap_processing / client.t_proc <= arrival
            or phi_b * server.cap_bandwidth / client.t_comm <= arrival
        ):
            continue
        keep = 1.0 - candidate.fraction
        for sid, entry in list(
            state.allocation.entries_of_client(candidate.client_id).items()
        ):
            state.set_entry(
                candidate.client_id, sid, entry.alpha * keep, entry.phi_p, entry.phi_b
            )
        state.set_entry(
            candidate.client_id, server_id, candidate.fraction, phi_p, phi_b
        )
        adjust_dispersion_rates(state, candidate.client_id, config)
    after = score_state(state)
    if after <= before + ACCEPT_TOLERANCE:
        state.restore(snapshot)
        return 0.0
    return after - before


def turn_on_servers(
    state: WorkingState, cluster_id: int, config: SolverConfig
) -> float:
    """Consider activating one idle server per server class in the cluster."""
    cluster = state.system.cluster(cluster_id)
    total_delta = 0.0
    for _, servers in sorted(cluster.servers_by_class().items()):
        idle = [
            s.server_id for s in servers if not state.server_is_active(s.server_id)
        ]
        if not idle:
            continue
        total_delta += _try_activate(state, cluster_id, idle[0], config)
    return total_delta


def _approximated_utility(state: WorkingState, server_id: int) -> float:
    """Net linear-surrogate profit flowing through one server (for ranking)."""
    server = state.system.server(server_id)
    total = -(
        server.server_class.power_fixed
        + server.server_class.power_per_util * state.used_processing(server_id)
    )
    for client_id in state.allocation.clients_on_server(server_id):
        entry = state.allocation.entry(client_id, server_id)
        if entry is None or entry.alpha <= 0.0:
            continue
        client = state.system.client(client_id)
        linear = client.utility_class.linear_approximation()
        arrival = entry.alpha * client.rate_predicted
        rate_p = entry.phi_p * server.cap_processing / client.t_proc
        rate_b = entry.phi_b * server.cap_bandwidth / client.t_comm
        head_p = rate_p - arrival
        head_b = rate_b - arrival
        branch_cost = (
            entry.alpha * (1.0 / head_p + 1.0 / head_b)
            if head_p > 0 and head_b > 0
            else math.inf
        )
        total += entry.alpha * client.rate_agreed * linear.base_value
        total -= client.rate_agreed * linear.slope * branch_cost
    return total


def _incumbent_minimum_shares(
    state: WorkingState, server_id: int, config: SolverConfig
) -> Tuple[float, float]:
    """Sum of the stability lower bounds of a server's current clients."""
    server = state.system.server(server_id)
    low_p = low_b = 0.0
    for other_id in state.allocation.clients_on_server(server_id):
        other = state.system.client(other_id)
        entry = state.allocation.entry(other_id, server_id)
        assert entry is not None
        other_arrival = entry.alpha * other.rate_predicted
        low_p += (
            other_arrival * other.t_proc / server.cap_processing
        ) * config.stability_margin + config.min_share
        low_b += (
            other_arrival * other.t_comm / server.cap_bandwidth
        ) * config.stability_margin + config.min_share
    return low_p, low_b


def merge_client_onto_server(
    state: WorkingState,
    client_id: int,
    target_server_id: int,
    config: SolverConfig,
    traffic_fraction: float = 1.0,
) -> bool:
    """Move a fraction of a client onto an active server, re-splitting shares.

    Unlike ``Assign_Distribute`` — which only sees *free* capacity — this
    move claims a minimal stable foothold and lets
    ``Adjust_ResourceShares`` re-divide the whole server among all of its
    clients, which is exactly the paper's consolidation example ("if ...
    unassigned capacities in other servers is enough to serve that client
    with the same price, this local search will transfer the client").
    """
    client = state.system.client(client_id)
    server = state.system.server(target_server_id)
    if state.free_storage(target_server_id) < client.storage_req:
        return False
    arrival = traffic_fraction * client.rate_predicted
    lower_p = (
        arrival * client.t_proc / server.cap_processing * config.stability_margin
        + config.min_share
    )
    lower_b = (
        arrival * client.t_comm / server.cap_bandwidth * config.stability_margin
        + config.min_share
    )
    # The foothold squeezes incumbents: their stability lower bounds plus
    # the newcomer's must still fit the server.
    incumbent_low_p, incumbent_low_b = _incumbent_minimum_shares(
        state, target_server_id, config
    )
    budget_p = 1.0 - server.background_processing
    budget_b = 1.0 - server.background_bandwidth
    if incumbent_low_p + lower_p > budget_p or incumbent_low_b + lower_b > budget_b:
        return False
    # Claim a minimal foothold (the transient state may nominally exceed
    # the budget) and let the exact convex re-split divide the server.
    state.set_entry(client_id, target_server_id, traffic_fraction, lower_p, lower_b)
    adjust_resource_shares(state, target_server_id, config)
    # The accept-if-better adjustment may refuse a layout whose surrogate
    # looks worse; verify the foothold is at least stable.
    entry = state.allocation.entry(client_id, target_server_id)
    if entry is None:
        return False
    if (
        entry.phi_p * server.cap_processing / client.t_proc <= arrival
        or entry.phi_b * server.cap_bandwidth / client.t_comm <= arrival
    ):
        return False
    # The re-split must have landed back inside the budget (it only fails
    # to when adjust_resource_shares rolled back to the raw foothold).
    if (
        state.used_processing(target_server_id) > budget_p + SHARE_BUDGET_TOLERANCE
        or state.used_bandwidth(target_server_id) > budget_b + SHARE_BUDGET_TOLERANCE
    ):
        return False
    return True


def force_client_into_cluster(
    state: WorkingState,
    client_id: int,
    cluster_id: int,
    config: SolverConfig,
) -> bool:
    """Serve a straggler by splitting it over squeezed servers of one cluster.

    Computes, per server, the largest traffic fraction the client could
    stably carry if every incumbent were compressed to its stability
    minimum, greedily covers the unit of traffic with those fractions,
    then applies the per-server merges (foothold + exact re-split).
    Returns False (state restored by the caller's snapshot discipline —
    this function does not snapshot) when the cluster cannot absorb the
    client even under maximal squeezing.
    """
    client = state.system.client(client_id)
    cluster = state.system.cluster(cluster_id)
    lam = client.rate_predicted

    capacities: List[Tuple[float, int]] = []
    for server in cluster:
        sid = server.server_id
        if state.free_storage(sid) < client.storage_req:
            continue
        low_p, low_b = _incumbent_minimum_shares(state, sid, config)
        avail_p = (1.0 - server.background_processing) - low_p - config.min_share
        avail_b = (1.0 - server.background_bandwidth) - low_b - config.min_share
        if avail_p <= 0 or avail_b <= 0:
            continue
        s_p = server.cap_processing / client.t_proc
        s_b = server.cap_bandwidth / client.t_comm
        max_fraction = min(
            avail_p * s_p / (lam * config.stability_margin),
            avail_b * s_b / (lam * config.stability_margin),
            1.0,
        )
        # Leave slack so the foothold's own margin still fits.
        max_fraction *= 0.95
        if max_fraction > 1e-6:
            capacities.append((max_fraction, sid))
    capacities.sort(reverse=True)
    if sum(fraction for fraction, _ in capacities) < 1.0:
        return False

    plan: List[Tuple[int, float]] = []
    remaining = 1.0
    for max_fraction, sid in capacities:
        take = min(max_fraction, remaining)
        plan.append((sid, take))
        remaining -= take
        if remaining <= ACCEPT_TOLERANCE:
            break
    if remaining > NEGLIGIBLE_ALPHA:
        return False

    state.assign_client(client_id, cluster_id)
    for sid, fraction in plan:
        if not merge_client_onto_server(
            state, client_id, sid, config, traffic_fraction=fraction
        ):
            return False
    return True


def evacuate_client(
    state: WorkingState,
    client_id: int,
    victim_server_id: int,
    config: SolverConfig,
    excluded_server_ids: Optional[Set[int]] = None,
) -> bool:
    """Move one client's traffic off a server; True on success.

    ``excluded_server_ids`` widens the no-go set beyond the victim itself
    (the online service passes its failed-server set, so an evacuation
    never lands on another dead host).  On ``False`` the state is left
    mid-evacuation — callers roll back via their snapshot or transaction.
    """
    excluded = set(excluded_server_ids or ()) | {victim_server_id}
    cluster_id = state.allocation.cluster_of[client_id]
    client = state.system.client(client_id)
    state.remove_entry(client_id, victim_server_id)
    remaining = state.allocation.entries_of_client(client_id)
    if remaining:
        server_ids = sorted(remaining)
        branches = []
        for sid in server_ids:
            entry = remaining[sid]
            server = state.system.server(sid)
            branches.append(
                DispersionBranch(
                    rate_processing=entry.phi_p * server.cap_processing / client.t_proc,
                    rate_bandwidth=entry.phi_b * server.cap_bandwidth / client.t_comm,
                )
            )
        alphas = optimal_dispersion(
            branches,
            client.rate_predicted,
            total=1.0,
            stability_margin=config.stability_margin,
        )
        if alphas is not None:
            for idx, sid in enumerate(server_ids):
                entry = remaining[sid]
                state.set_entry(client_id, sid, alphas[idx], entry.phi_p, entry.phi_b)
            return True
    # The surviving branches cannot absorb the traffic.  Prefer merging
    # onto an already-ON server (shares re-split exactly); fall back to a
    # fresh in-cluster placement that excludes the victim.
    state.clear_client(client_id)
    targets = sorted(
        (
            sid
            for sid in state.active_server_ids(cluster_id)
            if sid not in excluded
        ),
        key=lambda sid: state.free_processing(sid),
        reverse=True,
    )
    for target in targets:
        # A transaction, not a snapshot, so the whole evacuation can nest
        # inside a caller's transaction (snapshot/restore cannot).
        state.begin_txn()
        if merge_client_onto_server(state, client_id, target, config):
            state.commit_txn()
            return True
        state.rollback_txn()
    placement = assign_distribute(
        state, client, cluster_id, config, excluded_server_ids=excluded
    )
    if placement is None:
        return False
    apply_placement(state, placement)
    return True


def turn_off_servers(
    state: WorkingState,
    cluster_id: int,
    config: SolverConfig,
    blocked: Optional[Set[int]] = None,
) -> float:
    """Try to power off low-utility servers in one cluster.

    ``blocked`` accumulates servers whose shutdown was tried and rejected,
    so repeated rounds explore other candidates (per the paper).  Returns
    the total realized profit delta.
    """
    blocked = blocked if blocked is not None else set()
    cluster = state.system.cluster(cluster_id)
    candidates = [
        s.server_id
        for s in cluster
        if state.server_is_active(s.server_id)
        and not s.has_background_load
        and s.server_id not in blocked
        and state.allocation.clients_on_server(s.server_id)
    ]
    candidates.sort(key=lambda sid: _approximated_utility(state, sid))

    total_delta = 0.0
    for victim in candidates:
        delta = try_shutdown_server(state, victim, config)
        if delta > 0.0:
            total_delta += delta
        else:
            blocked.add(victim)
    return total_delta


def try_shutdown_server(
    state: WorkingState,
    victim: int,
    config: SolverConfig,
    excluded_server_ids: Optional[Set[int]] = None,
) -> float:
    """Attempt to evacuate and power off one server, accept-if-better.

    Returns the realized profit delta (0.0 when the evacuation failed or
    the evaluated profit did not improve; the state is restored in both
    cases).  The default rollback mechanism is snapshot/restore, so it
    must not be called inside an open
    :meth:`~repro.core.state.WorkingState.begin_txn` transaction.  With
    ``config.use_txn_shutdown`` the rejection path replays the undo log
    instead — O(mutations) rather than O(live entries), the dominant
    cost of large-shard improvement rounds, at the price of not being
    *bitwise* identical to the snapshot path (see the config docs).
    ``excluded_server_ids`` bars extra servers (beyond the victim) from
    receiving the evacuated traffic.
    """
    if config.use_txn_shutdown:
        return _try_shutdown_server_txn(state, victim, config, excluded_server_ids)
    before = score_state(state)
    snapshot = state.snapshot()
    hosted = sorted(state.allocation.clients_on_server(victim))
    success = all(
        evacuate_client(state, cid, victim, config, excluded_server_ids)
        for cid in hosted
    )
    if success:
        touched = {
            sid
            for cid in hosted
            for sid in state.allocation.entries_of_client(cid)
        }
        for sid in sorted(touched):
            adjust_resource_shares(state, sid, config)
    after = score_state(state)
    if success and after > before + ACCEPT_TOLERANCE:
        return after - before
    state.restore(snapshot)
    return 0.0


def _try_shutdown_server_txn(
    state: WorkingState,
    victim: int,
    config: SolverConfig,
    excluded_server_ids: Optional[Set[int]] = None,
) -> float:
    """Transactional variant of :func:`try_shutdown_server`.

    Same evacuation sweep and accept-if-better gate, but the whole
    attempt runs inside one undo-log transaction (the nested txns of
    :func:`evacuate_client` merge into it on commit), so a rejected
    candidate unwinds in time proportional to the entries it touched.
    Because most candidates in a ``turn_off_servers`` sweep are
    rejections over a handful of clients while the state holds hundreds
    of entries, this is the difference between O(hosted) and O(system)
    per candidate.
    """
    before = score_state(state)
    state.begin_txn()
    hosted = sorted(state.allocation.clients_on_server(victim))
    success = all(
        evacuate_client(state, cid, victim, config, excluded_server_ids)
        for cid in hosted
    )
    if success:
        touched = {
            sid
            for cid in hosted
            for sid in state.allocation.entries_of_client(cid)
        }
        for sid in sorted(touched):
            adjust_resource_shares(state, sid, config)
        after = score_state(state)
        if after > before + ACCEPT_TOLERANCE:
            state.commit_txn()
            return after - before
    state.rollback_txn()
    return 0.0
