"""``Assign_Distribute`` — place one client inside one cluster (section V.A).

For a candidate cluster the constructor answers: *if this client joined
this cluster right now, how would its traffic best split across servers,
what shares would it get, and what profit would that earn?*

Following the paper:

* the utility is replaced by its linear surrogate ``v - beta * R``;
* ``alpha`` is discretized on a grid of ``G = config.alpha_granularity``
  steps; for each server and each grid point the optimal shares come from
  the closed form of eq. (16) (processing priced at the server's real
  ``P1``, bandwidth at the configured shadow price);
* servers without enough free disk for the client are excluded up front
  (constraint (8));
* a dynamic program combines the per-server curves into traffic portions
  summing to exactly one;
* inactive servers carry their activation cost ``P0`` on any positive
  traffic, so the constructor weighs consolidation against queueing delay;
* per-server-class memoization: servers of the same class with identical
  free capacity and activity (e.g. all still-empty servers of one SKU)
  share one curve evaluation.

Two curve kernels implement the same eq.-(16) arithmetic:

* :func:`_server_curves` — the scalar reference: one server, one Python
  loop over the grid;
* :func:`batched_server_curves` — the production kernel: all memo-unique
  servers of a cluster times all ``G`` grid points in single NumPy
  expressions.  Every element goes through the identical sequence of
  IEEE-754 operations, so the two kernels agree bit-for-bit
  (property-tested in ``tests/core/test_vectorized.py``).

``SolverConfig.use_vectorized_kernels`` selects the kernel (and the
matching array vs. scalar DP).  The scalar kernel is the reference
oracle of the differential audit and the tests.

The production path serves curves from the working state's
:class:`~repro.core.cache.MemoCache`: a per-client
:class:`~repro.core.cache.CurveBlock` holds the client's curve matrix
over the whole server universe.  Validation is two-tier: one vectorized
compare of per-server mutation epochs narrows to rows a mutation may
have touched, then those rows' stored capacity inputs are compared by
value, and only rows whose inputs actually changed are recomputed.  The
kernel is element-wise per row, so a patched subset batch produces
bitwise the rows a full batch would, and :func:`best_placement` then
solves every candidate cluster's DP in one lockstep batch over the
block rows — bit-identical to the scalar path (differentially
verified).  The block keeps that last placement until one of its rows
is recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.core.cache import MAX_CURVE_BLOCKS, CurveBlock, MemoCache
from repro.core.state import WorkingState
from repro.model.client import Client
from repro.optim.dp import (
    NEG_INF,
    combine_curve_batches,
    combine_server_curves,
    combine_server_curves_scalar,
)

#: (alpha, phi_p, phi_b) chosen for one server.
EntryTriple = Tuple[float, float, float]

#: Below this many curve cells (servers x (G+1)) the memoized scalar loop
#: beats the batched NumPy kernel, whose fixed broadcast/dispatch
#: overhead dominates tiny batches (measured on the reference host:
#: scalar wins to ~66 cells, the array kernel from ~88 cells — the
#: scalar twin's matrix scatter eats its memo win beyond a handful of
#: servers).  Mirrors ``SCALAR_CROSSOVER_CELLS`` in
#: :mod:`repro.optim.dp`; asserted never slower than scalar by
#: ``benchmarks/check_regression.py``.
CURVE_SCALAR_CROSSOVER_CELLS = 72


@dataclass(frozen=True)
class CandidatePlacement:
    """Outcome of ``Assign_Distribute`` for one (client, cluster) pair."""

    client_id: int
    cluster_id: int
    estimated_profit: float
    entries: Dict[int, EntryTriple]


def _closed_form_share(
    service_per_share: float,
    arrival: float,
    weight: float,
    price: float,
    lower: float,
    upper: float,
) -> float:
    """Eq. (16): the bounded optimal share for one queue."""
    if weight <= 0.0:
        return lower
    if price <= 0.0:
        return upper
    unclipped = (
        arrival + math.sqrt(weight * service_per_share / price)
    ) / service_per_share
    return min(max(unclipped, lower), upper)


def _server_curves(
    state: WorkingState,
    client: Client,
    server_id: int,
    config: SolverConfig,
) -> Tuple[List[float], List[Tuple[float, float]]]:
    """Profit curve and matching share choices for one server.

    Returns ``(values, shares)`` where ``values[g]`` is the estimated
    profit contribution of sending ``g / G`` of the client's traffic here
    and ``shares[g]`` the (phi_p, phi_b) that achieves it.  Infeasible
    grid points are ``-inf``.
    """
    granularity = config.alpha_granularity
    values = [NEG_INF] * (granularity + 1)
    shares: List[Tuple[float, float]] = [(0.0, 0.0)] * (granularity + 1)
    values[0] = 0.0

    server = state.system.server(server_id)
    if state.free_storage(server_id) < client.storage_req:
        return values, shares

    free_p = state.free_processing(server_id)
    free_b = state.free_bandwidth(server_id)
    was_active = state.server_is_active(server_id)
    linear = client.utility_class.linear_approximation()
    weight_base = client.rate_agreed * linear.slope
    s_p = server.cap_processing / client.t_proc
    s_b = server.cap_bandwidth / client.t_comm
    # Capacity is priced at its opportunity cost, not just the marginal
    # energy cost: a hogged share forces the next client onto a fresh
    # server at P0 (see SolverConfig.capacity_price_factor).
    amortized = config.capacity_price_factor * server.server_class.power_fixed
    price_p = server.server_class.power_per_util + amortized
    price_b = state.bandwidth_price_of(server_id, config) + amortized

    for g in range(1, granularity + 1):
        alpha = g / granularity
        arrival = alpha * client.rate_predicted
        weight = weight_base * alpha
        lower_p = arrival / s_p * config.stability_margin + config.min_share
        lower_b = arrival / s_b * config.stability_margin + config.min_share
        if lower_p > free_p or lower_b > free_b:
            continue
        phi_p = _closed_form_share(s_p, arrival, weight, price_p, lower_p, free_p)
        phi_b = _closed_form_share(s_b, arrival, weight, price_b, lower_b, free_b)
        head_p = s_p * phi_p - arrival
        head_b = s_b * phi_b - arrival
        if head_p <= 0.0 or head_b <= 0.0:
            continue
        response_cost = alpha * (1.0 / head_p + 1.0 / head_b)
        # The shadow prices above only size the shares; the DP ranks grid
        # points by the *real* incremental cost (energy + activation).
        value = (
            -weight_base * response_cost
            - server.server_class.power_per_util * phi_p
        )
        if not was_active:
            value -= server.server_class.power_fixed
        values[g] = value
        shares[g] = (phi_p, phi_b)
    return values, shares


def batched_server_curves(
    state: WorkingState,
    client: Client,
    server_ids: Sequence[int],
    config: SolverConfig,
) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
    """Eq.-(16) curves for many servers at once.

    Returns ``(rows, values, phi_p, phi_b)`` where ``rows[i]`` indexes the
    matrix row holding the curve of ``server_ids[i]``, ``values`` is the
    ``(n, G + 1)`` profit matrix (``-inf`` marks infeasible points, column
    0 is the no-traffic point) and the ``phi`` matrices hold the matching
    share choices.  Rows map one-to-one: an earlier version deduped
    signature-equal servers onto shared rows, but building those Python
    keys cost more than the duplicate NumPy lanes they saved, and since
    the kernel is element-wise per row the duplicates are bitwise equal
    anyway.
    """
    idx = state.server_indices(server_ids)
    values, phi_p_out, phi_b_out = _curves_at_indices(state, client, idx, config)
    return list(range(len(server_ids))), values, phi_p_out, phi_b_out


def _curves_at_indices(
    state: WorkingState,
    client: Client,
    idx: np.ndarray,
    config: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curve matrices for the servers at dense-array rows ``idx``.

    The free-capacity/activity inputs come straight from the state's
    incrementally maintained aggregate arrays; each output row runs the
    identical IEEE operation sequence as the scalar kernel on that server,
    independent of which other rows share the batch — which is what makes
    subset batches (cache patching) bitwise exact.

    Small batches (below :data:`CURVE_SCALAR_CROSSOVER_CELLS` cells)
    dispatch to the signature-memoized scalar kernel, which produces the
    same matrices bit-for-bit (the two kernels are property-tested
    identical) without NumPy's per-expression launch overhead.
    """
    granularity = config.alpha_granularity
    if len(idx) * (granularity + 1) <= CURVE_SCALAR_CROSSOVER_CELLS:
        return _curves_scalar_at_indices(state, client, idx, config)

    fp = 1.0 - state._bg_p_arr[idx] - state._used_p_arr[idx]
    fp = np.where(fp < 0.0, 0.0, fp)
    fb = 1.0 - state._bg_b_arr[idx] - state._used_b_arr[idx]
    fb = np.where(fb < 0.0, 0.0, fb)
    fs = state._fs_base_arr[idx] - state._used_s_arr[idx]
    fs = np.where(fs < 0.0, 0.0, fs)
    usable = fs >= client.storage_req
    active = state._hasbg_arr[idx] | (state._active_arr[idx] > 0)

    n = len(idx)
    values = np.full((n, granularity + 1), NEG_INF)
    values[:, 0] = 0.0
    phi_p_out = np.zeros((n, granularity + 1))
    phi_b_out = np.zeros((n, granularity + 1))
    if not usable.any():
        return values, phi_p_out, phi_b_out

    s_p = state._cap_p_arr[idx] / client.t_proc
    s_b = state._cap_b_arr[idx] / client.t_comm
    # Capacity is priced at its opportunity cost, not just the marginal
    # energy cost (see SolverConfig.capacity_price_factor).
    amortized = config.capacity_price_factor * state._pfix_arr[idx]
    power_per_util = state._ppu_arr[idx]
    power_fixed = state._pfix_arr[idx]
    price_p = power_per_util + amortized
    price_b = state.bandwidth_prices_at(idx, config) + amortized
    free_p = fp
    free_b = fb

    linear = client.utility_class.linear_approximation()
    weight_base = client.rate_agreed * linear.slope

    grid = np.arange(1, granularity + 1)
    alpha = grid / granularity  # (G,)
    arrival = alpha * client.rate_predicted
    weight = weight_base * alpha
    s_p_col = s_p[:, None]
    s_b_col = s_b[:, None]
    lower_p = arrival[None, :] / s_p_col * config.stability_margin + config.min_share
    lower_b = arrival[None, :] / s_b_col * config.stability_margin + config.min_share
    feasible = (lower_p <= free_p[:, None]) & (lower_b <= free_b[:, None])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if weight_base <= 0.0:
            # Scalar kernel: non-positive weight pins the share at its
            # stability lower bound.
            phi_p = lower_p
            phi_b = lower_b
        else:
            # price == 0 rows degrade gracefully: sqrt(w*s/0) = inf, and
            # the upper clip then returns the free capacity — exactly the
            # scalar kernel's "zero price takes everything" branch.
            phi_p = np.minimum(
                np.maximum(
                    (arrival[None, :] + np.sqrt(weight[None, :] * s_p_col / price_p[:, None]))
                    / s_p_col,
                    lower_p,
                ),
                free_p[:, None],
            )
            phi_b = np.minimum(
                np.maximum(
                    (arrival[None, :] + np.sqrt(weight[None, :] * s_b_col / price_b[:, None]))
                    / s_b_col,
                    lower_b,
                ),
                free_b[:, None],
            )
        head_p = s_p_col * phi_p - arrival[None, :]
        head_b = s_b_col * phi_b - arrival[None, :]
        ok = usable[:, None] & feasible & (head_p > 0.0) & (head_b > 0.0)
        response_cost = alpha[None, :] * (1.0 / head_p + 1.0 / head_b)
        value = -weight_base * response_cost - power_per_util[:, None] * phi_p
        value = np.where(active[:, None], value, value - power_fixed[:, None])

    values[:, 1:] = np.where(ok, value, NEG_INF)
    phi_p_out[:, 1:] = np.where(ok, phi_p, 0.0)
    phi_b_out[:, 1:] = np.where(ok, phi_b, 0.0)
    return values, phi_p_out, phi_b_out


def _curves_scalar_at_indices(
    state: WorkingState,
    client: Client,
    idx: np.ndarray,
    config: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar twin of the batched curve kernel for small batches.

    Runs :func:`_server_curves` per memo-unique signature (class, free
    capacities, storage fit, activity, bandwidth price) and scatters the
    resulting rows into the same matrices the vectorized kernel returns.
    Signature-equal servers — typically the still-empty ones of one SKU —
    share a single curve evaluation, which is where the scalar path's win
    on small clusters comes from.
    """
    granularity = config.alpha_granularity
    count = len(idx)
    values = np.full((count, granularity + 1), NEG_INF)
    values[:, 0] = 0.0
    phi_p_out = np.zeros((count, granularity + 1))
    phi_b_out = np.zeros((count, granularity + 1))
    sid_order = state._sid_order
    memo: Dict[Tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for row in range(count):
        sid = sid_order[idx[row]]
        key = (
            state.server_statics[sid].class_index,
            state.free_processing(sid),
            state.free_bandwidth(sid),
            state.free_storage(sid) >= client.storage_req,
            state.server_is_active(sid),
            state.bandwidth_price_of(sid, config),
        )
        rows = memo.get(key)
        if rows is None:
            curve, shares = _server_curves(state, client, sid, config)
            share_arr = np.asarray(shares)
            rows = (np.asarray(curve), share_arr[:, 0], share_arr[:, 1])
            memo[key] = rows
        values[row] = rows[0]
        phi_p_out[row] = rows[1]
        phi_b_out[row] = rows[2]
    return values, phi_p_out, phi_b_out


def assign_distribute(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    config: SolverConfig,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> Optional[CandidatePlacement]:
    """Best placement of ``client`` inside ``cluster_id`` given free capacity.

    Returns ``None`` when the cluster cannot stably host the client's full
    traffic under current free capacities.  The placement is *not* applied;
    use :func:`apply_placement`.  ``excluded_server_ids`` removes servers
    from consideration (used when evacuating a server to turn it off).
    """
    cluster = state.system.cluster(cluster_id)
    if not cluster.servers:
        return None
    excluded = excluded_server_ids or frozenset()
    eligible = [s.server_id for s in cluster if s.server_id not in excluded]
    if not eligible:
        return None

    if config.use_vectorized_kernels:
        block = _client_curve_block(state, client, config, state.cache)
        idx = state.server_indices(eligible)
        sel = idx[block.row_ok[idx]]
        granularity = config.alpha_granularity
        total, units = combine_server_curves(
            [block.values[i] for i in sel], granularity
        )
        if total == NEG_INF:
            return None
        return _finish_placement(
            client,
            cluster_id,
            total,
            _block_entries(state, block, sel, units, granularity),
        )
    return _assign_distribute_scalar(state, client, cluster_id, eligible, config)


def _assign_distribute_scalar(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    eligible: Sequence[int],
    config: SolverConfig,
) -> Optional[CandidatePlacement]:
    """Reference path: per-server scalar curves + pure-Python DP."""
    # Memoize curves per (class, capacity signature): interchangeable
    # servers — typically the still-empty ones of a SKU — share one solve.
    cache: Dict[Tuple, Tuple[List[float], List[Tuple[float, float]]]] = {}
    curves: List[List[float]] = []
    share_tables: List[List[Tuple[float, float]]] = []
    server_ids: List[int] = []
    for sid in eligible:
        server = state.system.server(sid)
        key = (
            server.server_class.index,
            state.free_processing(sid),
            state.free_bandwidth(sid),
            state.free_storage(sid) >= client.storage_req,
            state.server_is_active(sid),
        )
        if key not in cache:
            cache[key] = _server_curves(state, client, sid, config)
        values, shares = cache[key]
        curves.append(values)
        share_tables.append(shares)
        server_ids.append(sid)

    total, units = combine_server_curves_scalar(curves, config.alpha_granularity)
    if total == NEG_INF:
        return None

    entries: Dict[int, EntryTriple] = {}
    for idx, g in enumerate(units):
        if g == 0:
            continue
        alpha = g / config.alpha_granularity
        phi_p, phi_b = share_tables[idx][g]
        entries[server_ids[idx]] = (alpha, phi_p, phi_b)
    return _finish_placement(client, cluster_id, total, entries)


def _client_curve_block(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    cache: MemoCache,
) -> CurveBlock:
    """The client's memoized curve matrix over the whole server universe.

    Validation is two-tier.  A vectorized compare of the block's stored
    epoch snapshot against the state's live epoch array narrows to the
    rows a mutation may have touched; those rows' stored capacity inputs
    are then compared *by value*, and only rows whose inputs actually
    changed are recomputed through :func:`_curves_at_indices` and patched
    in place.  The curve kernel is a pure element-wise function of the
    compared inputs, so every row served from the block — including rows
    whose epoch moved but whose inputs came back, e.g. after a rejected
    move's rollback or a snapshot restore — is bitwise the row a fresh
    full evaluation would produce.
    """
    token = cache.client_token(client)
    blocks = cache._blocks
    epochs = state._epoch_arr
    stats = cache.stats
    block = blocks.get(token[0])
    if block is not None and block.token == token:
        moved = np.nonzero(block.epochs != epochs)[0]
        if moved.size == 0:
            stats["curve_hits"] += 1
            return block
        cur_p = state._used_p_arr[moved]
        cur_b = state._used_b_arr[moved]
        cur_s = state._used_s_arr[moved]
        cur_act = state._hasbg_arr[moved] | (state._active_arr[moved] > 0)
        differs = (
            (block.in_p[moved] != cur_p)
            | (block.in_b[moved] != cur_b)
            | (block.in_s[moved] != cur_s)
            | (block.in_act[moved] != cur_act)
        )
        block.epochs[moved] = epochs[moved]
        if not differs.any():
            stats["curve_hits"] += 1
            return block
        changed = moved[differs]
        stats["curve_patches"] += 1
        values, phi_p, phi_b = _curves_at_indices(state, client, changed, config)
        block.values[changed] = values
        block.phi_p[changed] = phi_p
        block.phi_b[changed] = phi_b
        block.row_ok[changed] = values[:, 1:].max(axis=1) > NEG_INF
        block.in_p[changed] = cur_p[differs]
        block.in_b[changed] = cur_b[differs]
        block.in_s[changed] = cur_s[differs]
        block.in_act[changed] = cur_act[differs]
        block.placement = None
        return block
    stats["curve_misses"] += 1
    idx = np.arange(len(epochs), dtype=np.intp)
    values, phi_p, phi_b = _curves_at_indices(state, client, idx, config)
    block = CurveBlock(
        token,
        epochs.copy(),
        state._used_p_arr.copy(),
        state._used_b_arr.copy(),
        state._used_s_arr.copy(),
        state._hasbg_arr | (state._active_arr > 0),
        values,
        phi_p,
        phi_b,
        values[:, 1:].max(axis=1) > NEG_INF,
    )
    if len(blocks) >= MAX_CURVE_BLOCKS:
        blocks.clear()
        stats["evictions"] += 1
    blocks[token[0]] = block
    return block


def _block_entries(
    state: WorkingState,
    block: CurveBlock,
    sel: np.ndarray,
    units: Sequence[int],
    granularity: int,
) -> Dict[int, EntryTriple]:
    sid_order = state._sid_order
    entries: Dict[int, EntryTriple] = {}
    for i, g in zip(sel, units):
        if g == 0:
            continue
        entries[sid_order[i]] = (
            g / granularity,
            float(block.phi_p[i, g]),
            float(block.phi_b[i, g]),
        )
    return entries


def _finish_placement(
    client: Client,
    cluster_id: int,
    total: float,
    entries: Dict[int, EntryTriple],
) -> Optional[CandidatePlacement]:
    if not entries:
        return None
    linear = client.utility_class.linear_approximation()
    estimated = client.rate_agreed * linear.base_value + total
    return CandidatePlacement(
        client_id=client.client_id,
        cluster_id=cluster_id,
        estimated_profit=estimated,
        entries=entries,
    )


def apply_placement(state: WorkingState, placement: CandidatePlacement) -> None:
    """Write a placement into the working state (clearing prior entries)."""
    state.assign_client(placement.client_id, placement.cluster_id)
    state.clear_client(placement.client_id)
    for server_id, (alpha, phi_p, phi_b) in placement.entries.items():
        state.set_entry(placement.client_id, server_id, alpha, phi_p, phi_b)


def best_placement(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    cluster_ids: Optional[List[int]] = None,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> Optional[CandidatePlacement]:
    """``Assign_Distribute`` across clusters: pick the most profitable one.

    ``excluded_server_ids`` removes servers from every candidate cluster
    (the online service uses it to place around failed servers).
    """
    kids = list(cluster_ids or state.system.cluster_ids())
    excluded = excluded_server_ids or frozenset()
    if config.use_vectorized_kernels:
        return _best_placement_blocks(state, client, kids, config, excluded)
    candidates: List[CandidatePlacement] = []
    for cluster_id in kids:
        placement = assign_distribute(
            state, client, cluster_id, config, excluded_server_ids=excluded
        )
        if placement is not None:
            candidates.append(placement)
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.estimated_profit)


def estimate_marginal_profit(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> float:
    """Eq.-(16) estimate of the profit admitting ``client`` would add.

    A read-only probe: the value is the ``estimated_profit`` of the
    :func:`best_placement` the engine would commit for the client right
    now — revenue term plus the summed per-server curve contributions,
    activation power included — without touching the working state.  The
    probe reads (and warms) the same curve block the subsequent placement
    will use, so estimating then admitting costs one curve evaluation,
    not two.  Returns ``-inf`` when no feasible placement exists, so
    callers can distinguish "unprofitable" from "does not fit".
    """
    placement = best_placement(
        state, client, config, excluded_server_ids=excluded_server_ids
    )
    if placement is None:
        return NEG_INF
    return placement.estimated_profit


def _best_placement_blocks(
    state: WorkingState,
    client: Client,
    kids: List[int],
    config: SolverConfig,
    excluded: AbstractSet[int],
) -> Optional[CandidatePlacement]:
    """Production cross-cluster placement over the client's curve block.

    One block fetch covers every candidate cluster (curves depend on the
    (client, server) pair, never on cluster identity), then one lockstep
    :func:`~repro.optim.dp.combine_curve_batches` solves every cluster's
    DP over the rows that can take traffic.  The per-cluster DP and the
    first-maximum tie-break match the per-cluster loop of the scalar
    path, so this returns exactly what that loop would.

    The result is a function of the block's rows, the client (whose
    token the block carries), the candidate clusters and the exclusions,
    so a repeat call over an unpatched block — the online service's
    admission estimate followed by the placement it gates — returns the
    block's last placement instead of solving the DPs again.
    """
    block = _client_curve_block(state, client, config, state.cache)
    last = block.placement
    if last is not None and last[0] == kids and last[1] == excluded:
        return last[2]
    granularity = config.alpha_granularity
    cluster_lists = state.cluster_server_ids
    cluster_arrays = state.cluster_index_arrays
    row_ok = block.row_ok
    groups: List[np.ndarray] = []
    group_rows: List[Tuple[int, np.ndarray]] = []
    for kid in kids:
        if excluded:
            ids = [sid for sid in cluster_lists[kid] if sid not in excluded]
            if not ids:
                continue
            arr = state.server_indices(ids)
        else:
            arr = cluster_arrays[kid]
        sel = arr[row_ok[arr]]
        if sel.size == 0:
            continue
        groups.append(block.values[sel])
        group_rows.append((kid, sel))

    best: Optional[CandidatePlacement] = None
    for (kid, sel), (total, units) in zip(
        group_rows, combine_curve_batches(groups, granularity)
    ):
        if total == NEG_INF:
            continue
        placement = _finish_placement(
            client,
            kid,
            total,
            _block_entries(state, block, sel, units, granularity),
        )
        if placement is not None and (
            best is None or placement.estimated_profit > best.estimated_profit
        ):
            best = placement
    block.placement = (kids, frozenset(excluded), best)
    return best
