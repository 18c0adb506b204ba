"""Grid dynamic program for combining per-server profit curves.

``Assign_Distribute`` (section V.A) evaluates, for each candidate server,
the best achievable profit when the server carries ``g / G`` of a client's
traffic (``g = 0 .. G``).  The per-server curves are then combined by a
dynamic program that picks one grid point per server such that the chosen
traffic portions sum to exactly 1 (``sum_j alpha_ij = 1``) and the total
profit is maximal — a bounded-knapsack-style DP in ``O(J * G^2)``.

:func:`combine_server_curves` is the production kernel and adapts its
strategy to the problem size, because the three regimes have very
different constant factors:

* **one curve** — the recurrence degenerates to reading ``curve[G]``;
  answered directly;
* **small problems** (``J * (G+1)^2`` cells below
  :data:`SCALAR_CROSSOVER_CELLS`) — a pure-Python loop over plain floats.
  At the paper's default ``G = 10`` a typical cluster DP is a few hundred
  cells, where NumPy's per-call dispatch overhead exceeds the whole
  scalar solve (the PR-1 benchmark measured the array kernel at
  0.84–1.0x of scalar on these sizes);
* **large problems** — the inner ``O(G^2)`` max-plus step evaluated as a
  NumPy sliding-window maximum: the candidate matrix
  ``candidate[u, k] = best[u - k] + curve[k]`` is materialized as a
  stride-tricks window view over the reversed, ``-inf``-padded ``best``
  vector (no index gather), and ``argmax`` matches the scalar tie-break
  (smallest unit count wins).

All three produce bit-identical results: the same IEEE-754 additions on
the same operands, and the same first-maximum tie-break
(property-tested; ``benchmarks/check_regression.py`` additionally
asserts the adaptive choice is never slower than the scalar reference).

:func:`combine_curve_batches` solves *many* independent DPs in lockstep —
one gather-indexed recurrence stepping every batch member at once, padded
to the widest member.  ``best_placement`` uses it to fold all of a
client's candidate clusters (see ALGORITHMS.md §14) into a single
call, amortizing the array dispatch overhead that
motivates the scalar crossover above.  Same operands, same tie-break:
batch results are bit-identical to per-cluster solves.

:func:`combine_server_curves_scalar` remains the frozen reference oracle
and :func:`brute_force_combination` the exponential test reference.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import SolverError

NEG_INF = float("-inf")

#: Below this many DP cells (curves x (G+1)^2) the plain-Python loop wins;
#: measured on the benchmark host (see ALGORITHMS.md §14).
SCALAR_CROSSOVER_CELLS = 6000


def _check_inputs(curves: Sequence[Sequence[float]], granularity: int) -> None:
    if granularity < 1:
        raise SolverError(f"granularity must be >= 1, got {granularity}")
    for j, curve in enumerate(curves):
        if len(curve) != granularity + 1:
            raise SolverError(
                f"curve {j} has {len(curve)} points, expected {granularity + 1}"
            )


def _reconstruct(
    choices: Sequence[Sequence[int]], granularity: int
) -> List[int]:
    units = [0] * len(choices)
    remaining = granularity
    for j in range(len(choices) - 1, -1, -1):
        units[j] = int(choices[j][remaining])
        remaining -= units[j]
    if remaining != 0:
        raise SolverError("DP reconstruction failed to consume all grid units")
    return units


def combine_server_curves(
    curves: Sequence[Sequence[float]],
    granularity: int,
) -> Tuple[float, List[int]]:
    """Pick one grid point per curve so the points sum to ``granularity``.

    Args:
        curves: ``curves[j][g]`` is the profit of routing ``g`` grid units
            of traffic to server ``j``; use ``-inf`` for impossible points.
            Index 0 (no traffic) should normally be 0.
        granularity: the grid size ``G``; chosen units must sum to exactly
            ``G``.

    Returns:
        ``(best_total, units)`` where ``units[j]`` is the grid allocation
        of server ``j``.  ``best_total`` is ``-inf`` when no combination is
        feasible.
    """
    _check_inputs(curves, granularity)
    if not curves:
        return NEG_INF, []
    if len(curves) == 1:
        # One curve must carry everything: the recurrence collapses to
        # best[G] = 0.0 + curve[G] (the explicit 0.0 + keeps the -0.0
        # corner bitwise-faithful to the full DP).
        total = float(0.0 + curves[0][granularity])
        if total == NEG_INF:
            return NEG_INF, [0]
        return total, [granularity]
    size = granularity + 1
    if len(curves) * size * size <= SCALAR_CROSSOVER_CELLS:
        return _combine_scalar_core(
            [
                curve.tolist() if isinstance(curve, np.ndarray) else list(curve)
                for curve in curves
            ],
            granularity,
        )
    return _combine_vectorized(curves, granularity)


def _combine_vectorized(
    curves: Sequence[Sequence[float]],
    granularity: int,
) -> Tuple[float, List[int]]:
    """Sliding-window max-plus evaluation of the DP recurrence."""
    size = granularity + 1
    pad = np.full(size - 1, NEG_INF)
    best = np.full(size, NEG_INF)
    best[0] = 0.0
    choices = np.empty((len(curves), size), dtype=np.intp)
    for j, curve in enumerate(curves):
        values = np.asarray(curve, dtype=np.float64)
        # window u of the reversed padded vector is exactly
        # [best[u], best[u-1], ..., best[0], -inf, ...], so
        # candidate[u, k] = best[u - k] + curve[k] with -inf marking the
        # k > u region — the same matrix the O(G^2) loop scans.
        padded = np.concatenate((best[::-1], pad))
        candidate = sliding_window_view(padded, size)[::-1] + values[None, :]
        # argmax returns the first maximal k — same tie-break as the scalar
        # loop's strict-improvement scan, and 0 for all-infeasible rows.
        choices[j] = np.argmax(candidate, axis=1)
        best = np.max(candidate, axis=1)

    total = float(best[granularity])
    if total == NEG_INF:
        return NEG_INF, [0] * len(curves)
    return total, _reconstruct(choices, granularity)


def combine_curve_batches(
    groups: Sequence[np.ndarray],
    granularity: int,
) -> List[Tuple[float, List[int]]]:
    """Solve many independent curve-combination DPs in lockstep.

    ``groups[k]`` is a ``(J_k, G + 1)`` float64 matrix holding one DP's
    curves (``J_k >= 1``); the return value carries one
    ``(best_total, units)`` pair per group, each bitwise identical to
    ``combine_server_curves(groups[k], granularity)``.

    ``best_placement`` evaluates one small DP per candidate cluster; at
    the paper's ``G = 10`` each is a few hundred cells, so per-call
    dispatch — not arithmetic — dominates both the scalar and the
    vectorized single-DP kernels.  Stacking the groups lets every
    recurrence step run as one set of array operations over all groups:
    the same sliding-window max-plus step as :func:`_combine_vectorized`,
    which is row-independent, so group ``k``'s lane computes exactly what
    the single-group kernel would.  Groups shorter than the deepest one
    are padded with ``-inf`` curve rows and their lanes frozen by mask
    (never by arithmetic, which could flip ``-0.0``).
    """
    count = len(groups)
    if count == 0:
        return []
    size = granularity + 1
    depths = [group.shape[0] for group in groups]
    deepest = max(depths)
    stacked = np.full((count, deepest, size), NEG_INF)
    for k, group in enumerate(groups):
        stacked[k, : depths[k]] = group
    depths_arr = np.array(depths)

    # candidate[u, k] = best[u - k] + curve[k]: realized as one fancy-index
    # gather over a left-(-inf)-padded copy of ``best`` (index u - k
    # shifted by the pad width; negative u - k lands in the pad), which
    # sidesteps the per-step Python cost of a sliding-window view.
    grid = np.arange(size)
    gather = (size - 1) + grid[:, None] - grid[None, :]
    padded = np.full((count, 2 * size - 1), NEG_INF)

    best = np.full((count, size), NEG_INF)
    best[:, 0] = 0.0
    choices = np.zeros((count, deepest, size), dtype=np.intp)
    for j in range(deepest):
        padded[:, size - 1 :] = best
        candidate = padded[:, gather]
        candidate += stacked[:, j, None, :]
        choices[:, j, :] = candidate.argmax(axis=2)
        stepped = candidate.max(axis=2)
        # Exhausted groups keep their final vector; the -inf padding row
        # already made their lanes all -inf, so masking (a bitwise copy)
        # restores them exactly.
        best = np.where((depths_arr > j)[:, None], stepped, best)

    results: List[Tuple[float, List[int]]] = []
    for k, depth in enumerate(depths):
        total = float(best[k, granularity])
        if total == NEG_INF:
            results.append((NEG_INF, [0] * depth))
        else:
            results.append((total, _reconstruct(choices[k, :depth], granularity)))
    return results


def _combine_scalar_core(
    curves: Sequence[Sequence[float]],
    granularity: int,
) -> Tuple[float, List[int]]:
    """The O(J * G^2) reference recurrence over plain Python floats."""
    # best[u] = best profit achieving u units with the servers seen so far.
    best = [NEG_INF] * (granularity + 1)
    best[0] = 0.0
    # choices[j][u] = units given to server j in the best solution for u.
    choices: List[List[int]] = []

    for curve in curves:
        new_best = [NEG_INF] * (granularity + 1)
        choice_row = [0] * (granularity + 1)
        for used in range(granularity + 1):
            top = NEG_INF
            top_units = 0
            for units in range(used + 1):
                prior = best[used - units]
                value = curve[units]
                if prior == NEG_INF or value == NEG_INF:
                    continue
                candidate = prior + value
                if candidate > top:
                    top = candidate
                    top_units = units
            new_best[used] = top
            choice_row[used] = top_units
        best = new_best
        choices.append(choice_row)

    total = best[granularity]
    if total == NEG_INF:
        return NEG_INF, [0] * len(curves)
    return total, _reconstruct(choices, granularity)


def combine_server_curves_scalar(
    curves: Sequence[Sequence[float]],
    granularity: int,
) -> Tuple[float, List[int]]:
    """Pure-Python reference implementation of :func:`combine_server_curves`."""
    _check_inputs(curves, granularity)
    if not curves:
        return NEG_INF, []
    return _combine_scalar_core(curves, granularity)


def brute_force_combination(
    curves: Sequence[Sequence[float]],
    granularity: int,
) -> Tuple[float, List[int]]:
    """Exponential reference for :func:`combine_server_curves` (tests only)."""
    if not curves:
        return NEG_INF, []

    best_total = NEG_INF
    best_units: List[int] = [0] * len(curves)

    def recurse(j: int, remaining: int, acc: float, units: List[int]) -> None:
        nonlocal best_total, best_units
        if j == len(curves):
            if remaining == 0 and acc > best_total:
                best_total = acc
                best_units = list(units)
            return
        for g in range(remaining + 1):
            value = curves[j][g]
            if value == NEG_INF:
                continue
            units.append(g)
            recurse(j + 1, remaining - g, acc + value, units)
            units.pop()

    recurse(0, granularity, 0.0, [])
    return best_total, best_units
