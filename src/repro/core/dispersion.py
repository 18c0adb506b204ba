"""``Adjust_DispersionRates`` — per-client traffic resplit (section V.B).

The dual of the share adjustment: with every GPS share frozen, the branch
service rates ``r^p = phi^p C^p / t^p`` and ``r^b = phi^b C^b / t^b`` are
constants and re-splitting the client's unit of traffic across its servers
is convex.  :func:`repro.optim.kkt.optimal_dispersion` solves it by nested
bisection; branches that end up with (numerically) zero traffic are
dropped, releasing their disk reservation and possibly letting a server
power off.

Like every improvement move, the result is committed only when the exact
evaluator agrees it does not lose profit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.audit.invariants import ACCEPT_TOLERANCE, NEGLIGIBLE_ALPHA
from repro.config import SolverConfig
from repro.core.scoring import score_state
from repro.core.state import WorkingState
from repro.optim.kkt import DispersionBranch, optimal_dispersion

#: Traffic portions below this are treated as "do not use the branch".
_NEGLIGIBLE_ALPHA = NEGLIGIBLE_ALPHA


def adjust_dispersion_rates(
    state: WorkingState,
    client_id: int,
    config: SolverConfig,
) -> float:
    """Re-split one client's traffic across its current servers.

    Returns the realized profit delta (0.0 when the client has fewer than
    two branches, the KKT system is infeasible, or the exact evaluation
    rejects the proposal).
    """
    entries = state.allocation.entries_of_client(client_id)
    if len(entries) < 2:
        return 0.0
    client = state.system.client(client_id)
    server_ids = sorted(entries)
    branches: List[DispersionBranch] = []
    for server_id in server_ids:
        entry = entries[server_id]
        server = state.system.server(server_id)
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
    if alphas is None:
        return 0.0

    before = score_state(state)
    previous: Dict[int, Tuple[float, float, float]] = {
        sid: (entries[sid].alpha, entries[sid].phi_p, entries[sid].phi_b)
        for sid in server_ids
    }
    for idx, server_id in enumerate(server_ids):
        alpha = alphas[idx]
        _, phi_p, phi_b = previous[server_id]
        if alpha <= _NEGLIGIBLE_ALPHA:
            state.remove_entry(client_id, server_id)
        else:
            state.set_entry(client_id, server_id, alpha, phi_p, phi_b)
    after = score_state(state)
    if after < before - ACCEPT_TOLERANCE:
        for server_id, (alpha, phi_p, phi_b) in previous.items():
            state.set_entry(client_id, server_id, alpha, phi_p, phi_b)
        return 0.0
    return after - before
