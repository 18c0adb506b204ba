"""The eq.-(16) curve store of ``Assign_Distribute``.

Every candidate move of the local search and every admit of the online
service probes clients against clusters through
:func:`repro.core.assign.best_placement`, and most probes see servers
whose capacity has not changed since the last probe of the same client.
:class:`MemoCache` keeps, per client, the eq.-(16) force-profit curves
(:func:`repro.core.assign.batched_server_curves`) over the whole server
universe as one :class:`CurveBlock`, and serves them again when their
inputs are unchanged.  The paper memoizes these curves within one
``Assign_Distribute`` call; this store carries that memo across calls.
Each block also keeps the last cross-cluster placement solved over it,
dropped whenever a row is recomputed: the online service's admission
estimate and the placement it gates probe one client twice against an
unchanged block.  Nothing else downstream of the curves (per-cluster
DPs, activation profiles, share bounds, dispersion resplits) is
memoized.

The store is *bitwise transparent*: a served row is exactly the row a
fresh evaluation would produce, so the scalar reference path and the
production path agree bit for bit (differentially verified).  Validation
is two-tier:

* a vectorized compare of the block's stored per-server *mutation epoch*
  snapshot against the state's live epochs proves untouched rows
  current;
* rows whose epoch moved are compared **by value** against the capacity
  inputs (used processing/bandwidth/storage, activity) they were
  computed from, and only rows whose inputs differ are recomputed.

Value comparison is what decides, so the unassign/rollback churn of the
local search — which returns the aggregates to bitwise the same values —
revalidates blocks instead of discarding them, and a
``restore``/``canonicalize`` (which bumps every epoch) costs one value
recheck rather than a rebuild.  The client side of the key is a **rate
epoch** token that bumps whenever the client object's parameters change
(rate updates in the online service).  Blocks do not key on the
:class:`~repro.config.SolverConfig`: a store serves one configuration's
curve inputs, and a caller that changes them — the sharded runtime on a
bandwidth-price change — clears the store.

Crossing :data:`MAX_CURVE_BLOCKS` clears the store.  Clearing is always
safe — the store is an accelerator, never a source of truth.  Every
:class:`~repro.core.state.WorkingState` owns one store (epochs are
state-local); only the vectorized kernels consult it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.client import Client

#: Curve blocks one store keeps; adding one more clears the store.
MAX_CURVE_BLOCKS = 200_000


class CurveBlock:
    """One client's memoized curve matrix over the whole server universe.

    ``epochs`` snapshots every server's mutation epoch at the moment its
    row was last validated: an unchanged epoch proves the row untouched.
    ``in_p``/``in_b``/``in_s``/``in_act`` snapshot the exact aggregate
    inputs the row was computed from; when an epoch moved, the row is
    recomputed only if those inputs differ by value (the curve kernel is
    a pure element-wise function of them, so equal inputs mean the
    stored row is bitwise what a fresh evaluation would produce).
    ``row_ok`` caches the per-row takes-traffic predicate the DP pruning
    reads on every lookup.  ``placement`` keeps the last cross-cluster
    placement solved over the block as ``(clusters, excluded servers,
    result)``; it is dropped whenever a row is recomputed, so it is only
    ever served over the exact rows it was solved from.
    """

    __slots__ = (
        "token",
        "epochs",
        "in_p",
        "in_b",
        "in_s",
        "in_act",
        "values",
        "phi_p",
        "phi_b",
        "row_ok",
        "placement",
    )

    def __init__(
        self,
        token: Tuple[int, int],
        epochs: np.ndarray,
        in_p: np.ndarray,
        in_b: np.ndarray,
        in_s: np.ndarray,
        in_act: np.ndarray,
        values: np.ndarray,
        phi_p: np.ndarray,
        phi_b: np.ndarray,
        row_ok: np.ndarray,
    ) -> None:
        self.token = token
        self.epochs = epochs
        self.in_p = in_p
        self.in_b = in_b
        self.in_s = in_s
        self.in_act = in_act
        self.values = values
        self.phi_p = phi_p
        self.phi_b = phi_b
        self.row_ok = row_ok
        self.placement: Optional[Tuple] = None


class MemoCache:
    """Bitwise-transparent store of per-client eq.-(16) curve blocks."""

    def __init__(self) -> None:
        #: ``client_id -> CurveBlock`` (one block per client).
        self._blocks: Dict[int, CurveBlock] = {}
        #: ``client_id -> (client object, rate epoch)``.
        self._client_tokens: Dict[int, Tuple["Client", int]] = {}
        self.stats: Dict[str, int] = {
            "curve_hits": 0,
            "curve_patches": 0,
            "curve_misses": 0,
            "evictions": 0,
            "client_epoch_bumps": 0,
        }

    def client_token(self, client: "Client") -> Tuple[int, int]:
        """``(client_id, rate_epoch)`` identity for curve keys.

        The epoch bumps whenever the client *object* for this id changes
        in any field (the online service swaps the spec on rate updates),
        so curves priced against the old rates become unreachable.  Same
        object — or an equal one — keeps the epoch, making the common
        case one identity comparison.
        """
        client_id = client.client_id
        token = self._client_tokens.get(client_id)
        if token is not None:
            stored, epoch = token
            if stored is client:
                return client_id, epoch
            if stored == client:
                self._client_tokens[client_id] = (client, epoch)
                return client_id, epoch
            epoch += 1
            self.stats["client_epoch_bumps"] += 1
            self._client_tokens[client_id] = (client, epoch)
            return client_id, epoch
        self._client_tokens[client_id] = (client, 0)
        return client_id, 0

    def invalidate_client(self, client_id: int) -> None:
        """Explicitly retire every block derived from this client."""
        token = self._client_tokens.get(client_id)
        if token is not None:
            self.stats["client_epoch_bumps"] += 1
            self._client_tokens[client_id] = (token[0], token[1] + 1)

    def clear(self) -> None:
        """Drop every block (token epochs survive, so keys stay fresh)."""
        self._blocks.clear()
