"""Incremental (delta) scoring of the working state.

:func:`repro.core.scoring.score` re-evaluates the whole datacenter —
every client's tandem queues, every server's energy bill, every hard
constraint — on each accept-if-better gate.  A local-search pass asks
that question twice per client move, turning one pass into an
``O(clients * system)`` affair.  :class:`DeltaScorer` brings the gate
down to ``O(touched clients + touched servers)``:

* :class:`~repro.core.state.WorkingState` marks every client and server
  a mutation touches (see ``WorkingState.attach_scorer``);
* the scorer keeps, per client, the revenue term of
  :func:`~repro.model.profit.evaluate_profit` and a hard-violation flag
  (traffic sum, cluster membership, queue stability), and per server the
  energy cost and a capacity/storage violation flag;
* a profit query lazily re-derives only the dirty entities, updates the
  running totals with compensated (Kahan) summation so thousands of
  incremental updates cannot drift past the 1e-9 agreement bound, and
  returns ``-inf`` whenever any violation flag is up — exactly the
  contract of :func:`repro.core.scoring.score` with
  ``require_all_served=False`` semantics.

:mod:`repro.model.profit` remains the single source of truth: the
per-client revenue is computed by the same
:func:`~repro.model.profit.response_time_of_entries` kernel the full
evaluator uses, and with ``validate=True`` every query is checked
against the full evaluator (wired to
``SolverConfig.validate_delta_scoring``).

All mutations must flow through ``WorkingState``'s mutators (which is
how every solver move is written).  Edits that bypass the state — calling
the underlying :class:`~repro.model.Allocation`'s mutators directly, or
assigning a stored entry's ``alpha``/``phi_p``/``phi_b`` in place — are
*detected* rather than silently mis-scored: every allocation mutation
bumps :attr:`~repro.model.allocation.Allocation.mutation_epoch`, the
scorer records the epoch of the last mutation the state told it about,
and a profit/feasibility query whose epoch it has not observed raises
:class:`~repro.exceptions.SolverError`.
"""

from __future__ import annotations

import math
from typing import Dict, Set

from repro.audit.invariants import AGREEMENT_TOLERANCE, FEASIBILITY_TOLERANCE
from repro.core.state import WorkingState
from repro.exceptions import SolverError
from repro.model.profit import response_time_of_entries

_NEG_INF = float("-inf")

__all__ = ["AGREEMENT_TOLERANCE", "DeltaScorer"]


class _KahanSum:
    """Compensated running sum: error stays O(ulp) regardless of updates."""

    __slots__ = ("value", "_compensation")

    def __init__(self) -> None:
        self.value = 0.0
        self._compensation = 0.0

    def add(self, delta: float) -> None:
        y = delta - self._compensation
        t = self.value + y
        self._compensation = (t - self.value) - y
        self.value = t


class DeltaScorer:
    """Maintains ``score(system, allocation)`` under WorkingState mutations."""

    def __init__(
        self,
        state: WorkingState,
        validate: bool = False,
        tolerance: float = FEASIBILITY_TOLERANCE,
    ) -> None:
        self.state = state
        self.validate = validate
        self.tolerance = tolerance
        self._cluster_ids = set(state.system.cluster_ids())
        self._client_revenue: Dict[int, float] = {
            cid: 0.0 for cid in state.system.client_ids()
        }
        self._client_bad: Dict[int, bool] = {
            cid: False for cid in self._client_revenue
        }
        self._server_cost: Dict[int, float] = {
            s.server_id: 0.0 for s in state.system.servers()
        }
        self._server_bad: Dict[int, bool] = {sid: False for sid in self._server_cost}
        self._revenue = _KahanSum()
        self._cost = _KahanSum()
        self._bad_count = 0
        self._dirty_clients: Set[int] = set()
        self._dirty_servers: Set[int] = set()
        self._observed_epoch = state.allocation.mutation_epoch
        self.mark_all()
        state.attach_scorer(self)

    # -- dirty tracking (called by WorkingState) -----------------------------

    def _observe_epoch(self) -> None:
        self._observed_epoch = self.state.allocation.mutation_epoch

    def mark_client(self, client_id: int) -> None:
        self._dirty_clients.add(client_id)
        self._observe_epoch()

    def mark_server(self, server_id: int) -> None:
        self._dirty_servers.add(server_id)
        self._observe_epoch()

    def mark_all(self) -> None:
        self._dirty_clients = set(self._client_revenue)
        self._dirty_servers = set(self._server_cost)
        self._observe_epoch()

    def observe(self) -> None:
        """Acknowledge an epoch bump that changed no decision values.

        ``Allocation.canonicalize`` reorders internal dicts without touching
        any entry, so there is nothing to mark dirty — but the epoch moved
        and queries would otherwise raise.
        """
        self._observe_epoch()

    # -- dynamic membership (online service hooks) ---------------------------

    def register_client(self, client_id: int) -> None:
        """Start tracking a client admitted after construction.

        Idempotent; the client is marked dirty so its first profit query
        derives its terms from scratch.
        """
        if client_id not in self._client_revenue:
            self._client_revenue[client_id] = 0.0
            self._client_bad[client_id] = False
        self.mark_client(client_id)

    def deregister_client(self, client_id: int) -> None:
        """Stop tracking a departed client, retiring its profit terms.

        The caller must have already removed the client's entries (its
        revenue contribution is rolled out of the running totals here, so
        any remaining entries would double-count).
        """
        if client_id not in self._client_revenue:
            return
        self._revenue.add(-self._client_revenue.pop(client_id))
        self._bad_count -= self._client_bad.pop(client_id)
        self._dirty_clients.discard(client_id)
        self._observe_epoch()

    # -- queries -------------------------------------------------------------

    def profit(self) -> float:
        """Total profit, or ``-inf`` on any hard violation.

        Equivalent to :func:`repro.core.scoring.score` on the current
        allocation, at ``O(dirty)`` cost.
        """
        self._check_epoch()
        self._refresh()
        if self._bad_count:
            value = _NEG_INF
        else:
            value = self._revenue.value - self._cost.value
        if self.validate:
            self._assert_matches(value)
        return value

    def feasible(self) -> bool:
        self._check_epoch()
        self._refresh()
        return self._bad_count == 0

    def resync(self) -> None:
        """Rebuild the running sums canonically (sorted order, fresh
        compensation).

        Two scorers over bit-identical state but different mutation
        histories accumulate their Kahan sums in different orders and so
        can disagree at the ulp level.  The online service calls this at
        every event boundary so a killed-and-restored engine (whose scorer
        starts fresh) continues bit-identically to one that never died.
        """
        self._check_epoch()
        self._refresh()
        revenue = _KahanSum()
        cost = _KahanSum()
        bad = 0
        for cid in sorted(self._client_revenue):
            revenue.add(self._client_revenue[cid])
            bad += self._client_bad[cid]
        for sid in sorted(self._server_cost):
            cost.add(self._server_cost[sid])
            bad += self._server_bad[sid]
        self._revenue = revenue
        self._cost = cost
        self._bad_count = bad

    # -- internals -----------------------------------------------------------

    def _check_epoch(self) -> None:
        current = self.state.allocation.mutation_epoch
        if current != self._observed_epoch:
            raise SolverError(
                "allocation mutated behind the working state's back: the "
                f"scorer observed epoch {self._observed_epoch} but the "
                f"allocation is at epoch {current}; route every edit "
                "through WorkingState's mutators (or call mark_all)"
            )

    def _refresh(self) -> None:
        # Sorted iteration: the Kahan accumulation order must be a function
        # of *which* entities are dirty, not of set-hashing history, or two
        # engines replaying the same events could drift at the ulp level.
        if self._dirty_clients:
            for client_id in sorted(self._dirty_clients):
                revenue, bad = self._client_terms(client_id)
                self._revenue.add(revenue - self._client_revenue[client_id])
                self._client_revenue[client_id] = revenue
                self._bad_count += bad - self._client_bad[client_id]
                self._client_bad[client_id] = bad
            self._dirty_clients.clear()
        if self._dirty_servers:
            for server_id in sorted(self._dirty_servers):
                cost, bad = self._server_terms(server_id)
                self._cost.add(cost - self._server_cost[server_id])
                self._server_cost[server_id] = cost
                self._bad_count += bad - self._server_bad[server_id]
                self._server_bad[server_id] = bad
            self._dirty_servers.clear()

    def _client_terms(self, client_id: int) -> "tuple[float, bool]":
        """(revenue, violated) for one client — mirrors evaluate_profit +
        the client/entry blocks of find_violations (require_all_served=False)."""
        state = self.state
        system = state.system
        allocation = state.allocation
        client = system.client(client_id)
        # Entry iteration order is deterministic without a per-query sort:
        # the service canonicalizes the allocation (sorted dicts) at every
        # event boundary, and all mutations in between are deterministic,
        # so two engines replaying the same events see identical orders.
        entries = allocation.entries_of_client(client_id)
        total_alpha = sum(entry.alpha for entry in entries.values())
        served = bool(entries) and total_alpha > 0.0

        response = (
            response_time_of_entries(system, client, entries, client.rate_predicted)
            if served
            else math.inf
        )
        utility_value = client.utility_class.function.value(response)
        revenue = client.rate_agreed * utility_value
        if math.isinf(response) and math.isinf(utility_value):
            revenue = 0.0

        bad = False
        cluster_id = allocation.cluster_of.get(client_id)
        if cluster_id is not None:
            if cluster_id not in self._cluster_ids:
                bad = True
            elif entries:
                if abs(total_alpha - 1.0) > self.tolerance:
                    bad = True
                else:
                    for server_id in entries:
                        if system.cluster_of_server(server_id) != cluster_id:
                            bad = True
                            break
        if not bad:
            # Constraint (7): both M/M/1 queues of every branch stable.
            for server_id, entry in entries.items():
                if entry.alpha <= 0.0:
                    continue
                server = system.server(server_id)
                arrival = entry.alpha * client.rate_predicted
                if (
                    entry.phi_p * server.cap_processing / client.t_proc <= arrival
                    or entry.phi_b * server.cap_bandwidth / client.t_comm <= arrival
                ):
                    bad = True
                    break
        return revenue, bad

    def _server_terms(self, server_id: int) -> "tuple[float, bool]":
        """(cost, violated) for one server — mirrors evaluate_profit + the
        server block of find_violations, using the O(1) state aggregates."""
        state = self.state
        server = state.system.server(server_id)
        util_p = state.used_processing(server_id) + server.background_processing
        util_b = state.used_bandwidth(server_id) + server.background_bandwidth
        cost = 0.0
        if state.server_is_active(server_id):
            cost = (
                server.server_class.power_fixed
                + server.server_class.power_per_util * min(util_p, 1.0)
            )
        bad = (
            util_p > 1.0 + self.tolerance
            or util_b > 1.0 + self.tolerance
            or (
                server.background_storage + state.used_storage(server_id)
                > server.cap_storage + self.tolerance
            )
        )
        return cost, bad

    def _assert_matches(self, value: float) -> None:
        # Local import: scoring imports model.profit, delta is imported by
        # the move modules — keep the validate-only dependency lazy.
        from repro.core.scoring import score

        reference = score(self.state.system, self.state.allocation)
        if math.isinf(value) or math.isinf(reference):
            if value != reference:
                raise SolverError(
                    f"delta scorer disagrees with evaluate_profit: "
                    f"delta={value}, full={reference}"
                )
            return
        if abs(value - reference) > AGREEMENT_TOLERANCE:
            raise SolverError(
                f"delta scorer drifted from evaluate_profit: "
                f"delta={value!r}, full={reference!r}, "
                f"diff={value - reference:.3e}"
            )
