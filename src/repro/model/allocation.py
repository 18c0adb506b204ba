"""Allocation state: the optimization problem's decision variables.

An :class:`Allocation` holds, for one decision epoch:

* ``x_ik`` — which cluster each client is assigned to (``cluster_of``);
* ``alpha_ij`` — the portion of each client's requests sent to each server;
* ``phi^p_ij / phi^b_ij`` — the GPS shares of processing / bandwidth each
  server grants each client.

The disk share ``phi^m_ij`` is not stored: per constraint (8) it is fully
determined as ``m_i / C^m_j`` on every server with ``alpha_ij > 0``.

Server on/off state (``y_j``) is derived: a server is ON iff it carries any
positive share (constraint (3) with an infinitesimal epsilon) or any
background load.

The container keeps a reverse index (server -> clients) so the heuristic's
per-server moves are O(clients on that server), not O(all clients).

Every mutation — structural (entries, cluster bindings) or an in-place
edit of a stored entry's ``alpha``/``phi_p``/``phi_b`` — bumps a cheap
**mutation epoch** counter.  Incremental observers (the
:class:`~repro.core.delta.DeltaScorer`) record the epoch of the last
mutation they were notified about and refuse to answer queries once the
allocation has moved past it, turning the silent-staleness failure mode
into a loud :class:`~repro.exceptions.SolverError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ModelError


class _EpochBox:
    """Shared mutation counter: an Allocation and its stored entries all
    bump the same cell, so observers need one integer compare to detect
    *any* edit — including attribute writes that bypass the container."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


#: ServerAllocation fields whose in-place edits count as mutations.
_TRACKED_FIELDS = frozenset({"alpha", "phi_p", "phi_b"})


@dataclass
class ServerAllocation:
    """The (alpha, phi^p, phi^b) triple for one client on one server."""

    alpha: float
    phi_p: float
    phi_b: float

    def __post_init__(self) -> None:
        self.validate()

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        # Entries stored in an Allocation carry its epoch box; writing a
        # decision field in place is a mutation the owner must see.
        if name in _TRACKED_FIELDS:
            box = getattr(self, "_epoch_box", None)
            if box is not None:
                box.value += 1

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0 + 1e-12:
            raise ModelError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.phi_p < 0.0 or self.phi_b < 0.0:
            raise ModelError(
                f"shares must be >= 0, got phi_p={self.phi_p}, phi_b={self.phi_b}"
            )

    def copy(self) -> "ServerAllocation":
        return ServerAllocation(self.alpha, self.phi_p, self.phi_b)


class AllocationRows(NamedTuple):
    """Struct-of-arrays snapshot of an :class:`Allocation`.

    Two parallel tables: the *assignment* table binds clients to clusters
    (``x_ik``) and the *entry* table holds one row per (client, server)
    decision triple, in the allocation's client-major iteration order.
    The arrays pickle as flat buffers, concatenate with
    :meth:`concatenate`, and rebuild into dict form with
    :meth:`Allocation.from_rows` — which is what makes shard shipping and
    shard merging O(rows) NumPy work instead of per-client dict traversal.
    """

    assign_clients: np.ndarray  # int64 (A,) client ids with a cluster binding
    assign_clusters: np.ndarray  # int64 (A,) their cluster ids
    entry_clients: np.ndarray  # int64 (E,) client id per entry row
    entry_servers: np.ndarray  # int64 (E,) server id per entry row
    alpha: np.ndarray  # float64 (E,)
    phi_p: np.ndarray  # float64 (E,)
    phi_b: np.ndarray  # float64 (E,)

    @property
    def num_assigned(self) -> int:
        return int(self.assign_clients.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_clients.shape[0])

    @staticmethod
    def concatenate(parts: Sequence["AllocationRows"]) -> "AllocationRows":
        """Merge row tables whose client sets are disjoint (shard merge)."""
        if not parts:
            return _empty_rows()
        return AllocationRows(
            *(np.concatenate([getattr(p, f) for p in parts]) for f in AllocationRows._fields)
        )


def _empty_rows() -> AllocationRows:
    return AllocationRows(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
    )


class Allocation:
    """Mutable allocation state for one decision epoch.

    The class enforces *structural* consistency (a client has entries only
    on servers, never dangling reverse-index rows); *numerical* feasibility
    (share sums, stability, alpha summing to 1) is checked separately by
    :mod:`repro.audit.invariants` so that solvers may pass through
    transient infeasible states while rearranging.
    """

    def __init__(self) -> None:
        self.cluster_of: Dict[int, int] = {}
        self._entries: Dict[int, Dict[int, ServerAllocation]] = {}
        self._clients_on_server: Dict[int, Set[int]] = {}
        self._epoch = _EpochBox()

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter bumped by every mutation (see module docs)."""
        return self._epoch.value

    # -- client/cluster assignment ---------------------------------------

    def assign_client(self, client_id: int, cluster_id: int) -> None:
        """Bind a client to a cluster (its per-server entries start empty).

        Re-assigning to a different cluster drops all existing entries,
        because constraint (6) forbids serving from two clusters at once.
        """
        previous = self.cluster_of.get(client_id)
        if previous is not None and previous != cluster_id:
            self.clear_client(client_id)
        self.cluster_of[client_id] = cluster_id
        self._epoch.value += 1

    def unassign_client(self, client_id: int) -> None:
        """Remove a client from the allocation entirely."""
        self.clear_client(client_id)
        self.cluster_of.pop(client_id, None)
        self._epoch.value += 1

    def clear_client(self, client_id: int) -> None:
        """Drop all per-server entries of a client, keeping its cluster binding."""
        for server_id in list(self._entries.get(client_id, ())):
            self.remove_entry(client_id, server_id)

    def is_assigned(self, client_id: int) -> bool:
        return client_id in self.cluster_of

    # -- per-server entries ------------------------------------------------

    def set_entry(
        self,
        client_id: int,
        server_id: int,
        alpha: float,
        phi_p: float,
        phi_b: float,
    ) -> None:
        """Create or overwrite the (alpha, phi) entry of a client on a server."""
        if client_id not in self.cluster_of:
            raise ModelError(
                f"client {client_id} must be assigned to a cluster before "
                "receiving server entries"
            )
        entry = ServerAllocation(alpha=alpha, phi_p=phi_p, phi_b=phi_b)
        entry._epoch_box = self._epoch
        self._entries.setdefault(client_id, {})[server_id] = entry
        self._clients_on_server.setdefault(server_id, set()).add(client_id)
        self._epoch.value += 1

    def remove_entry(self, client_id: int, server_id: int) -> None:
        per_client = self._entries.get(client_id)
        if per_client is None or server_id not in per_client:
            return
        del per_client[server_id]
        if not per_client:
            del self._entries[client_id]
        clients = self._clients_on_server.get(server_id)
        if clients is not None:
            clients.discard(client_id)
            if not clients:
                del self._clients_on_server[server_id]
        self._epoch.value += 1

    def entry(self, client_id: int, server_id: int) -> Optional[ServerAllocation]:
        return self._entries.get(client_id, {}).get(server_id)

    def entries_of_client(self, client_id: int) -> Dict[int, ServerAllocation]:
        """server_id -> entry for one client (read-only view by convention)."""
        return self._entries.get(client_id, {})

    def clients_on_server(self, server_id: int) -> Set[int]:
        return self._clients_on_server.get(server_id, set())

    def iter_entries(self) -> Iterator[Tuple[int, int, ServerAllocation]]:
        """Yield (client_id, server_id, entry) across the whole allocation."""
        for client_id, per_client in self._entries.items():
            for server_id, entry in per_client.items():
                yield client_id, server_id, entry

    # -- aggregates ---------------------------------------------------------

    def server_share_totals(self, server_id: int) -> Tuple[float, float]:
        """(sum phi^p, sum phi^b) granted by a server to cloud clients."""
        total_p = 0.0
        total_b = 0.0
        for client_id in self._clients_on_server.get(server_id, ()):
            entry = self._entries[client_id][server_id]
            total_p += entry.phi_p
            total_b += entry.phi_b
        return total_p, total_b

    def total_alpha(self, client_id: int) -> float:
        """Sum of the client's traffic portions (1.0 when fully served)."""
        return sum(e.alpha for e in self._entries.get(client_id, {}).values())

    def server_is_used(self, server_id: int) -> bool:
        """True when any client entry with positive share/traffic sits here."""
        for client_id in self._clients_on_server.get(server_id, ()):
            entry = self._entries[client_id][server_id]
            if entry.alpha > 0.0 or entry.phi_p > 0.0 or entry.phi_b > 0.0:
                return True
        return False

    def used_server_ids(self) -> Set[int]:
        return {sid for sid in self._clients_on_server if self.server_is_used(sid)}

    def assigned_client_ids(self) -> List[int]:
        return list(self.cluster_of)

    def clients_in_cluster(self, cluster_id: int) -> List[int]:
        return [cid for cid, kid in self.cluster_of.items() if kid == cluster_id]

    def canonicalize(self) -> Set[int]:
        """Rebuild internal dict/set ordering into sorted (client, server) order.

        Two allocations that compare ``==`` can still *iterate* differently
        (dict insertion order, set hashing history), which makes any
        float-summing observer history-dependent at the ulp level.  The
        online service calls this at every event boundary so that a
        snapshot/restore cycle continues bit-identically.  Entry objects
        are preserved (their epoch boxes stay valid); the mutation epoch is
        bumped because observers' cached iteration assumptions died.

        Returns the ids of clients whose per-server entry order actually
        changed: any observer caching an order-dependent float over those
        entries (the delta scorer's per-client revenue term) must rederive
        it, or it keeps a value summed in the dead, pre-canonical order.
        """
        reordered: Set[int] = {
            cid
            for cid, per_client in self._entries.items()
            if list(per_client) != sorted(per_client)
        }
        self._entries = {
            cid: {sid: per_client[sid] for sid in sorted(per_client)}
            for cid, per_client in sorted(self._entries.items())
        }
        clients_on_server: Dict[int, Set[int]] = {}
        for sid in sorted(self._clients_on_server):
            members: Set[int] = set()
            for cid in sorted(self._clients_on_server[sid]):
                members.add(cid)
            clients_on_server[sid] = members
        self._clients_on_server = clients_on_server
        self.cluster_of = {cid: self.cluster_of[cid] for cid in sorted(self.cluster_of)}
        self._epoch.value += 1
        return reordered

    # -- struct-of-arrays interchange ---------------------------------------

    def to_rows(self) -> AllocationRows:
        """Export the allocation as flat row tables (see AllocationRows).

        Row order is the allocation's iteration order, so a canonicalized
        allocation exports sorted rows and ``from_rows`` rebuilds it with
        identical dict insertion order — the property the bit-determinism
        machinery (scorer resync, aggregate recounts) relies on.
        """
        num_assigned = len(self.cluster_of)
        num_entries = sum(len(per_client) for per_client in self._entries.values())
        rows = AllocationRows(
            np.fromiter(self.cluster_of.keys(), dtype=np.int64, count=num_assigned),
            np.fromiter(self.cluster_of.values(), dtype=np.int64, count=num_assigned),
            np.empty(num_entries, dtype=np.int64),
            np.empty(num_entries, dtype=np.int64),
            np.empty(num_entries, dtype=np.float64),
            np.empty(num_entries, dtype=np.float64),
            np.empty(num_entries, dtype=np.float64),
        )
        pos = 0
        for client_id, per_client in self._entries.items():
            for server_id, entry in per_client.items():
                rows.entry_clients[pos] = client_id
                rows.entry_servers[pos] = server_id
                rows.alpha[pos] = entry.alpha
                rows.phi_p[pos] = entry.phi_p
                rows.phi_b[pos] = entry.phi_b
                pos += 1
        return rows

    @classmethod
    def from_rows(cls, rows: AllocationRows) -> "Allocation":
        """Rebuild dict form from row tables produced by :meth:`to_rows`.

        Every entry row's client must appear in the assignment table (true
        for any exported allocation; enforced here so a corrupted merge
        fails loudly instead of producing dangling entries).
        """
        alloc = cls()
        alloc.cluster_of = dict(
            zip(rows.assign_clients.tolist(), rows.assign_clusters.tolist())
        )
        if len(alloc.cluster_of) != rows.num_assigned:
            raise ModelError("duplicate client ids in assignment rows")
        entries: Dict[int, Dict[int, ServerAllocation]] = {}
        on_server: Dict[int, Set[int]] = {}
        box = alloc._epoch
        for client_id, server_id, alpha, phi_p, phi_b in zip(
            rows.entry_clients.tolist(),
            rows.entry_servers.tolist(),
            rows.alpha.tolist(),
            rows.phi_p.tolist(),
            rows.phi_b.tolist(),
        ):
            if client_id not in alloc.cluster_of:
                raise ModelError(
                    f"entry row for client {client_id} lacks an assignment row"
                )
            entry = ServerAllocation(alpha=alpha, phi_p=phi_p, phi_b=phi_b)
            entry._epoch_box = box
            entries.setdefault(client_id, {})[server_id] = entry
            on_server.setdefault(server_id, set()).add(client_id)
        alloc._entries = entries
        alloc._clients_on_server = on_server
        box.value += 1
        return alloc

    # -- lifecycle -----------------------------------------------------------

    def copy(self) -> "Allocation":
        """Deep copy; used by search algorithms to snapshot / roll back."""
        clone = Allocation()
        clone.cluster_of = dict(self.cluster_of)
        clone._entries = {
            cid: {sid: entry.copy() for sid, entry in per_client.items()}
            for cid, per_client in self._entries.items()
        }
        clone._clients_on_server = {
            sid: set(cids) for sid, cids in self._clients_on_server.items()
        }
        for per_client in clone._entries.values():
            for entry in per_client.values():
                entry._epoch_box = clone._epoch
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        if self.cluster_of != other.cluster_of:
            return False
        if set(self._entries) != set(other._entries):
            return False
        for cid, per_client in self._entries.items():
            other_per_client = other._entries[cid]
            if set(per_client) != set(other_per_client):
                return False
            for sid, entry in per_client.items():
                o = other_per_client[sid]
                if (entry.alpha, entry.phi_p, entry.phi_b) != (o.alpha, o.phi_p, o.phi_b):
                    return False
        return True

    def __repr__(self) -> str:
        num_entries = sum(len(v) for v in self._entries.values())
        return (
            f"Allocation(clients={len(self.cluster_of)}, "
            f"entries={num_entries}, used_servers={len(self.used_server_ids())})"
        )
