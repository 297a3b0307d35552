"""Eviction ledgers: dominance witnesses for incremental maintenance.

When a strict (ext-domination) merge evicts a point, some *member* of
the surviving skyline ext-dominates it (strict ``<`` on every dimension
is transitive, so dominator chains end at a member).  An
:class:`EvictionLedger` records one such member per evicted point (its
*witness*) with the point's full-space row.  When points die, only
*orphans* — entries whose witness died — can resurface, so they alone
are re-tested instead of recomputing the skyline.  Every witness and
every skyline here comes from the one rank-bitset kernel
(:func:`repro.core.dominance.find_witnesses`,
:func:`repro.core.extended_skyline.ext_skyline_positions`).

The load-bearing invariant is **member witnesses**: every entry's
witness is a *current* member of the skyline the ledger shadows.  The
maintenance paths (:mod:`repro.p2p.updates`, ``SuperPeer.drop_peer``)
keep it by re-pointing dependents whenever a witness is itself evicted
(:meth:`EvictionLedger.repoint`) and by witnessing afresh during
promotion (:func:`promote_candidates`).  A promoted orphan ``c`` never
evicts a surviving member ``m``: its dead witness ``t`` was a member,
and ``c`` ext-dom ``m`` would give ``t`` ext-dom ``m``.  So deletions
splice promoted points in with no eviction scan.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .dataset import PointSet
from .dominance import find_witnesses
from .extended_skyline import ext_skyline_positions
from .store import SortedByF

__all__ = [
    "EvictionLedger",
    "admit_points",
    "build_witness_ledger",
    "promote_candidates",
]


def _id_array(ids: Iterable[int]) -> np.ndarray:
    if isinstance(ids, np.ndarray):
        return ids.astype(np.int64, copy=False)
    return np.fromiter(ids, dtype=np.int64)


def _lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index into the (unique) ``keys`` of each query, ``-1`` where absent."""
    if not keys.size:
        return np.full(queries.shape, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    slot = np.minimum(np.searchsorted(keys, queries, sorter=order), keys.size - 1)
    position = order[slot]
    return np.where(keys[position] == queries, position, -1)


class EvictionLedger:
    """``id -> (witness_id, row)`` for every point a merge evicted.

    Columnar: three parallel arrays — ``ids`` (n,), ``witnesses`` (n,)
    and ``rows`` (n, d) — in the (deterministic) insertion order of the
    maintenance path that filled them, with a dict's order semantics:
    re-recording a tracked id overwrites it in place, recording after a
    pop or discard appends.  No per-point Python object exists, so a
    ledger costs its payload bytes and pickles (inside the network it
    belongs to) as three buffers.
    """

    __slots__ = ("ids", "witnesses", "rows")

    def __init__(self, dimensionality: int) -> None:
        self.ids = np.zeros(0, dtype=np.int64)
        self.witnesses = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros((0, dimensionality), dtype=np.float64)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def _keep(self, keep: np.ndarray) -> None:
        self.ids = self.ids[keep]
        self.witnesses = self.witnesses[keep]
        self.rows = self.rows[keep]

    def record_many(
        self, ids: np.ndarray, witnesses: np.ndarray, rows: np.ndarray
    ) -> None:
        """Track evicted points, each under one surviving ext-dominator.

        ``ids`` must not repeat within the batch.
        """
        ids = _id_array(ids)
        position = _lookup(self.ids, ids)
        known = position >= 0
        self.witnesses[position[known]] = witnesses[known]
        self.rows[position[known]] = rows[known]
        fresh = ~known
        if fresh.any():
            self.ids = np.concatenate([self.ids, ids[fresh]])
            self.witnesses = np.concatenate([self.witnesses, witnesses[fresh]])
            self.rows = np.concatenate([self.rows, rows[fresh]])

    def record(self, point_id: int, witness_id: int, row: np.ndarray) -> None:
        """Track one evicted point (see :meth:`record_many`)."""
        self.record_many(
            np.array([point_id]), np.array([witness_id]), np.asarray(row)[None, :]
        )

    def discard(self, ids: Iterable[int]) -> None:
        """Forget entries for points that left the dataset entirely."""
        gone = np.isin(self.ids, _id_array(ids))
        if gone.any():
            self._keep(~gone)

    def witness_of(self, point_id: int) -> int | None:
        position = int(_lookup(self.ids, np.array([point_id]))[0])
        return None if position < 0 else int(self.witnesses[position])

    def resolve(self, ids: np.ndarray) -> np.ndarray:
        """Each id's witness where the ledger tracks it, else the id itself.

        Follows one link of a dominance chain: a point that was itself
        evicted stands for the member that evicted it.
        """
        position = _lookup(self.ids, ids)
        known = position >= 0
        resolved = np.array(ids, dtype=np.int64)
        resolved[known] = self.witnesses[position[known]]
        return resolved

    def pop_orphans(self, dead: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return ``(ids, rows)`` of entries whose witness died.

        Only these entries can resurface after ``dead`` is deleted —
        every other entry keeps a living ext-dominator.
        """
        orphaned = np.isin(self.witnesses, _id_array(dead))
        orphan_ids, orphan_rows = self.ids[orphaned], self.rows[orphaned]
        if orphan_ids.size:
            self._keep(~orphaned)
        return orphan_ids, orphan_rows

    def repoint(self, mapping: dict[int, int]) -> None:
        """Re-target entries whose witness was itself just evicted.

        ``mapping`` sends each evicted witness to its own evictor; by
        transitivity the evictor ext-dominates every dependent, so the
        member-witness invariant survives the eviction.
        """
        evictors = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
        position = _lookup(_id_array(mapping), self.witnesses)
        moved = position >= 0
        self.witnesses[moved] = evictors[position[moved]]


def build_witness_ledger(members: PointSet, others: PointSet) -> EvictionLedger | None:
    """Witness every non-member against the member set in one kernel
    call: the lazy bootstrap for lists and stores built without a ledger
    (pre-processing, joins).  ``None`` when some non-member has no member
    ext-dominator (impossible for a genuine ext-skyline plus its
    evictees), so the caller falls back to the honest rebuild.
    """
    ledger = EvictionLedger(members.dimensionality)
    if len(others) == 0:
        return ledger
    witness = find_witnesses(members.values, others.values)
    if np.any(witness < 0):
        return None
    ledger.record_many(others.ids, members.ids[witness], others.values)
    return ledger


def promote_candidates(
    store: SortedByF,
    ledger: EvictionLedger,
    candidate_ids: np.ndarray,
    candidate_rows: np.ndarray,
) -> tuple[SortedByF, PointSet, int]:
    """Re-admit orphaned candidates into an ext-skyline store.

    Candidates are tested against the surviving members and against each
    other; survivors splice in — with *no eviction scan*, per the
    module-level argument that a promoted orphan can never ext-dominate
    a surviving member — and losers get a fresh member witness.
    Returns ``(new_store, promoted_points, examined)`` where
    ``examined`` counts the candidates dominance-tested (the work the
    ledger saved is everything *not* in this count).
    """
    examined = int(candidate_ids.shape[0])
    if examined == 0:
        return store, PointSet.empty(store.dimensionality), 0
    witness = find_witnesses(store.points.values, candidate_rows)
    held = witness >= 0
    ledger.record_many(
        candidate_ids[held], store.points.ids[witness[held]], candidate_rows[held]
    )
    free_ids = candidate_ids[~held]
    free_rows = candidate_rows[~held]
    if free_ids.shape[0] == 0:
        return store, PointSet.empty(store.dimensionality), examined
    mask = np.isin(np.arange(free_ids.shape[0]), ext_skyline_positions(free_rows))
    promoted = PointSet(free_rows[mask], free_ids[mask])
    loser_ids = free_ids[~mask]
    if loser_ids.shape[0]:
        loser_rows = free_rows[~mask]
        loser_witness = find_witnesses(promoted.values, loser_rows)
        if np.any(loser_witness < 0):  # pragma: no cover - transitivity guard
            raise RuntimeError("orphan promotion lost a witness chain")
        ledger.record_many(loser_ids, promoted.ids[loser_witness], loser_rows)
    return store.splice_insert(promoted), promoted, examined


def admit_points(
    store: SortedByF, ledger: EvictionLedger, incoming: PointSet
) -> tuple[SortedByF, PointSet, dict[int, int]]:
    """Merge mutually non-dominated ``incoming`` points into a store.

    The insert-path counterpart of :func:`promote_candidates`: incoming
    points dominated by a member are ledgered (not admitted), admitted
    points may evict members — each evicted member is ledgered under its
    evictor and existing dependents are re-pointed to that evictor,
    which (being undominated by any member, or it could not have evicted
    one) is itself admitted.  Returns ``(new_store, admitted,
    evictions)`` with ``evictions`` mapping each evicted member id to
    its evictor's id.
    """
    if len(incoming) == 0:
        return store, incoming, {}
    witness = find_witnesses(store.points.values, incoming.values)
    held = witness >= 0
    ledger.record_many(
        incoming.ids[held], store.points.ids[witness[held]], incoming.values[held]
    )
    admitted = incoming.mask(~held)
    if len(admitted) == 0:
        return store, admitted, {}
    evictor = find_witnesses(admitted.values, store.points.values)
    evicted = evictor >= 0
    evictions: dict[int, int] = {}
    if evicted.any():
        evicted_ids = store.points.ids[evicted]
        evictor_ids = admitted.ids[evictor[evicted]]
        evictions = {
            int(m): int(n) for m, n in zip(evicted_ids, evictor_ids)
        }
        ledger.repoint(evictions)
        ledger.record_many(evicted_ids, evictor_ids, store.points.values[evicted])
        store = store.splice_delete(evicted_ids)
    return store.splice_insert(admitted), admitted, evictions
