"""Peers and super-peers.

A simple peer holds a horizontal partition of the dataset and, during
pre-processing, computes its local extended skyline in the full space
``D`` (section 5.3).  A super-peer keeps the per-peer ext-skyline lists
it received plus their merged union — the store Algorithm 1 scans at
query time.  Keeping the per-peer lists around is what makes peer joins
incremental and peer failures recoverable (the churn module relies on
both).

For *incremental* maintenance under point updates, a super-peer also
keeps eviction ledgers (:mod:`repro.core.ledger`): one per attached
peer (witnessing the peer's data points that did not make its uploaded
ext-skyline) and one for the store (witnessing uploaded points the
store merge evicted).  Ledgers are columnar (three arrays, no object
per point), bootstrap lazily with one plane-wise witness sweep and are
invalidated whenever a list or the store is replaced wholesale
(pre-processing, joins, rebuilds); the update paths re-install the
ledgers they maintain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.dataset import PointSet
from ..core.ledger import EvictionLedger, build_witness_ledger, promote_candidates
from ..core.extended_skyline import ext_skyline_scan, merge_ext_skylines
from ..core.local_skyline import SkylineComputation
from ..core.store import SortedByF

__all__ = ["Peer", "SuperPeer"]


@dataclass
class Peer:
    """A simple peer: an id and its local horizontal partition."""

    peer_id: int
    data: PointSet

    def compute_extended_skyline(self) -> SkylineComputation:
        """Peer-side pre-processing: ``ext-SKY_D`` of the local data."""
        return ext_skyline_scan(SortedByF.from_points(self.data))

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class SuperPeer:
    """A super-peer: attached peers' ext-skylines and their merged store."""

    superpeer_id: int
    dimensionality: int
    peer_skylines: dict[int, SortedByF] = field(default_factory=dict)
    store: SortedByF | None = None
    #: witnesses for each peer's non-uploaded data points; maintained by
    #: the update paths, dropped whenever the peer's list is replaced
    peer_ledgers: dict[int, EvictionLedger] = field(default_factory=dict)
    #: witnesses for uploaded points the store merge evicted; ``None``
    #: after any wholesale store replacement until lazily rebuilt
    store_ledger: EvictionLedger | None = None

    def receive_peer_skyline(self, peer_id: int, skyline: SortedByF) -> None:
        """Record a peer's ext-skyline (pre-processing upload).

        Replacing a list invalidates that peer's eviction ledger — the
        maintenance paths that keep a ledger consistent re-install it
        right after calling this.
        """
        if skyline.dimensionality != self.dimensionality:
            raise ValueError(
                f"peer {peer_id} uploaded {skyline.dimensionality}-dim points "
                f"to a {self.dimensionality}-dim super-peer"
            )
        self.peer_skylines[peer_id] = skyline
        self.peer_ledgers.pop(peer_id, None)

    def rebuild_store(self) -> SkylineComputation:
        """Merge every attached peer's ext-skyline into the query store."""
        merged = merge_ext_skylines(list(self.peer_skylines.values()), self.dimensionality)
        self.store = merged.result
        self.store_ledger = None
        return merged

    def merge_in_peer(self, peer_id: int, skyline: SortedByF) -> SkylineComputation:
        """Incrementally merge a newly joined peer (section 5.3).

        Only the existing store and the new list are merged — "there is
        no need to process again all the lists of ext-skyline points
        from all associated peers".
        """
        self.receive_peer_skyline(peer_id, skyline)
        current = self.store if self.store is not None else SortedByF.empty(self.dimensionality)
        merged = merge_ext_skylines([current, skyline], self.dimensionality)
        self.store = merged.result
        self.store_ledger = None
        return merged

    # ------------------------------------------------------------------
    # eviction ledgers (incremental maintenance)
    # ------------------------------------------------------------------
    def ensure_peer_ledger(self, peer_id: int, data: PointSet) -> EvictionLedger | None:
        """The peer's eviction ledger, bootstrapping lazily from ``data``.

        One vectorized witness sweep of the non-uploaded points against
        the uploaded list — no ext-skyline recomputation.  Returns
        ``None`` when the ledger cannot be built (no list on file, or a
        witness sweep came up empty-handed), signalling the caller to
        take the honest rebuild path.
        """
        ledger = self.peer_ledgers.get(peer_id)
        if ledger is not None:
            return ledger
        upload = self.peer_skylines.get(peer_id)
        if upload is None:
            return None
        others = data.mask(~np.isin(data.ids, upload.points.ids))
        ledger = build_witness_ledger(upload.points, others)
        if ledger is not None:
            self.peer_ledgers[peer_id] = ledger
        return ledger

    def ensure_store_ledger(self) -> EvictionLedger | None:
        """The store's eviction ledger, bootstrapping lazily.

        Witnesses every uploaded point the store merge evicted against
        the store members, in one vectorized sweep.
        """
        if self.store_ledger is not None:
            return self.store_ledger
        if self.store is None:
            return None
        lists = [lst.points for lst in self.peer_skylines.values() if len(lst)]
        if lists:
            union = PointSet.concat(lists)
            others = union.mask(~np.isin(union.ids, self.store.points.ids))
        else:
            others = PointSet.empty(self.dimensionality)
        ledger = build_witness_ledger(self.store.points, others)
        if ledger is not None:
            self.store_ledger = ledger
        return ledger

    def drop_peer(self, peer_id: int) -> SkylineComputation:
        """Handle a failed peer by withdrawing its contribution.

        When the store ledger is live, the withdrawal is incremental:
        the dropped list's points splice out of the store and only the
        orphans — surviving uploads whose store witness was among the
        dropped points — are re-tested and promoted.  Otherwise the
        surviving lists are re-merged from scratch (the paper's stated
        future work; the rebuild its data structures allow).  Either way
        a :class:`SkylineComputation` describes the work: ``examined``
        counts the points dominance-tested, which on the ledger path is
        the orphan set, not the store.
        """
        started = time.perf_counter()
        dropped = self.peer_skylines.pop(peer_id, None)
        self.peer_ledgers.pop(peer_id, None)
        ledger = self.store_ledger
        if dropped is None or ledger is None or self.store is None:
            return self.rebuild_store()
        dropped_ids = dropped.points.ids
        ledger.discard(dropped_ids)
        removed = self.store.points.ids[np.isin(self.store.points.ids, dropped_ids)]
        store = self.store.splice_delete(dropped_ids)
        orphan_ids, orphan_rows = ledger.pop_orphans(removed)
        store, _promoted, examined = promote_candidates(
            store, ledger, orphan_ids, orphan_rows
        )
        self.store = store
        return SkylineComputation(
            result=store,
            threshold=math.inf,
            examined=examined,
            comparisons=examined * max(len(store), 1),
            duration=time.perf_counter() - started,
            input_size=len(dropped) + examined,
        )

    @property
    def store_size(self) -> int:
        return 0 if self.store is None else len(self.store)

    def require_store(self) -> SortedByF:
        if self.store is None:
            raise RuntimeError(
                f"super-peer {self.superpeer_id} has no store; run preprocessing first"
            )
        return self.store
