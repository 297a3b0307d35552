"""Point-level data updates at peers.

Churn (``repro.p2p.churn``) handles whole peers; this module handles a
peer's *data* changing — new advertisements arriving, old ones expiring
in the hotel-network story.  The update rules follow from ext-skyline
algebra:

* **insert** — a new point joins the peer's ext-skyline iff nothing
  there ext-dominates it; if it joins, it evicts what it ext-dominates.
  The surviving newcomers then splice into the super-peer store the
  same way (existing store entries can only be evicted, never
  resurrected, by additions).
* **delete** — if no deleted point was in the peer's uploaded
  ext-skyline the stores are untouched; otherwise only *orphans* —
  points whose recorded dominance witness was among the victims
  (:mod:`repro.core.ledger`) — are re-tested and promoted, first into
  the peer's list and then into the store.  When a ledger cannot
  answer, the path falls back to the honest from-scratch recompute and
  says so (``path="rebuilt"``).

Both paths keep every future query exact; the property tests compare
against a from-scratch rebuild byte for byte.  Stores change by
O(k log n) sorted splices (:meth:`~repro.core.store.SortedByF.
splice_insert`), so ``SortedByF.from_points`` never runs on the
incremental path — the ``store.from_points`` metric pins that down.
Each update bumps the owning super-peer's store generation so shm
publication republishes only that slot.

Every write — these two, the churn ops of :mod:`repro.p2p.churn` — ends
in :func:`settle` and comes back as an :class:`UpdateOutcome` (churn's
``SuperPeerFailure`` for a super-peer failure);
:func:`repro.p2p.workload.apply_mutation` wraps it in the one
:class:`UpdateReport` every caller gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..core.dataset import PointSet
from ..core.dominance import find_witnesses
from ..core.extended_skyline import ext_skyline_positions
from ..core.ledger import EvictionLedger, admit_points, promote_candidates
from ..obs.runtime import active_metrics
from .network import SuperPeerNetwork
from .node import Peer, SuperPeer

__all__ = [
    "UpdateOutcome",
    "UpdateRejected",
    "UpdateReport",
    "check_incoming",
    "check_unheld",
    "insert_points",
    "delete_points",
]


class UpdateRejected(KeyError, ValueError):
    """An update or churn op naming what the network does not hold as
    asked (an unknown peer or super-peer, ids or a peer id not or already
    held, the last super-peer).  Raised before anything changes, so a
    retry cannot succeed; a ``KeyError`` and a ``ValueError`` alike."""

    __str__ = Exception.__str__  # the message, without ``KeyError``'s quotes


@dataclass(frozen=True)
class UpdateOutcome:
    """What one insert, delete, join or fail did to a peer and its super-peer.

    ``path`` names the maintenance route taken: ``"spliced"`` (pure
    sorted splices, no candidate re-testing), ``"merged"`` (a join: the
    new list merged into the existing store, section 5.3),
    ``"promoted"`` (the eviction ledger answered a skyline-touching
    delete or a failure by re-testing only the orphaned candidates) or
    ``"rebuilt"`` (the ledger could not answer; the lists and the store
    re-merged from scratch).  ``examined`` counts the points dominance-
    tested on that path — on the incremental ones, the work a rebuild
    would have spent is everything *not* in this number — and
    ``promoted`` counts the candidates that re-entered a list or the
    store.  ``peer_skyline_delta`` is the change in the peer's uploaded
    list size: a join's whole upload, a failure's negated one.
    """

    peer_id: int
    superpeer_id: int
    kind: str  # "insert" | "delete" | "join" | "fail"
    points_changed: int
    peer_skyline_delta: int
    path: str
    examined: int = 0
    promoted: int = 0


@dataclass(frozen=True)
class UpdateReport:
    """What one update did, end to end: every write path returns one.

    :func:`repro.p2p.workload.apply_mutation` fills in the mutation's
    ``outcome`` (an :class:`UpdateOutcome`, or churn's
    ``SuperPeerFailure``), the ``epoch`` after it, the super-peers whose
    store generation moved and the wall-clock ``seconds``.  The
    publication fields stay ``0``/``False`` unless
    :meth:`repro.parallel.ParallelEngine.apply_update` republished:
    ``republished_bytes`` is the shm delta actually rewritten (0 when no
    publication was live); a slot is one super-peer's store, so
    ``slot_nbytes`` is the touched stores' array bytes and
    ``total_nbytes`` every published store's —
    ``tests/parallel/test_churn_grid.py`` asserts
    ``republished_bytes == slot_nbytes < total_nbytes``, i.e. the delta
    scales with the touched stores, not the network.  ``full_republish``
    marks what cannot go incremental (super-peer set surgery, an update
    that moves every slot): the stale publication is withdrawn and the
    next fan-out republishes in full.
    """

    kind: str
    epoch: int
    touched_superpeers: tuple[int, ...]
    seconds: float
    outcome: Any  # UpdateOutcome | repro.p2p.churn.SuperPeerFailure
    full_republish: bool = False
    republished_bytes: int = 0
    slot_nbytes: int = 0
    total_nbytes: int = 0

    @property
    def path(self) -> str:
        return self.outcome.path

    @property
    def examined(self) -> int:
        return self.outcome.examined

    @property
    def promoted(self) -> int:
        return self.outcome.promoted

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view: the gateway's ``update`` reply."""
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "touched_superpeers": list(self.touched_superpeers),
            "full_republish": self.full_republish,
            "republished_bytes": self.republished_bytes,
            "slot_nbytes": self.slot_nbytes,
            "total_nbytes": self.total_nbytes,
            "seconds": self.seconds,
            "path": self.path,
            "examined": self.examined,
            "promoted": self.promoted,
        }


def check_incoming(network: SuperPeerNetwork, points: PointSet) -> None:
    """Reject points the network's f-sorted stores cannot hold.

    The ingress check of every path that adds data to a live network
    (``insert_points``, ``join_peer``, the gateway's ``update`` op): a
    NaN coordinate has ``f = NaN``, which breaks the ``searchsorted``
    splice order and is never dominated — a wrong skyline rather than an
    error — and the bulk ledger paths assume ids do not repeat within a
    batch.
    """
    if points.dimensionality != network.dimensionality:
        raise ValueError(
            f"adding {points.dimensionality}-dim points to a "
            f"{network.dimensionality}-dim network"
        )
    if not np.isfinite(points.values).all():
        raise ValueError("point coordinates must be finite")
    if np.unique(points.ids).size != len(points):
        raise ValueError("point ids repeat within the batch")


def check_unheld(network: SuperPeerNetwork, points: PointSet) -> None:
    """Reject point ids that any peer of the network already holds.

    A point id names one point network-wide: a delete takes the id out
    of the named peer's data and out of every store, so a second copy
    at another peer would stay in the data while the stores lose it.
    The held ids are looked up in the batch, not the batch in them:
    ``np.isin`` sizes its table by the second array's id range, which
    for the held ids can be millions.
    """
    held = np.concatenate(
        [np.empty(0, np.int64)] + [peer.data.ids for peer in network.peers.values()]
    )
    clash = np.unique(held[np.isin(held, points.ids)])
    if clash.size:
        raise UpdateRejected(f"point ids already present: {clash[:5].tolist()}")


def insert_points(network: SuperPeerNetwork, peer_id: int, points: PointSet) -> UpdateOutcome:
    """Add ``points`` to a peer; update stores by sorted splices."""
    peer = _get_peer(network, peer_id)
    check_incoming(network, points)
    check_unheld(network, points)
    superpeer_id = network.topology.superpeer_of_peer(peer_id)
    superpeer = network.superpeers[superpeer_id]

    peer_ledger = superpeer.ensure_peer_ledger(peer_id, peer.data)
    store_ledger = superpeer.ensure_store_ledger()
    network.peers[peer_id] = Peer(peer_id=peer_id, data=PointSet.concat([peer.data, points]))

    if peer_ledger is None or store_ledger is None or superpeer.store is None:
        path, delta = "rebuilt", _rebuild(network, superpeer, peer_id)
    else:
        path = "spliced"
        delta = _insert_spliced(superpeer, peer_id, peer_ledger, store_ledger, points)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="insert",
        points_changed=len(points),
        peer_skyline_delta=delta,
        path=path,
        examined=len(points),
    )
    return settle(network, (superpeer_id,), outcome)


def _insert_spliced(
    superpeer: SuperPeer,
    peer_id: int,
    peer_ledger: EvictionLedger,
    store_ledger: EvictionLedger,
    points: PointSet,
) -> int:
    """Ledger insert: admit into the upload, then into the store."""
    old_upload = superpeer.peer_skylines[peer_id]
    # The newcomers' own ext-skyline, in arrival order; internal victims are
    # witnessed after admission so their witness chains end at upload members.
    inner_mask = np.isin(np.arange(len(points)), ext_skyline_positions(points.values))
    inner = points.mask(inner_mask)
    new_upload, admitted, evictions = admit_points(old_upload, peer_ledger, inner)
    victims = points.mask(~inner_mask)
    if len(victims):
        victim_witness = find_witnesses(inner.values, victims.values)
        peer_ledger.record_many(
            victims.ids, peer_ledger.resolve(inner.ids[victim_witness]), victims.values
        )
    superpeer.receive_peer_skyline(peer_id, new_upload)
    superpeer.peer_ledgers[peer_id] = peer_ledger

    # Store side: members evicted from the upload leave the store (and
    # the ledger — they are no longer uploaded anywhere), with their
    # dependents re-pointed to the evictor, which — undominated by any
    # store member, or it could not have evicted one — is admitted next.
    store = superpeer.store
    if evictions:
        evicted_ids = np.fromiter(evictions, count=len(evictions), dtype=np.int64)
        store_ledger.discard(evicted_ids)
        store_ledger.repoint(evictions)
        store = store.splice_delete(evicted_ids)
    store, _store_admitted, _store_evictions = admit_points(store, store_ledger, admitted)
    superpeer.store = store
    superpeer.store_ledger = store_ledger
    return len(new_upload) - len(old_upload)


def delete_points(network: SuperPeerNetwork, peer_id: int, point_ids) -> UpdateOutcome:
    """Remove points (by id) from a peer; promote orphans if needed."""
    peer = _get_peer(network, peer_id)
    doomed = np.unique(np.fromiter((int(i) for i in point_ids), dtype=np.int64))
    missing = doomed[~np.isin(doomed, peer.data.ids)]
    if missing.size:
        raise UpdateRejected(f"peer {peer_id} does not hold points {missing[:5].tolist()}")
    superpeer_id = network.topology.superpeer_of_peer(peer_id)
    superpeer = network.superpeers[superpeer_id]
    old_upload = superpeer.peer_skylines[peer_id]

    peer_ledger = superpeer.ensure_peer_ledger(peer_id, peer.data)
    store_ledger = superpeer.ensure_store_ledger()
    remaining = peer.data.mask(~np.isin(peer.data.ids, doomed))
    network.peers[peer_id] = Peer(peer_id=peer_id, data=remaining)

    doomed_members = doomed[np.isin(doomed, old_upload.points.ids)]
    if not doomed_members.size:
        # No uploaded point died: lists and store are untouched, only
        # the ledger forgets the victims.
        if peer_ledger is not None:
            peer_ledger.discard(doomed)
        path, delta, examined, promoted = "spliced", 0, 0, 0
    elif peer_ledger is None or store_ledger is None or superpeer.store is None:
        path, delta = "rebuilt", _rebuild(network, superpeer, peer_id)
        examined, promoted = len(remaining), 0
    else:
        # Peer list: splice the victims out, re-test only the orphans.
        peer_ledger.discard(doomed)
        upload = old_upload.splice_delete(doomed_members)
        orphan_ids, orphan_rows = peer_ledger.pop_orphans(doomed_members)
        upload, peer_promoted, peer_examined = promote_candidates(
            upload, peer_ledger, orphan_ids, orphan_rows
        )
        superpeer.receive_peer_skyline(peer_id, upload)
        superpeer.peer_ledgers[peer_id] = peer_ledger
        delta = len(upload) - len(old_upload)
        # Store: splice the victims out; candidates are the store
        # orphans plus the freshly promoted upload members.
        store = superpeer.store
        removed = store.points.ids[np.isin(store.points.ids, doomed_members)]
        store_ledger.discard(doomed_members)
        store = store.splice_delete(doomed_members)
        store_orphan_ids, store_orphan_rows = store_ledger.pop_orphans(removed)
        store, store_promoted, store_examined = promote_candidates(
            store,
            store_ledger,
            np.concatenate([store_orphan_ids, peer_promoted.ids]),
            np.concatenate([store_orphan_rows, peer_promoted.values]),
        )
        superpeer.store = store
        superpeer.store_ledger = store_ledger
        path = "promoted"
        examined = peer_examined + store_examined
        promoted = len(peer_promoted) + len(store_promoted)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="delete",
        points_changed=len(doomed),
        peer_skyline_delta=delta,
        path=path,
        examined=examined,
        promoted=promoted,
    )
    return settle(network, (superpeer_id,), outcome)


def _rebuild(network: SuperPeerNetwork, superpeer: SuperPeer, peer_id: int) -> int:
    """Honest fallback; returns the change in the peer's upload size.

    No ledger can say what the change shadowed or exposed: recompute the
    peer's ext-skyline from its (already updated) data, exactly as
    pre-processing does, and re-merge the super-peer store.
    """
    before = len(superpeer.peer_skylines[peer_id])
    upload = network.peers[peer_id].compute_extended_skyline().result
    superpeer.receive_peer_skyline(peer_id, upload)
    superpeer.rebuild_store()
    return len(upload) - before


def settle(network: SuperPeerNetwork, touched: Iterable[int], outcome: Any) -> Any:
    """Close one write: advance the epoch past ``touched``, count ``outcome``.

    Every update and churn op ends here, so each emits the ``update.*``
    counters once (no-ops when observability is off), labelled with its
    ``kind``, and returns ``outcome``.
    """
    network.advance_epoch(touched)
    metrics = active_metrics()
    if metrics is not None:
        metrics.counter(f"update.{outcome.path}", kind=outcome.kind).inc()
        metrics.counter("update.examined_points", kind=outcome.kind).inc(outcome.examined)
        metrics.counter("update.promoted_points", kind=outcome.kind).inc(outcome.promoted)
    return outcome


def _get_peer(network: SuperPeerNetwork, peer_id: int) -> Peer:
    try:
        return network.peers[peer_id]
    except KeyError:
        raise UpdateRejected(f"unknown peer {peer_id}") from None
