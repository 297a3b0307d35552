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
  says so (``path="rebuilt"``, ``store_rebuilt=True``).

Both paths keep every future query exact; the property tests compare
against a from-scratch rebuild byte for byte.  Stores change by
O(k log n) sorted splices (:meth:`~repro.core.store.SortedByF.
splice_insert`), so ``SortedByF.from_points`` never runs on the
incremental path — the ``store.from_points`` metric pins that down.
Each update bumps the owning super-peer's store generation so shm
publication republishes only that slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dataset import PointSet
from ..core.dominance import find_witnesses
from ..core.extended_skyline import ext_skyline_positions
from ..core.ledger import EvictionLedger, admit_points, promote_candidates
from ..obs.runtime import active_metrics
from .network import SuperPeerNetwork
from .node import Peer, SuperPeer

__all__ = ["UpdateOutcome", "UpdateRejected", "check_incoming", "insert_points", "delete_points"]


class UpdateRejected(KeyError, ValueError):
    """An update or churn op naming what the network does not hold as
    asked (an unknown peer or super-peer, ids or a peer id not or already
    held, the last super-peer).  Raised before anything changes, so a
    retry cannot succeed; a ``KeyError`` and a ``ValueError`` alike."""

    __str__ = Exception.__str__  # the message, without ``KeyError``'s quotes


@dataclass(frozen=True)
class UpdateOutcome:
    """What one update did to the peer and its super-peer.

    ``path`` names the maintenance route taken: ``"spliced"`` (pure
    sorted splices, no candidate re-testing), ``"promoted"`` (the
    eviction ledger answered a skyline-touching delete by re-testing
    only the orphaned candidates) or ``"rebuilt"`` (the ledger could
    not answer; peer ext-skyline recomputed and the store re-merged
    from scratch).  ``examined`` counts the candidate points dominance-
    tested on the incremental paths — the work a rebuild would have
    spent is everything *not* in this number — and ``promoted`` counts
    the candidates that re-entered a list or the store.
    """

    peer_id: int
    superpeer_id: int
    kind: str  # "insert" or "delete"
    points_changed: int
    peer_skyline_delta: int  # change in the peer's uploaded list size
    store_rebuilt: bool  # True when the cheap incremental path was unavailable
    path: str = "spliced"  # "spliced" | "promoted" | "rebuilt"
    examined: int = 0
    promoted: int = 0


def check_incoming(network: SuperPeerNetwork, points: PointSet) -> None:
    """Reject points the network's f-sorted stores cannot hold.

    The ingress check of every path that adds data to a live network
    (``insert_points``, the gateway's ``update`` op): a NaN coordinate
    has ``f = NaN``, which breaks the ``searchsorted`` splice order and
    is never dominated — a wrong skyline rather than an error — and the
    bulk ledger paths assume ids do not repeat within a batch.
    """
    if points.dimensionality != network.dimensionality:
        raise ValueError(
            f"inserting {points.dimensionality}-dim points into a "
            f"{network.dimensionality}-dim network"
        )
    if not np.isfinite(points.values).all():
        raise ValueError("point coordinates must be finite")
    if np.unique(points.ids).size != len(points):
        raise ValueError("point ids repeat within the batch")


def insert_points(network: SuperPeerNetwork, peer_id: int, points: PointSet) -> UpdateOutcome:
    """Add ``points`` to a peer; update stores by sorted splices."""
    peer = _get_peer(network, peer_id)
    check_incoming(network, points)
    clash = points.ids[np.isin(points.ids, peer.data.ids)]
    if clash.size:
        raise UpdateRejected(f"point ids already present: {sorted(clash.tolist())[:5]}")
    superpeer_id = network.topology.superpeer_of_peer(peer_id)
    superpeer = network.superpeers[superpeer_id]

    peer_ledger = superpeer.ensure_peer_ledger(peer_id, peer.data)
    store_ledger = superpeer.ensure_store_ledger()
    network.peers[peer_id] = Peer(peer_id=peer_id, data=PointSet.concat([peer.data, points]))

    rebuilt = peer_ledger is None or store_ledger is None or superpeer.store is None
    if rebuilt:
        delta = _rebuild(network, superpeer, peer_id)
    else:
        delta = _insert_spliced(superpeer, peer_id, peer_ledger, store_ledger, points)
    _refresh(network, superpeer_id)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="insert",
        points_changed=len(points),
        peer_skyline_delta=delta,
        store_rebuilt=rebuilt,
        path="rebuilt" if rebuilt else "spliced",
        examined=len(points),
    )
    _record(outcome)
    return outcome


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
        path, delta, examined, promoted, rebuilt = "spliced", 0, 0, 0, False
    elif peer_ledger is None or store_ledger is None or superpeer.store is None:
        path, delta, rebuilt = "rebuilt", _rebuild(network, superpeer, peer_id), True
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
        path, rebuilt = "promoted", False
        examined = peer_examined + store_examined
        promoted = len(peer_promoted) + len(store_promoted)
    _refresh(network, superpeer_id)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="delete",
        points_changed=len(doomed),
        peer_skyline_delta=delta,
        store_rebuilt=rebuilt,
        path=path,
        examined=examined,
        promoted=promoted,
    )
    _record(outcome)
    return outcome


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


def _record(outcome: UpdateOutcome) -> None:
    """Emit the ``update.*`` counters (no-ops when observability is off)."""
    metrics = active_metrics()
    if metrics is None:
        return
    metrics.counter(f"update.{outcome.path}", kind=outcome.kind).inc()
    metrics.counter("update.examined_points", kind=outcome.kind).inc(outcome.examined)
    metrics.counter("update.promoted_points", kind=outcome.kind).inc(outcome.promoted)


def _get_peer(network: SuperPeerNetwork, peer_id: int) -> Peer:
    try:
        return network.peers[peer_id]
    except KeyError:
        raise UpdateRejected(f"unknown peer {peer_id}") from None


def _refresh(network: SuperPeerNetwork, superpeer_id: int) -> None:
    from .churn import _refresh_preprocessing

    _refresh_preprocessing(network, touched=(superpeer_id,))
