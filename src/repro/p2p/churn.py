"""Peer churn: joins (section 5.3) and failures (the paper's future work).

A joining peer computes its ext-skyline and the super-peer merges it
*incrementally* against the existing store — "there is no need to
process again all the lists of ext-skyline points from all associated
peers, so the additional processing cost of peer joins is very low".

A failing peer's contribution must be withdrawn; since the super-peer
kept each peer's uploaded list, recovery is a re-merge of the surviving
lists.  (The paper defers failures to future work; this is the
straightforward recovery its data structures support, and the tests
assert it restores exactness.)

Every mutation here also bumps the touched super-peers' store
generations (``SuperPeerNetwork.store_generations``) so the shared-
memory publication layer can republish only the changed slots.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..core.dataset import PointSet
from ..core.local_skyline import SkylineComputation
from .network import SuperPeerNetwork
from .node import Peer

__all__ = ["ChurnEvent", "SuperPeerFailure", "join_peer", "fail_peer", "fail_superpeer"]


@dataclass(frozen=True)
class ChurnEvent:
    """Outcome of one churn operation.

    ``path`` records how the store absorbed the change: ``"merged"``
    (join — the new list merged into the existing store), ``"promoted"``
    (fail — eviction-ledger withdrawal: the dead list spliced out and
    only the orphaned witnesses re-tested) or ``"rebuilt"`` (fail with
    no live ledger — surviving lists re-merged from scratch).
    ``examined`` counts the points dominance-tested on that path.
    """

    peer_id: int
    superpeer_id: int
    kind: str  # "join" or "fail"
    uploaded_points: int
    store_size_after: int
    merge: SkylineComputation
    path: str = "rebuilt"
    examined: int = 0


def join_peer(
    network: SuperPeerNetwork,
    superpeer_id: int,
    data: PointSet,
    peer_id: int | None = None,
) -> ChurnEvent:
    """Attach a new peer with ``data`` to ``superpeer_id``.

    Runs the basic bootstrapping protocol of section 5.3: the peer
    computes its local ext-skyline and the super-peer merges it into
    the existing store incrementally.
    """
    superpeer = network.superpeers[superpeer_id]
    if data.dimensionality != network.dimensionality:
        raise ValueError(
            f"joining peer has {data.dimensionality}-dim data, "
            f"network is {network.dimensionality}-dim"
        )
    if peer_id is None:
        peer_id = max(network.peers) + 1 if network.peers else 0
    if peer_id in network.peers:
        raise ValueError(f"peer id {peer_id} already present")
    peer = Peer(peer_id=peer_id, data=data)
    network.peers[peer_id] = peer
    peers_of = network.topology.peers_of
    peers_of[superpeer_id] = peers_of[superpeer_id] + (peer_id,)
    uploaded = peer.compute_extended_skyline()
    merge = superpeer.merge_in_peer(peer_id, uploaded.result)
    _refresh_preprocessing(network, touched=(superpeer_id,))
    return ChurnEvent(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="join",
        uploaded_points=len(uploaded.result),
        store_size_after=superpeer.store_size,
        merge=merge,
        path="merged",
        examined=merge.examined,
    )


def fail_peer(network: SuperPeerNetwork, peer_id: int) -> ChurnEvent:
    """Remove a peer and withdraw its contribution from the store.

    With a live store ledger the withdrawal is incremental (dead list
    spliced out, orphans promoted — ``path="promoted"``); otherwise the
    surviving lists are re-merged from scratch (``path="rebuilt"``).
    """
    if peer_id not in network.peers:
        raise KeyError(f"unknown peer {peer_id}")
    superpeer_id = network.topology.superpeer_of_peer(peer_id)
    superpeer = network.superpeers[superpeer_id]
    del network.peers[peer_id]
    peers_of = network.topology.peers_of
    peers_of[superpeer_id] = tuple(p for p in peers_of[superpeer_id] if p != peer_id)
    superpeer.ensure_store_ledger()
    merge = superpeer.drop_peer(peer_id)
    # drop_peer's rebuild fallback nulls the store ledger; the
    # incremental path keeps it live, so its presence names the path.
    path = "promoted" if superpeer.store_ledger is not None else "rebuilt"
    _refresh_preprocessing(network, touched=(superpeer_id,))
    return ChurnEvent(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="fail",
        uploaded_points=0,
        store_size_after=superpeer.store_size,
        merge=merge,
        path=path,
        examined=merge.examined,
    )


@dataclass(frozen=True)
class SuperPeerFailure:
    """Outcome of a super-peer failure and the ensuing re-organization."""

    superpeer_id: int
    orphaned_peers: tuple[int, ...]
    adopters: dict[int, int]  # peer -> adopting super-peer
    healing_edges: tuple[tuple[int, int], ...]  # backbone edges added


def fail_superpeer(network: SuperPeerNetwork, superpeer_id: int) -> SuperPeerFailure:
    """Remove a super-peer; re-attach its peers and heal the backbone.

    The paper defers churn to future work; this is the natural recovery
    its data structures afford:

    1. the victim's peers re-run the bootstrapping protocol — each is
       adopted (round-robin) by a surviving super-peer, which merges the
       peer's ext-skyline incrementally (section 5.3's join path);
    2. the backbone is healed: the victim's edges disappear, and if its
       neighbourhood would fall apart, former neighbours are linked
       pairwise (ring over the neighbourhood) to preserve connectivity.

    Every later query remains exact — only routing costs change.
    """
    if superpeer_id not in network.superpeers:
        raise KeyError(f"unknown super-peer {superpeer_id}")
    if len(network.superpeers) == 1:
        raise ValueError("cannot fail the last super-peer")
    topology = network.topology
    victim_neighbours = topology.adjacency[superpeer_id]
    orphans = topology.peers_of[superpeer_id]

    # --- backbone healing -------------------------------------------
    del topology.adjacency[superpeer_id]
    for nb in victim_neighbours:
        topology.adjacency[nb] = tuple(x for x in topology.adjacency[nb] if x != superpeer_id)
    healing: list[tuple[int, int]] = []
    ring = sorted(victim_neighbours)
    for a, b in zip(ring, ring[1:]):
        if b not in topology.adjacency[a]:
            topology.adjacency[a] = tuple(sorted(topology.adjacency[a] + (b,)))
            topology.adjacency[b] = tuple(sorted(topology.adjacency[b] + (a,)))
            healing.append((a, b))

    # --- peer adoption ----------------------------------------------
    del topology.peers_of[superpeer_id]
    victim_state = network.superpeers.pop(superpeer_id)
    survivors = sorted(network.superpeers)
    adopters: dict[int, int] = {}
    for i, peer_id in enumerate(orphans):
        adopter_id = survivors[i % len(survivors)]
        adopters[peer_id] = adopter_id
        topology.peers_of[adopter_id] = topology.peers_of[adopter_id] + (peer_id,)
        uploaded = victim_state.peer_skylines.get(peer_id)
        if uploaded is None:  # pragma: no cover - defensive
            uploaded = network.peers[peer_id].compute_extended_skyline().result
        adopter = network.superpeers[adopter_id]
        adopter.merge_in_peer(peer_id, uploaded)
    _refresh_preprocessing(network, touched=sorted(set(adopters.values())))
    return SuperPeerFailure(
        superpeer_id=superpeer_id,
        orphaned_peers=tuple(orphans),
        adopters=adopters,
        healing_edges=tuple(healing),
    )


def _refresh_preprocessing(
    network: SuperPeerNetwork, touched: Iterable[int] | None = None
) -> None:
    """Refresh the selectivity report after a membership or data change.

    ``touched`` names the super-peers whose stores (or peer sets)
    changed; only their generation counters advance, which is what lets
    the shm layer republish per-slot deltas — and only their selectivity
    rows are recomputed (:meth:`SuperPeerNetwork.refresh_selectivity`),
    so a one-point update does O(touched) work instead of re-summing
    every peer and list network-wide.  ``None`` bumps and recomputes
    everyone.
    """
    from .network import PreprocessingReport

    touched_ids = None if touched is None else tuple(touched)
    total, uploaded, stored, upload_bytes = network.refresh_selectivity(touched_ids)
    previous = network.preprocessing
    network.epoch += 1
    live = set(network.superpeers)
    for stale in [sp for sp in network.store_generations if sp not in live]:
        del network.store_generations[stale]
    for sp_id in sorted(live if touched_ids is None else set(touched_ids) & live):
        network.bump_store_generation(sp_id)
    network.preprocessing = PreprocessingReport(
        total_points=total,
        peer_skyline_points=uploaded,
        superpeer_store_points=stored,
        upload_bytes=upload_bytes,
        compute_seconds=previous.compute_seconds if previous else 0.0,
    )
