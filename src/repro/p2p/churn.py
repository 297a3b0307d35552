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

Every mutation here ends like a data update (:func:`repro.p2p.updates.
settle`): it bumps the touched super-peers' store generations
(``SuperPeerNetwork.store_generations``) so the shared-memory
publication layer can republish only the changed slots, and emits the
``update.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..core.dataset import PointSet
from .network import SuperPeerNetwork
from .node import Peer
from .updates import UpdateOutcome, UpdateRejected, check_incoming, check_unheld, settle

__all__ = ["SuperPeerFailure", "join_peer", "fail_peer", "fail_superpeer"]


def join_peer(
    network: SuperPeerNetwork,
    superpeer_id: int,
    data: PointSet,
    peer_id: int | None = None,
) -> UpdateOutcome:
    """Attach a new peer with ``data`` to ``superpeer_id``.

    Runs the basic bootstrapping protocol of section 5.3: the peer
    computes its local ext-skyline and the super-peer merges it into
    the existing store incrementally (``path="merged"``; ``examined`` is
    the merge's input, the old store plus the new list).
    """
    if superpeer_id not in network.superpeers:
        raise UpdateRejected(f"unknown super-peer {superpeer_id}")
    superpeer = network.superpeers[superpeer_id]
    check_incoming(network, data)
    check_unheld(network, data)
    if peer_id is None:
        peer_id = max(network.peers) + 1 if network.peers else 0
    if peer_id in network.peers:
        raise UpdateRejected(f"peer id {peer_id} already present")
    peer = Peer(peer_id=peer_id, data=data)
    network.peers[peer_id] = peer
    peers_of = network.topology.peers_of
    peers_of[superpeer_id] = peers_of[superpeer_id] + (peer_id,)
    uploaded = peer.compute_extended_skyline().result
    merge = superpeer.merge_in_peer(peer_id, uploaded)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="join",
        points_changed=len(data),
        peer_skyline_delta=len(uploaded),
        path="merged",
        examined=merge.examined,
    )
    return settle(network, (superpeer_id,), outcome)


def fail_peer(network: SuperPeerNetwork, peer_id: int) -> UpdateOutcome:
    """Remove a peer and withdraw its contribution from the store.

    With a live store ledger the withdrawal is incremental (dead list
    spliced out, orphans promoted — ``path="promoted"``); otherwise the
    surviving lists are re-merged from scratch (``path="rebuilt"``).
    """
    if peer_id not in network.peers:
        raise UpdateRejected(f"unknown peer {peer_id}")
    superpeer_id = network.topology.superpeer_of_peer(peer_id)
    superpeer = network.superpeers[superpeer_id]
    departed = network.peers.pop(peer_id)
    peers_of = network.topology.peers_of
    peers_of[superpeer_id] = tuple(p for p in peers_of[superpeer_id] if p != peer_id)
    upload = superpeer.peer_skylines.get(peer_id, ())
    superpeer.ensure_store_ledger()
    path, examined, promoted = superpeer.drop_peer(peer_id)
    outcome = UpdateOutcome(
        peer_id=peer_id,
        superpeer_id=superpeer_id,
        kind="fail",
        points_changed=len(departed),
        peer_skyline_delta=-len(upload),
        path=path,
        examined=examined,
        promoted=promoted,
    )
    return settle(network, (superpeer_id,), outcome)


@dataclass(frozen=True)
class SuperPeerFailure:
    """Outcome of a super-peer failure and the ensuing re-organization.

    Its maintenance accounting has the shape of an
    :class:`~repro.p2p.updates.UpdateOutcome`'s: every orphan's list is
    ``"merged"`` into its adopter's store, ``examined`` sums those
    merges' input and nothing is ``promoted``.
    """

    kind: ClassVar[str] = "fail-superpeer"

    superpeer_id: int
    orphaned_peers: tuple[int, ...]
    adopters: dict[int, int]  # peer -> adopting super-peer
    healing_edges: tuple[tuple[int, int], ...]  # backbone edges added
    path: str = "merged"
    examined: int = 0
    promoted: int = 0


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
        raise UpdateRejected(f"unknown super-peer {superpeer_id}")
    if len(network.superpeers) == 1:
        raise UpdateRejected("cannot fail the last super-peer")
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
    examined = 0
    for i, peer_id in enumerate(orphans):
        adopter_id = survivors[i % len(survivors)]
        adopters[peer_id] = adopter_id
        topology.peers_of[adopter_id] = topology.peers_of[adopter_id] + (peer_id,)
        uploaded = victim_state.peer_skylines.get(peer_id)
        if uploaded is None:  # pragma: no cover - defensive
            uploaded = network.peers[peer_id].compute_extended_skyline().result
        examined += network.superpeers[adopter_id].merge_in_peer(peer_id, uploaded).examined
    outcome = SuperPeerFailure(
        superpeer_id=superpeer_id,
        orphaned_peers=tuple(orphans),
        adopters=adopters,
        healing_edges=tuple(healing),
        examined=examined,
    )
    return settle(network, adopters.values(), outcome)
