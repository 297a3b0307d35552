"""Adversarial churn for the eviction ledgers.

Points sit on a coarse grid, so exact ties on some or all dimensions are
the common case (a tie never ext-dominates).  Every other op deletes the
point that witnesses the most ledger entries, peer and store ledgers
together, so each delete orphans as many entries as it can; the ops in
between insert clusters of exact ties around a current store member.
After every op:

* every super-peer store is :func:`~repro.p2p.workload.rebuild_reference`'s
  byte for byte (ids, values and ``f``, in ``(f, id)`` order: a splice
  and a rebuild both put exact ``f`` ties in id order);
* every ledger entry's witness is a current member of the list the
  ledger shadows, and that member ext-dominates the entry's row;
* no op fell back to the from-scratch rebuild.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.p2p.updates import delete_points, insert_points
from repro.p2p.workload import next_point_id, rebuild_reference

LEVELS = 4
OPS = 48


def _grid_network(seed: int, d: int) -> SuperPeerNetwork:
    rng = np.random.default_rng(seed)
    topology = Topology.generate(n_peers=6, n_superpeers=2, degree=2.0, seed=seed)
    partitions = {}
    for peer_id in sorted(p for peers in topology.peers_of.values() for p in peers):
        values = rng.integers(0, LEVELS, size=(20, d)).astype(np.float64)
        partitions[peer_id] = PointSet(values, np.arange(20 * peer_id, 20 * peer_id + 20))
    network = SuperPeerNetwork.from_partitions(topology, partitions)
    for superpeer in network.superpeers.values():
        for peer_id in superpeer.peer_skylines:
            superpeer.ensure_peer_ledger(peer_id, network.peers[peer_id].data)
        superpeer.ensure_store_ledger()
    return network


def _ledgers(network: SuperPeerNetwork):
    """``(ledger, members)`` for every live ledger in the network."""
    for superpeer in network.superpeers.values():
        for peer_id, ledger in superpeer.peer_ledgers.items():
            yield ledger, superpeer.peer_skylines[peer_id].points
        if superpeer.store_ledger is not None:
            yield superpeer.store_ledger, superpeer.require_store().points


def _busiest_witness(network: SuperPeerNetwork) -> int | None:
    counts = Counter()
    for ledger, _ in _ledgers(network):
        counts.update(ledger.witnesses.tolist())
    return min(counts, key=lambda w: (-counts[w], w)) if counts else None


def _owner(network: SuperPeerNetwork, point_id: int) -> int:
    return next(p for p, peer in network.peers.items() if point_id in peer.data.ids)


def _tie_cluster(network: SuperPeerNetwork, rng: np.random.Generator) -> PointSet:
    """Copies of a store member, each column kept or moved one level."""
    store = network.superpeers[min(network.superpeers)].require_store().points
    base = store.values[rng.integers(len(store))]
    steps = rng.integers(-1, 2, size=(4, base.shape[0]))
    steps[0] = 0  # one exact duplicate
    values = np.clip(base + steps, 0, LEVELS - 1)
    start = next_point_id(network)
    return PointSet(values, np.arange(start, start + len(values)))


def _arrays(store) -> tuple[bytes, ...]:
    return store.points.ids.tobytes(), store.points.values.tobytes(), store.f.tobytes()


def _assert_exact(network: SuperPeerNetwork) -> None:
    reference = rebuild_reference(network)
    for sp_id, superpeer in network.superpeers.items():
        live = superpeer.require_store()
        assert np.all(np.diff(live.f) >= 0)
        assert _arrays(live) == _arrays(reference.superpeers[sp_id].require_store())
    for ledger, members in _ledgers(network):
        position = {int(i): k for k, i in enumerate(members.ids)}
        for witness, row in zip(ledger.witnesses.tolist(), ledger.rows):
            assert witness in position, "a ledger witness left its list"
            assert np.all(members.values[position[witness]] < row)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deleting_the_busiest_witness_keeps_the_ledgers_exact(seed, d):
    network = _grid_network(seed, d)
    rng = np.random.default_rng(seed)
    paths = Counter()
    orphaning_deletes = 0
    for index in range(OPS):
        victim = _busiest_witness(network) if index % 2 == 0 else None
        if victim is not None:
            outcome = delete_points(network, _owner(network, victim), [victim])
            orphaning_deletes += 1
        else:
            cluster = _tie_cluster(network, rng)
            peer_id = int(rng.choice(sorted(network.peers)))
            outcome = insert_points(network, peer_id, cluster)
        paths[outcome.path] += 1
        _assert_exact(network)
    assert paths["rebuilt"] == 0
    assert orphaning_deletes and paths["promoted"] == orphaning_deletes
