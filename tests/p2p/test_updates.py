"""Tests for point-level data updates at peers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.extended_skyline import extended_skyline_points, subspace_skyline_points
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.updates import UpdateRejected, delete_points, insert_points
from repro.p2p.workload import apply_mutation
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.conftest import network_state


@pytest.fixture
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(n_peers=20, points_per_peer=25, dimensionality=4, seed=3)


def _assert_stores_fresh(network):
    """Every super-peer store equals the ext-skyline of its peers' data."""
    for sp_id, sp in network.superpeers.items():
        peer_ids = network.topology.peers_of[sp_id]
        union = PointSet.concat([network.peers[p].data for p in peer_ids])
        assert sp.store.points.id_set() == extended_skyline_points(union).id_set()


def _assert_queries_exact(network):
    query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
    truth = subspace_skyline_points(network.all_points(), (0, 2)).id_set()
    assert execute_query(network, query, Variant.FTPM).result_ids == truth


class TestInsert:
    def test_insert_updates_store(self, network, rng):
        peer_id = next(iter(network.peers))
        outcome = insert_points(
            network, peer_id, PointSet(rng.random((10, 4)), np.arange(9000, 9010))
        )
        assert outcome.kind == "insert"
        assert outcome.points_changed == 10
        assert outcome.path != "rebuilt"
        _assert_stores_fresh(network)
        _assert_queries_exact(network)

    def test_dominating_insert_evicts(self, network):
        """An all-zeros point ext-dominates everything nonzero."""
        peer_id = next(iter(network.peers))
        super_point = PointSet(np.zeros((1, 4)), np.array([9999]))
        insert_points(network, peer_id, super_point)
        _assert_stores_fresh(network)
        sp = network.topology.superpeer_of_peer(peer_id)
        assert 9999 in network.superpeers[sp].store.points.id_set()

    def test_insert_never_full_resorts(self, network, rng):
        """The incremental insert path moves stores only by splices."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.runtime import observed

        peer_id = next(iter(network.peers))
        registry = MetricsRegistry()
        with observed(metrics=registry):
            outcome = insert_points(
                network, peer_id, PointSet(rng.random((5, 4)), np.arange(9100, 9105))
            )
        assert outcome.path == "spliced"
        assert registry.total("store.from_points") == 0
        assert registry.total("update.spliced") == 1
        _assert_stores_fresh(network)

    def test_duplicate_ids_rejected(self, network, rng):
        peer_id = next(iter(network.peers))
        existing = int(network.peers[peer_id].data.ids[0])
        with pytest.raises(ValueError, match="already present"):
            insert_points(
                network, peer_id, PointSet(rng.random((1, 4)), np.array([existing]))
            )

    @pytest.mark.parametrize("kind", ["insert", "join"])
    def test_an_id_another_peer_holds_is_rejected(self, kind):
        """A point id names one point network-wide.  Were a second copy
        accepted at another peer, deleting the id at the first peer would
        take it out of every store while the copy's row stays in the
        data: the answer would lose the all-zeros point."""
        net = SuperPeerNetwork.build(
            n_peers=20, points_per_peer=10, dimensionality=3, seed=1
        )
        a, b = min(net.peers), max(net.peers)
        id0 = int(net.peers[a].data.ids[0])
        copy = PointSet(np.zeros((1, 3)), np.array([id0]))
        change = (
            {"peer_id": b, "points": copy}
            if kind == "insert"
            else {"superpeer_id": net.topology.superpeer_of_peer(b), "data": copy}
        )
        before = network_state(net)
        with pytest.raises(UpdateRejected, match=f"already present: \\[{id0}\\]"):
            apply_mutation(net, kind, **change)
        assert network_state(net) == before
        apply_mutation(net, "delete", peer_id=a, point_ids=[id0])
        query = Query(subspace=(0, 1), initiator=net.topology.superpeer_ids[0])
        truth = subspace_skyline_points(net.all_points(), (0, 1)).id_set()
        assert execute_query(net, query, Variant.FTPM).result_ids == truth

    def test_dimensionality_checked(self, network, rng):
        peer_id = next(iter(network.peers))
        with pytest.raises(ValueError, match="dim"):
            insert_points(network, peer_id, PointSet(rng.random((2, 3))))

    def test_unknown_peer(self, network, rng):
        with pytest.raises(KeyError):
            insert_points(network, 10**9, PointSet(rng.random((1, 4))))

    @pytest.mark.parametrize(
        "values, ids, message",
        [
            ([[0.5, np.nan, 0.5, 0.5]], [9000], "finite"),
            ([[0.5, 0.5, np.inf, 0.5]], [9000], "finite"),
            ([[0.5, 0.5, 0.5]], [9000], "dim"),
            ([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]], [9000, 9000], "repeat"),
        ],
    )
    def test_bad_batches_are_rejected_before_any_mutation(
        self, network, values, ids, message
    ):
        """A NaN row would get ``f = NaN`` and never be dominated; a
        joining peer's data passes the same check as an insert."""
        peer_id = next(iter(network.peers))
        superpeer_id = network.topology.superpeer_of_peer(peer_id)
        before = network_state(network)
        # ``from_trusted``: the checked constructor already refuses NaN.
        points = PointSet.from_trusted(
            np.array(values, dtype=np.float64), np.array(ids, dtype=np.int64)
        )
        with pytest.raises(ValueError, match=message):
            insert_points(network, peer_id, points)
        with pytest.raises(ValueError, match=message):
            apply_mutation(network, "join", superpeer_id=superpeer_id, data=points)
        assert network_state(network) == before

    def test_pointset_refuses_nan(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[0.5, np.nan]]))


class TestDelete:
    def test_delete_non_skyline_point_is_cheap(self, network):
        """Deleting a dominated point must not rebuild anything."""
        for peer_id, peer in network.peers.items():
            sp = network.topology.superpeer_of_peer(peer_id)
            uploaded = network.superpeers[sp].peer_skylines[peer_id].points.id_set()
            dominated = [int(i) for i in peer.data.ids if int(i) not in uploaded]
            if dominated:
                outcome = delete_points(network, peer_id, [dominated[0]])
                assert outcome.path != "rebuilt"
                assert outcome.peer_skyline_delta == 0
                _assert_stores_fresh(network)
                _assert_queries_exact(network)
                return
        pytest.skip("no dominated point found (unexpected at this size)")

    def test_delete_skyline_point_resurfaces_shadowed(self, network):
        peer_id = next(iter(network.peers))
        sp = network.topology.superpeer_of_peer(peer_id)
        uploaded = sorted(network.superpeers[sp].peer_skylines[peer_id].points.id_set())
        outcome = delete_points(network, peer_id, uploaded[:2])
        # The eviction ledger answers: only orphans are re-tested, no
        # peer ext-skyline recompute, no store rebuild.
        assert outcome.path == "promoted"
        assert outcome.path != "rebuilt"
        assert 0 < outcome.examined < len(network.peers[peer_id])
        _assert_stores_fresh(network)
        _assert_queries_exact(network)

    def test_delete_missing_point(self, network):
        peer_id = next(iter(network.peers))
        with pytest.raises(KeyError, match="does not hold"):
            delete_points(network, peer_id, [10**9])

    def test_delete_everything_from_peer(self, network):
        peer_id = next(iter(network.peers))
        all_ids = [int(i) for i in network.peers[peer_id].data.ids]
        delete_points(network, peer_id, all_ids)
        assert len(network.peers[peer_id]) == 0
        _assert_queries_exact(network)


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_update_sequences_stay_exact(seed, n_insert, n_delete):
    """Random insert/delete sequences == rebuild from scratch."""
    rng = np.random.default_rng(seed)
    network = SuperPeerNetwork.build(
        n_peers=6, points_per_peer=10, dimensionality=3, n_superpeers=2, seed=seed
    )
    peer_id = int(rng.choice(list(network.peers)))
    insert_points(
        network, peer_id,
        PointSet(rng.random((n_insert, 3)), np.arange(50_000, 50_000 + n_insert)),
    )
    holdable = [int(i) for i in network.peers[peer_id].data.ids]
    victims = list(rng.choice(holdable, size=min(n_delete, len(holdable)), replace=False))
    if victims:
        delete_points(network, peer_id, victims)
    for sp_id, sp in network.superpeers.items():
        peer_ids = network.topology.peers_of[sp_id]
        parts = [network.peers[p].data for p in peer_ids if len(network.peers[p].data)]
        if not parts:
            assert sp.store_size == 0
            continue
        union = PointSet.concat(parts)
        assert sp.store.points.id_set() == extended_skyline_points(union).id_set()
