"""Unit tests for peer churn (join per section 5.3; failure = future work)."""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.extended_skyline import subspace_skyline_points
from repro.data.workload import Query
from repro.p2p.churn import fail_peer, join_peer
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant


@pytest.fixture
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(n_peers=30, points_per_peer=20, dimensionality=4, seed=17)


def _fresh_points(rng, n, start_id):
    return PointSet(rng.random((n, 4)), np.arange(start_id, start_id + n))


class TestJoin:
    def test_join_updates_membership(self, network, rng):
        sp = network.topology.superpeer_ids[0]
        before = network.n_peers
        event = join_peer(network, sp, _fresh_points(rng, 25, 10_000))
        assert network.n_peers == before + 1
        assert event.kind == "join"
        assert event.peer_id in network.topology.peers_of[sp]
        assert event.peer_skyline_delta > 0

    def test_join_keeps_queries_exact(self, network, rng):
        sp = network.topology.superpeer_ids[0]
        join_peer(network, sp, _fresh_points(rng, 25, 10_000))
        query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[-1])
        truth = subspace_skyline_points(network.all_points(), query.subspace).id_set()
        for variant in Variant:
            got = execute_query(network, query, variant)
            assert got.result_ids == truth, variant

    def test_join_is_incremental(self, network, rng):
        """The merge touches only the store and the new list."""
        sp_id = network.topology.superpeer_ids[0]
        store_before = network.superpeers[sp_id].store_size
        event = join_peer(network, sp_id, _fresh_points(rng, 25, 10_000))
        assert event.examined <= store_before + event.peer_skyline_delta

    def test_join_refreshes_selectivity(self, network, rng):
        total_before = network.preprocessing.total_points
        join_peer(network, network.topology.superpeer_ids[0], _fresh_points(rng, 25, 10_000))
        assert network.preprocessing.total_points == total_before + 25

    def test_duplicate_peer_id_rejected(self, network, rng):
        with pytest.raises(ValueError, match="already present"):
            join_peer(network, network.topology.superpeer_ids[0],
                      _fresh_points(rng, 5, 10_000), peer_id=0)

    def test_dimensionality_checked(self, network, rng):
        with pytest.raises(ValueError, match="dim"):
            join_peer(network, network.topology.superpeer_ids[0],
                      PointSet(rng.random((5, 3))))


class TestFailure:
    def test_failure_updates_membership(self, network):
        victim = next(iter(network.peers))
        event = fail_peer(network, victim)
        assert event.kind == "fail"
        assert victim not in network.peers
        assert victim not in network.topology.peers_of[event.superpeer_id]

    def test_failure_keeps_queries_exact(self, network):
        victim = next(iter(network.peers))
        fail_peer(network, victim)
        query = Query(subspace=(1, 3), initiator=network.topology.superpeer_ids[0])
        truth = subspace_skyline_points(network.all_points(), query.subspace).id_set()
        for variant in Variant:
            got = execute_query(network, query, variant)
            assert got.result_ids == truth, variant

    def test_unknown_peer_rejected(self, network):
        with pytest.raises(KeyError):
            fail_peer(network, 10**9)

    def test_join_then_fail_roundtrip(self, network, rng):
        sp = network.topology.superpeer_ids[0]
        store_before = network.superpeers[sp].store.points.id_set()
        event = join_peer(network, sp, _fresh_points(rng, 25, 10_000))
        fail_peer(network, event.peer_id)
        assert network.superpeers[sp].store.points.id_set() == store_before
