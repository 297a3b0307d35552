"""Tests for super-peer failure and network re-organization."""

import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.churn import fail_superpeer
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids


@pytest.fixture
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=40, points_per_peer=20, dimensionality=4, n_superpeers=5, seed=44
    )


class TestFailSuperPeer:
    def test_membership_updates(self, network):
        victim = network.topology.superpeer_ids[0]
        orphans = set(network.topology.peers_of[victim])
        event = fail_superpeer(network, victim)
        assert victim not in network.superpeers
        assert victim not in network.topology.adjacency
        assert set(event.orphaned_peers) == orphans
        # every orphan found a new home
        rehomed = {p for peers in network.topology.peers_of.values() for p in peers}
        assert orphans <= rehomed
        assert set(event.adopters) == orphans

    def test_backbone_stays_connected(self, network):
        for _ in range(3):
            victim = network.topology.superpeer_ids[0]
            fail_superpeer(network, victim)
            assert network.topology.is_connected()

    def test_no_data_lost(self, network):
        total_before = len(network.all_points())
        fail_superpeer(network, network.topology.superpeer_ids[0])
        assert len(network.all_points()) == total_before

    def test_queries_stay_exact(self, network):
        fail_superpeer(network, network.topology.superpeer_ids[2])
        initiator = network.topology.superpeer_ids[0]
        for sub in [(0, 2), (1, 2, 3)]:
            truth = brute_force_skyline_ids(network.all_points(), sub)
            for variant in Variant:
                got = execute_query(network, Query(subspace=sub, initiator=initiator), variant)
                assert got.result_ids == truth, (sub, variant)

    def test_protocol_engine_agrees_after_failure(self, network):
        fail_superpeer(network, network.topology.superpeer_ids[1])
        query = Query(subspace=(0, 3), initiator=network.topology.superpeer_ids[0])
        truth = brute_force_skyline_ids(network.all_points(), (0, 3))
        assert run_protocol(network, query, Variant.FTPM).result_ids == truth

    def test_adopter_stores_fresh(self, network):
        fail_superpeer(network, network.topology.superpeer_ids[0])
        for sp_id, sp in network.superpeers.items():
            peer_ids = network.topology.peers_of[sp_id]
            union = PointSet.concat([network.peers[p].data for p in peer_ids])
            assert sp.store.points.id_set() == brute_force_skyline_ids(union, strict=True)

    def test_cannot_fail_last_superpeer(self):
        net = SuperPeerNetwork.build(
            n_peers=4, points_per_peer=5, dimensionality=3, n_superpeers=1, seed=0
        )
        with pytest.raises(ValueError, match="last super-peer"):
            fail_superpeer(net, net.topology.superpeer_ids[0])

    def test_unknown_superpeer(self, network):
        with pytest.raises(KeyError):
            fail_superpeer(network, 10**9)

    def test_cascading_failures_down_to_one(self, network):
        while network.n_superpeers > 1:
            fail_superpeer(network, network.topology.superpeer_ids[-1])
        assert network.topology.is_connected()
        sub = (0, 1)
        truth = brute_force_skyline_ids(network.all_points(), sub)
        query = Query(subspace=sub, initiator=network.topology.superpeer_ids[0])
        assert execute_query(network, query, Variant.RTPM).result_ids == truth
