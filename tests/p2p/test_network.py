"""Unit tests for SuperPeerNetwork construction and pre-processing."""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology

from tests.conftest import brute_force_skyline_ids


class TestBuild:
    def test_shape(self, small_network):
        assert small_network.n_peers == 60
        assert small_network.n_superpeers == 3
        assert small_network.dimensionality == 5

    def test_every_superpeer_has_a_store(self, small_network):
        for sp in small_network.superpeers.values():
            assert sp.store is not None
            assert sp.store_size > 0

    def test_total_points(self, small_network):
        assert len(small_network.all_points()) == 60 * 30

    def test_ids_globally_unique(self, small_network):
        points = small_network.all_points()
        assert len(points.id_set()) == len(points)

    def test_deterministic_given_seed(self):
        a = SuperPeerNetwork.build(n_peers=20, points_per_peer=10, dimensionality=3, seed=5)
        b = SuperPeerNetwork.build(n_peers=20, points_per_peer=10, dimensionality=3, seed=5)
        np.testing.assert_array_equal(a.all_points().values, b.all_points().values)

    def test_clustered_dataset_scatters_around_superpeer_centroids(self):
        net = SuperPeerNetwork.build(
            n_peers=40, points_per_peer=50, dimensionality=3, dataset="clustered", seed=1
        )
        # points of one super-peer's peers form a tight cluster
        for sp_id in net.topology.superpeer_ids:
            peer_ids = net.topology.peers_of[sp_id]
            values = np.concatenate([net.peers[p].data.values for p in peer_ids])
            assert values.std(axis=0).max() < 0.3


class TestPreprocessing:
    def test_store_equals_ext_skyline_of_superpeer_data(self, small_network):
        """The end-to-end invariant of section 5.3."""
        for sp_id, sp in small_network.superpeers.items():
            peer_ids = small_network.topology.peers_of[sp_id]
            union = PointSet.concat(
                [small_network.peers[p].data for p in peer_ids]
            )
            expected = brute_force_skyline_ids(union, strict=True)
            assert sp.store.points.id_set() == expected

    def test_selectivity_report(self, small_network):
        report = small_network.preprocessing
        assert report.total_points == 1800
        assert 0 < report.sel_sp <= report.sel_p <= 1
        assert report.sel_ratio == pytest.approx(report.sel_sp / report.sel_p)

    def test_selectivity_grows_with_dimensionality(self):
        """The fig 3(a) trend, checked directly."""
        sels = []
        for d in (3, 6, 9):
            net = SuperPeerNetwork.build(
                n_peers=40, points_per_peer=40, dimensionality=d, seed=2
            )
            sels.append(net.preprocessing.sel_p)
        assert sels[0] < sels[1] < sels[2]


class TestScan:
    def test_a_nan_threshold_is_refused(self, small_network):
        """No point is at or below NaN, so a scan from it would keep
        nothing and pass an empty list off as the answer."""
        sp = small_network.topology.superpeer_ids[0]
        assert len(small_network.scan(sp, (0, 1), np.inf).result) > 0
        with pytest.raises(ValueError, match="NaN"):
            small_network.scan(sp, (0, 1), np.nan)


class TestFromPartitions:
    def test_explicit_partitions(self, rng):
        topo = Topology.generate(n_peers=6, n_superpeers=2, seed=0)
        partitions = {
            pid: PointSet(rng.random((10, 3)), np.arange(pid * 10, (pid + 1) * 10))
            for peers in topo.peers_of.values()
            for pid in peers
        }
        net = SuperPeerNetwork.from_partitions(topo, partitions)
        assert net.n_peers == 6
        assert net.dimensionality == 3
        assert net.preprocessing is not None

    def test_partition_cover_checked(self, rng):
        topo = Topology.generate(n_peers=6, n_superpeers=2, seed=0)
        with pytest.raises(ValueError, match="exactly"):
            SuperPeerNetwork.from_partitions(topo, {0: PointSet(rng.random((3, 2)))})

    def test_dimensionality_mismatch_checked(self, rng):
        topo = Topology.generate(n_peers=2, n_superpeers=1, seed=0)
        partitions = {
            0: PointSet(rng.random((3, 2))),
            1: PointSet(rng.random((3, 3))),
        }
        with pytest.raises(ValueError, match="mismatched"):
            SuperPeerNetwork.from_partitions(topo, partitions)
