"""The public API surface: everything README/examples rely on."""

import numpy as np

import repro

from tests.conftest import brute_force_skyline_ids


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        """The module docstring's quickstart, executed."""
        net = repro.SuperPeerNetwork.build(
            n_peers=100, points_per_peer=50, dimensionality=6, seed=7
        )
        query = repro.Query(subspace=(0, 2, 5), initiator=net.topology.superpeer_ids[0])
        answer = repro.execute_query(net, query, repro.Variant.FTPM)
        assert len(answer.result.points) > 0

    def test_centralized_helpers_exported(self, rng):
        points = repro.PointSet(rng.random((50, 4)))
        sky = repro.subspace_skyline_points(points, (0, 2))
        ext = repro.extended_skyline(points).points
        assert sky.id_set() == brute_force_skyline_ids(points, (0, 2))
        assert ext.id_set() == brute_force_skyline_ids(points, strict=True)
        assert sky.id_set() <= ext.id_set()

    def test_churn_exported(self):
        net = repro.SuperPeerNetwork.build(
            n_peers=10, points_per_peer=10, dimensionality=3, seed=1
        )
        event = repro.join_peer(
            net, net.topology.superpeer_ids[0],
            repro.PointSet(np.random.default_rng(0).random((5, 3)),
                           np.arange(10_000, 10_005)),
        )
        assert event.kind == "join"
        repro.fail_peer(net, event.peer_id)
