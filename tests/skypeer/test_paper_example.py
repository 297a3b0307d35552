"""End-to-end reproduction of the paper's Figure 2 worked example.

Three peers P_A, P_B, P_C attach to super-peer SP_A; each computes its
local extended skyline in the 4-dimensional original space; SP_A merges
them.  The paper's table gives P_A's ext-skyline as all five points
(A3 ext-only), and P_B's as {B1, B3, B4}; P_C's dataset is only
partially legible in the source, so a consistent stand-in with the same
ext-skyline structure ({C4, C5} surviving) is used.
"""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.mapping import f_values
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.node import Peer, SuperPeer
from repro.p2p.topology import Topology
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids


@pytest.fixture
def paper_peer_c() -> PointSet:
    """A P_C-like dataset: C4 = (1,1,3,4) and C5 = (6,6,6,4) survive;
    C1..C3 are ext-dominated by C4."""
    values = np.array(
        [
            [5, 4, 5, 6],  # C1 (first coordinate from the paper's table)
            [4, 5, 6, 5],  # C2
            [3, 3, 4, 5],  # C3
            [1, 1, 3, 4],  # C4
            [6, 6, 6, 4],  # C5
        ],
        dtype=float,
    )
    return PointSet(values, np.array([21, 22, 23, 24, 25]))


class TestFigure2PeerLevel:
    def test_peer_a_f_values(self, paper_peer_a):
        """The paper's table: f = 1 for A2..A5, f = 2 for A1."""
        by_id = dict(zip(paper_peer_a.ids, f_values(paper_peer_a.values)))
        assert by_id[1] == 2.0
        assert all(by_id[i] == 1.0 for i in (2, 3, 4, 5))

    def test_peer_a_ext_skyline(self, paper_peer_a):
        got = Peer(peer_id=0, data=paper_peer_a).compute_extended_skyline()
        assert got.points.id_set() == {1, 2, 3, 4, 5}

    def test_peer_a_regular_skyline_excludes_a3(self, paper_peer_a):
        """'four of the five points of P_A are skyline points, while A3
        is included as an ext-skyline point'."""
        sky = brute_force_skyline_ids(paper_peer_a, (0, 1, 2, 3))
        assert sky == {1, 2, 4, 5}

    def test_peer_b_ext_skyline(self, paper_peer_b):
        """Table: B1, B4, B3 with f values 1, 1, 2; B2 and B5 pruned."""
        got = Peer(peer_id=1, data=paper_peer_b).compute_extended_skyline()
        assert got.points.id_set() == {11, 13, 14}
        f_by_id = dict(zip(got.result.points.ids, got.result.f))
        assert f_by_id[11] == 1.0 and f_by_id[14] == 1.0 and f_by_id[13] == 2.0

    def test_peer_c_ext_skyline(self, paper_peer_c):
        got = Peer(peer_id=2, data=paper_peer_c).compute_extended_skyline()
        assert got.points.id_set() == {24, 25}
        f_by_id = dict(zip(got.result.points.ids, got.result.f))
        assert f_by_id[24] == 1.0 and f_by_id[25] == 4.0


class TestFigure2SuperPeerLevel:
    def test_superpeer_merge(self, paper_peer_a, paper_peer_b, paper_peer_c):
        sp = SuperPeer(superpeer_id=0, dimensionality=4)
        for pid, data in ((0, paper_peer_a), (1, paper_peer_b), (2, paper_peer_c)):
            sp.receive_peer_skyline(
                pid, Peer(peer_id=pid, data=data).compute_extended_skyline().result
            )
        sp.rebuild_store()
        # The store is the ext-skyline of the union of the three datasets.
        union = PointSet.concat([paper_peer_a, paper_peer_b, paper_peer_c])
        expected = brute_force_skyline_ids(union, (0, 1, 2, 3), strict=True)
        assert sp.store.points.id_set() == expected
        # C5 = (6,6,6,4): ext-dominated at the super-peer? A5 = (5,2,4,1)
        # is strictly smaller everywhere, so C5 falls out at SP level.
        assert 25 not in sp.store.points.id_set()

    def test_store_is_f_sorted(self, paper_peer_a, paper_peer_b):
        sp = SuperPeer(superpeer_id=0, dimensionality=4)
        for pid, data in ((0, paper_peer_a), (1, paper_peer_b)):
            sp.receive_peer_skyline(
                pid, Peer(peer_id=pid, data=data).compute_extended_skyline().result
            )
        sp.rebuild_store()
        assert np.all(np.diff(sp.store.f) >= 0)


class TestFigure2EndToEnd:
    def test_distributed_queries_over_figure2_network(
        self, paper_peer_a, paper_peer_b, paper_peer_c
    ):
        """Wire the three peers into an actual network and check every
        subspace query under every variant against the oracle."""
        topo = Topology.generate(n_peers=3, n_superpeers=1, seed=0)
        partitions = {0: paper_peer_a, 1: paper_peer_b, 2: paper_peer_c}
        net = SuperPeerNetwork.from_partitions(topo, partitions)
        union = PointSet.concat([paper_peer_a, paper_peer_b, paper_peer_c])
        from repro.core.subspace import all_subspaces

        for sub in all_subspaces(4):
            expected = brute_force_skyline_ids(union, sub)
            for variant in Variant:
                query = Query(subspace=sub, initiator=0)
                got = execute_query(net, query, variant)
                assert got.result_ids == expected, (sub, variant)
