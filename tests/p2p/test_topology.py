"""Unit tests for the super-peer topology."""

import numpy as np
import pytest

from repro.p2p.topology import Topology, superpeer_count_rule


class TestSizingRule:
    def test_five_percent_below_20000(self):
        assert superpeer_count_rule(4000) == 200
        assert superpeer_count_rule(12000) == 600

    def test_one_percent_at_20000_and_above(self):
        assert superpeer_count_rule(20000) == 200
        assert superpeer_count_rule(80000) == 800

    def test_minimum_one(self):
        assert superpeer_count_rule(5) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            superpeer_count_rule(0)


class TestGeneration:
    def test_connected(self):
        for seed in range(5):
            topo = Topology.generate(n_peers=400, degree=4.0, seed=seed)
            assert topo.is_connected()

    def test_average_degree_near_target(self):
        topo = Topology.generate(n_peers=2000, degree=5.0, seed=1)
        assert abs(topo.average_degree() - 5.0) < 1.0

    def test_superpeer_count_default_rule(self):
        topo = Topology.generate(n_peers=1000, seed=0)
        assert topo.n_superpeers == 50

    def test_explicit_superpeer_count(self):
        topo = Topology.generate(n_peers=100, n_superpeers=7, seed=0)
        assert topo.n_superpeers == 7

    def test_peers_attached_evenly(self):
        topo = Topology.generate(n_peers=103, n_superpeers=10, seed=0)
        sizes = sorted(len(p) for p in topo.peers_of.values())
        assert sizes[0] >= 10 and sizes[-1] <= 11
        assert topo.n_peers == 103

    def test_peer_ids_globally_unique(self):
        topo = Topology.generate(n_peers=60, n_superpeers=6, seed=0)
        all_peers = [p for peers in topo.peers_of.values() for p in peers]
        assert len(all_peers) == len(set(all_peers)) == 60

    def test_deterministic_with_seed(self):
        a = Topology.generate(n_peers=200, seed=5)
        b = Topology.generate(n_peers=200, seed=5)
        assert a.adjacency == b.adjacency

    def test_max_peer_degree_enforced(self):
        with pytest.raises(ValueError, match="DEG_p"):
            Topology.generate(n_peers=1000, n_superpeers=2, max_peer_degree=100, seed=0)

    def test_single_superpeer(self):
        topo = Topology.generate(n_peers=10, n_superpeers=1, seed=0)
        assert topo.adjacency == {0: ()}
        assert topo.is_connected()

    def test_rejects_more_superpeers_than_peers(self):
        with pytest.raises(ValueError):
            Topology.generate(n_peers=3, n_superpeers=5, seed=0)

    def test_adjacency_is_symmetric(self):
        topo = Topology.generate(n_peers=500, seed=2)
        for node, neighbours in topo.adjacency.items():
            for nb in neighbours:
                assert node in topo.adjacency[nb]


class TestHypercube:
    def test_power_of_two_is_exact_hypercube(self):
        topo = Topology.generate_hypercube(n_peers=64, n_superpeers=8)
        assert all(len(ns) == 3 for ns in topo.adjacency.values())
        assert topo.is_connected()

    def test_incomplete_hypercube_connected(self):
        for n in (1, 2, 3, 5, 11, 100):
            topo = Topology.generate_hypercube(n_peers=max(n, n), n_superpeers=n)
            assert topo.is_connected(), n

    def test_diameter_is_logarithmic(self):
        import math

        topo = Topology.generate_hypercube(n_peers=256, n_superpeers=256)
        hops = topo.hops_from(0)
        assert max(hops.values()) <= math.ceil(math.log2(256))

    def test_adjacency_symmetric(self):
        topo = Topology.generate_hypercube(n_peers=23, n_superpeers=23)
        for node, neighbours in topo.adjacency.items():
            for nb in neighbours:
                assert node in topo.adjacency[nb]

    def test_usable_by_network(self):
        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.skypeer.executor import execute_query
        import numpy as np
        from repro.core.dataset import PointSet

        from tests.conftest import brute_force_skyline_ids

        topo = Topology.generate_hypercube(n_peers=12, n_superpeers=4)
        rng = np.random.default_rng(0)
        partitions = {
            pid: PointSet(rng.random((10, 3)), np.arange(pid * 10, (pid + 1) * 10))
            for peers in topo.peers_of.values()
            for pid in peers
        }
        net = SuperPeerNetwork.from_partitions(topo, partitions)
        query = Query(subspace=(0, 2), initiator=0)
        truth = brute_force_skyline_ids(net.all_points(), (0, 2))
        assert execute_query(net, query, "ftpm").result_ids == truth


class TestRouting:
    @pytest.fixture
    def topo(self) -> Topology:
        return Topology.generate(n_peers=400, seed=3)

    def test_bfs_tree_spans_everything(self, topo):
        root = topo.superpeer_ids[0]
        parent, children = topo.bfs_tree(root)
        assert set(parent) == set(topo.superpeer_ids)
        assert parent[root] is None
        child_count = sum(len(kids) for kids in children.values())
        assert child_count == topo.n_superpeers - 1

    def test_bfs_tree_edges_exist_in_graph(self, topo):
        root = topo.superpeer_ids[0]
        parent, _children = topo.bfs_tree(root)
        for sp, par in parent.items():
            if par is not None:
                assert par in topo.adjacency[sp]

    def test_hops_are_shortest_paths(self, topo):
        root = topo.superpeer_ids[0]
        hops = topo.hops_from(root)
        assert hops[root] == 0
        # hop counts differ by at most 1 across any edge
        for node, neighbours in topo.adjacency.items():
            for nb in neighbours:
                assert abs(hops[node] - hops[nb]) <= 1

    def test_unknown_root_rejected(self, topo):
        with pytest.raises(KeyError):
            topo.bfs_tree(10**9)

    def test_higher_degree_shortens_paths(self):
        """The mechanism behind Figure 4(e)."""
        mean_hops = {}
        for degree in (4, 7):
            topo = Topology.generate(n_peers=4000, degree=float(degree), seed=11)
            hops = topo.hops_from(topo.superpeer_ids[0])
            mean_hops[degree] = np.mean(list(hops.values()))
        assert mean_hops[7] < mean_hops[4]

    def test_superpeer_of_peer(self, topo):
        for sp, peers in topo.peers_of.items():
            if peers:
                assert topo.superpeer_of_peer(peers[0]) == sp
        with pytest.raises(KeyError):
            topo.superpeer_of_peer(10**9)
