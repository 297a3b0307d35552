"""Tests for the execution-scheduling helpers and timing structure."""

import pytest

from repro.data.workload import Query
from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import _bfs_preorder, execute_query
from repro.skypeer.variants import Variant


class TestTreeHelpers:
    def test_bfs_preorder_parents_first(self):
        children = {0: (1, 2), 1: (3,), 2: (), 3: ()}
        order = _bfs_preorder(0, children)
        assert order == [0, 1, 2, 3]
        position = {sp: i for i, sp in enumerate(order)}
        for parent, kids in children.items():
            for kid in kids:
                assert position[parent] < position[kid]


class TestTimingStructure:
    @pytest.fixture(scope="class")
    def network(self):
        return SuperPeerNetwork.build(
            n_peers=80, points_per_peer=40, dimensionality=5, seed=23
        )

    def test_zero_bandwidth_effect_on_comp_time(self, network):
        """Computational time is independent of the network transfers in
        expectation: it equals total time when bandwidth is infinite."""
        fast = SuperPeerNetwork.build(
            n_peers=80, points_per_peer=40, dimensionality=5, seed=23,
            cost_model=CostModel(bandwidth_bytes_per_sec=1e15),
        )
        query = Query(subspace=(0, 2), initiator=fast.topology.superpeer_ids[0])
        got = execute_query(fast, query, Variant.FTFM)
        assert got.total_time == pytest.approx(got.computational_time, rel=1e-6)

    def test_total_time_dominated_by_transfers_at_4kbps(self, network):
        query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
        got = execute_query(network, query, Variant.FTFM)
        assert got.total_time > 10 * got.computational_time

    def test_volume_independent_of_bandwidth(self, network):
        query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
        slow = execute_query(network, query, Variant.FTPM)
        fast_net = SuperPeerNetwork.build(
            n_peers=80, points_per_peer=40, dimensionality=5, seed=23,
            cost_model=CostModel(bandwidth_bytes_per_sec=1e9),
        )
        fast = execute_query(fast_net, query, Variant.FTPM)
        assert slow.volume_bytes == fast.volume_bytes

    def test_total_time_lower_bound_from_volume(self, network):
        """Total time can never beat the single best-case transfer of
        the data that actually crossed the initiator's incoming links."""
        query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
        got = execute_query(network, query, Variant.FTPM)
        # every byte of the final result crossed at least one 4 KB/s hop,
        # each id in at least one byte (and a coordinate in none, at worst:
        # a block of equal values sends its 8 bytes once)
        final_bytes = network.cost_model.result_bytes(len(got.result), 2, 1, 0)
        assert got.total_time * 4096 * network.n_superpeers >= final_bytes

    def test_initiator_locality_matters(self, network):
        """Different initiators give different (but exact) timings."""
        sub = (1, 3)
        times = set()
        for initiator in list(network.topology.superpeer_ids)[:3]:
            got = execute_query(network, Query(subspace=sub, initiator=initiator), Variant.FTPM)
            times.add(round(got.total_time, 6))
        assert len(times) > 1
