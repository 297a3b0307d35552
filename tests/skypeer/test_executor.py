"""Unit and integration tests for the SKYPEER executor (Algorithm 3)."""

import math

import numpy as np
import pytest

from repro.core.extended_skyline import subspace_skyline_points
from repro.data.workload import Query
from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import Clock, execute_query
from repro.skypeer.variants import Variant

ALL = tuple(Variant)


class TestClock:
    def test_compute_advances_both(self):
        c = Clock().after_compute(2.0)
        assert c.comp == 2.0 and c.total == 2.0

    def test_comp_never_exceeds_total(self, small_network):
        query = Query(subspace=(0, 2), initiator=small_network.topology.superpeer_ids[0])
        for variant in ALL:
            got = execute_query(small_network, query, variant)
            assert got.computational_time <= got.total_time + 1e-12


class TestExactness:
    @pytest.mark.parametrize("variant", ALL)
    def test_matches_centralized_oracle(self, small_network, variant):
        for sub in [(0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4)]:
            expected = subspace_skyline_points(small_network.all_points(), sub).id_set()
            for initiator in small_network.topology.superpeer_ids:
                query = Query(subspace=sub, initiator=initiator)
                got = execute_query(small_network, query, variant)
                assert got.result_ids == expected, (sub, initiator)

    def test_all_variants_agree(self, small_network):
        query = Query(subspace=(1, 2, 4), initiator=small_network.topology.superpeer_ids[1])
        results = {v: execute_query(small_network, query, v).result_ids for v in ALL}
        assert len(set(results.values())) == 1

    def test_single_superpeer_network(self):
        net = SuperPeerNetwork.build(
            n_peers=8, points_per_peer=20, dimensionality=3, n_superpeers=1, seed=4
        )
        query = Query(subspace=(0, 2), initiator=net.topology.superpeer_ids[0])
        truth = subspace_skyline_points(net.all_points(), (0, 2)).id_set()
        for variant in ALL:
            assert execute_query(net, query, variant).result_ids == truth

    def test_string_variant_accepted(self, small_network):
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        got = execute_query(small_network, query, "ftpm")
        assert got.variant is Variant.FTPM

    def test_unknown_initiator_rejected(self, small_network):
        query = Query(subspace=(0, 1), initiator=10**9)
        with pytest.raises(KeyError):
            execute_query(small_network, query)

    def test_result_is_f_sorted(self, small_network):
        query = Query(subspace=(0, 3), initiator=small_network.topology.superpeer_ids[0])
        for variant in ALL:
            got = execute_query(small_network, query, variant)
            assert np.all(np.diff(got.result.f) >= 0)


class TestThresholdSemantics:
    def test_initial_threshold_recorded(self, small_network):
        query = Query(subspace=(0, 2), initiator=small_network.topology.superpeer_ids[0])
        got = execute_query(small_network, query, Variant.FTFM)
        assert math.isfinite(got.initial_threshold)
        naive = execute_query(small_network, query, Variant.NAIVE)
        assert naive.initial_threshold == math.inf

    def test_refined_thresholds_monotone_along_tree(self, small_network):
        """RT*: every super-peer's outgoing threshold <= incoming one."""
        root = small_network.topology.superpeer_ids[0]
        query = Query(subspace=(0, 2), initiator=root)
        got = execute_query(small_network, query, Variant.RTPM)
        parent, _children = small_network.topology.bfs_tree(root)
        traces = got.traces
        for sp, trace in traces.items():
            if parent[sp] is not None:
                assert trace.threshold <= traces[parent[sp]].threshold + 1e-12

    def test_threshold_reduces_examined_points(self, small_network):
        """FT variants scan no more than naive-equivalent full scans."""
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        got = execute_query(small_network, query, Variant.FTFM)
        for sp, trace in got.traces.items():
            assert trace.examined <= trace.input_size


class TestCostAccounting:
    def test_volume_positive_and_pm_cheaper(self, small_network):
        query = Query(subspace=(0, 1, 2), initiator=small_network.topology.superpeer_ids[0])
        fm = execute_query(small_network, query, Variant.FTFM)
        pm = execute_query(small_network, query, Variant.FTPM)
        assert 0 < pm.volume_bytes <= fm.volume_bytes

    def test_naive_volume_at_least_ftfm(self, small_network):
        query = Query(subspace=(0, 1, 2), initiator=small_network.topology.superpeer_ids[0])
        naive = execute_query(small_network, query, Variant.NAIVE)
        ftfm = execute_query(small_network, query, Variant.FTFM)
        assert naive.volume_bytes >= ftfm.volume_bytes

    def test_message_counts(self, small_network):
        n_sp = small_network.n_superpeers
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        pm = execute_query(small_network, query, Variant.FTPM)
        # PM: one query + one result message per tree edge
        assert pm.message_count == 2 * (n_sp - 1)
        fm = execute_query(small_network, query, Variant.FTFM)
        assert fm.message_count >= pm.message_count

    def test_bandwidth_scales_total_time(self):
        # needs several super-peers so transfers actually happen
        slow = SuperPeerNetwork.build(
            n_peers=40, points_per_peer=20, dimensionality=4, n_superpeers=4, seed=3,
            cost_model=CostModel(bandwidth_bytes_per_sec=1024.0),
        )
        fast = SuperPeerNetwork.build(
            n_peers=40, points_per_peer=20, dimensionality=4, n_superpeers=4, seed=3,
            cost_model=CostModel(bandwidth_bytes_per_sec=1024.0 * 64),
        )
        query = Query(subspace=(0, 2), initiator=slow.topology.superpeer_ids[0])
        t_slow = execute_query(slow, query, Variant.FTFM).total_time
        t_fast = execute_query(fast, query, Variant.FTFM).total_time
        assert t_slow > t_fast

    def test_local_result_points_recorded(self, small_network):
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        got = execute_query(small_network, query, Variant.FTFM)
        assert got.local_result_points >= len(got.result)


@pytest.mark.parametrize("variant", ALL)
def test_a_query_leaves_nothing_to_the_cycle_collector(small_network, variant):
    """The nodes and their carrier refer to each other while a query runs;
    once it returns, its lists must go by reference count — a serving
    worker that left them to the collector peaked 4-6 MB higher."""
    import gc

    query = Query(subspace=(0, 2), initiator=small_network.topology.superpeer_ids[0])
    execute_query(small_network, query, variant)
    gc.collect()
    gc.disable()
    try:
        execute_query(small_network, query, variant)
        assert gc.collect() == 0
    finally:
        gc.enable()
