"""The flooded backbone on the model clocks (``run_protocol``).

``run_protocol`` is ``execute_query``'s driver handed the full adjacency
instead of the BFS tree; carrier agreement across all four carriers is
in ``test_carriers.py``, the node on its own in ``test_node.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids

ALL = tuple(Variant)


class TestProtocolExactness:
    @pytest.mark.parametrize("variant", ALL)
    def test_matches_centralized_oracle(self, small_network, variant):
        for sub in [(0, 2), (1, 3, 4)]:
            expected = brute_force_skyline_ids(small_network.all_points(), sub)
            query = Query(subspace=sub, initiator=small_network.topology.superpeer_ids[0])
            got = run_protocol(small_network, query, variant)
            assert got.result_ids == expected, (sub, variant)

    @pytest.mark.parametrize("variant", ALL)
    def test_matches_plan_based_executor(self, small_network, variant):
        """Flooding changes who a super-peer's parent is, never the answer:
        the ids come back in the order the tree-routed plan returns them."""
        query = Query(subspace=(0, 1, 3), initiator=small_network.topology.superpeer_ids[1])
        protocol = run_protocol(small_network, query, variant)
        planned = execute_query(small_network, query, variant)
        assert list(protocol.result.points.ids) == list(planned.result.points.ids)
        assert list(protocol.result.f) == list(planned.result.f)

    def test_single_superpeer(self):
        net = SuperPeerNetwork.build(
            n_peers=6, points_per_peer=15, dimensionality=3, n_superpeers=1, seed=8
        )
        query = Query(subspace=(0, 2), initiator=net.topology.superpeer_ids[0])
        expected = brute_force_skyline_ids(net.all_points(), (0, 2))
        for variant in ALL:
            assert run_protocol(net, query, variant).result_ids == expected

    def test_result_carries_full_space_points(self, small_network):
        """Nothing crosses a wire codec on the model clocks, so the answer
        is ``execute_query``'s: whole points (projection is checked where
        it happens, ``test_netexec.py``)."""
        query = Query(subspace=(1, 4), initiator=small_network.topology.superpeer_ids[0])
        got = run_protocol(small_network, query, Variant.FTPM)
        assert got.result.points.dimensionality == small_network.dimensionality
        for point_id, coords in got.result.points:
            np.testing.assert_array_equal(
                coords, small_network.all_points().by_id(point_id)
            )

    @pytest.mark.parametrize("variant", ALL)
    def test_a_tree_shaped_backbone_floods_like_the_plan(self, variant):
        """On a backbone that *is* a tree the adjacency is the BFS tree:
        nothing is declined and every number equals ``execute_query``'s."""
        net = SuperPeerNetwork.build(
            n_peers=40, points_per_peer=10, dimensionality=4, n_superpeers=10,
            degree=1.0, seed=2,
        )
        edges = sum(len(ns) for ns in net.topology.adjacency.values()) // 2
        assert edges == net.n_superpeers - 1
        query = Query(subspace=(0, 3), initiator=net.topology.superpeer_ids[3])
        flood = run_protocol(net, query, variant)
        plan = execute_query(net, query, variant)
        assert flood.duplicate_replies == 0
        assert flood.message_count == plan.message_count
        assert flood.volume_bytes == plan.volume_bytes
        assert flood.query_messages == net.n_superpeers - 1
        assert list(flood.result.points.ids) == list(plan.result.points.ids)


class TestFloodingBehaviour:
    def test_query_reaches_every_superpeer(self, small_network):
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        got = run_protocol(small_network, query, Variant.FTFM)
        # flooding sends the query over >= the spanning tree's edges
        assert got.query_messages >= small_network.n_superpeers - 1

    def test_duplicate_replies_count_non_tree_edges(self):
        """In a flooded backbone, every edge beyond the implicit tree
        triggers duplicate-suppression replies."""
        net = SuperPeerNetwork.build(
            n_peers=100, points_per_peer=10, dimensionality=3, degree=5.0, seed=13
        )
        query = Query(subspace=(0, 1), initiator=net.topology.superpeer_ids[0])
        got = run_protocol(net, query, Variant.FTPM)
        edges = sum(len(ns) for ns in net.topology.adjacency.values()) // 2
        tree_edges = net.n_superpeers - 1
        # each non-tree edge is crossed by queries from both (or one) side
        assert got.duplicate_replies >= edges - tree_edges

    def test_flooding_costs_at_least_the_tree_plan(self, small_network):
        """The executor's tree is an idealization; the real flood pays
        for duplicate queries and suppression replies on top."""
        query = Query(subspace=(0, 2), initiator=small_network.topology.superpeer_ids[0])
        flood = run_protocol(small_network, query, Variant.FTPM)
        plan = execute_query(small_network, query, Variant.FTPM)
        assert flood.message_count >= plan.message_count

    def test_total_time_positive_and_finite(self, small_network):
        query = Query(subspace=(0, 2), initiator=small_network.topology.superpeer_ids[0])
        got = run_protocol(small_network, query, Variant.RTPM)
        assert 0 < got.total_time < float("inf")
        assert got.events > 0

    def test_string_variant(self, small_network):
        query = Query(subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0])
        assert run_protocol(small_network, query, "naive").variant is Variant.NAIVE


@st.composite
def protocol_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    d = draw(st.integers(2, 4))
    n_superpeers = draw(st.integers(1, 5))
    peers_per_sp = draw(st.integers(1, 3))
    points = draw(st.integers(1, 12))
    k = draw(st.integers(1, d))
    dims = tuple(sorted(draw(
        st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True)
    )))
    variant = draw(st.sampled_from(list(Variant)))
    return seed, d, n_superpeers, peers_per_sp, points, dims, variant


@given(protocol_cases())
@settings(max_examples=25, deadline=None)
def test_protocol_exact_on_random_networks(case):
    seed, d, n_sp, ppsp, points, dims, variant = case
    net = SuperPeerNetwork.build(
        n_peers=n_sp * ppsp,
        points_per_peer=points,
        dimensionality=d,
        n_superpeers=n_sp,
        seed=seed,
    )
    initiator = net.topology.superpeer_ids[seed % n_sp]
    query = Query(subspace=dims, initiator=initiator)
    expected = brute_force_skyline_ids(net.all_points(), dims)
    got = run_protocol(net, query, variant)
    assert got.result_ids == expected
