"""Exactness is independent of the cost model.

Bandwidth, header sizes and per-point byte counts change *when* things
happen and how much they cost — never *what* the answer is.  A quick
property run over adversarial cost models guards the separation
between the algorithmic layer and the cost layer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.workload import Query
from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids


@given(
    st.floats(1.0, 1e12, allow_nan=False),
    st.integers(0, 10_000),
    st.integers(1, 64),
    st.sampled_from(list(Variant)),
)
@settings(max_examples=20, deadline=None)
def test_answers_independent_of_cost_model(bandwidth, header, coord_bytes, variant):
    cost = CostModel(
        bandwidth_bytes_per_sec=bandwidth,
        message_header_bytes=header,
        coordinate_bytes=coord_bytes,
    )
    network = SuperPeerNetwork.build(
        n_peers=9, points_per_peer=12, dimensionality=3, n_superpeers=3,
        seed=5, cost_model=cost,
    )
    query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
    truth = brute_force_skyline_ids(network.all_points(), (0, 2))
    assert execute_query(network, query, variant).result_ids == truth
    assert run_protocol(network, query, variant).result_ids == truth
