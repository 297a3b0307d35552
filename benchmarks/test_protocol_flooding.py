"""Ablation: the flooded backbone vs. the tree plan.

``execute_query`` hands every super-peer its BFS-tree edges, so messages
are charged to a spanning tree; ``run_protocol`` hands the same nodes
the full adjacency, so the query actually floods (a duplicate receipt is
declined).  The delta quantifies what an unstructured overlay really
pays on top of the idealized routing the figures use — and both return
the same skyline in the same order.
"""

import numpy as np
import pytest

from repro.data.workload import generate_workload
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant


@pytest.fixture(scope="module")
def network():
    return SuperPeerNetwork.build(
        n_peers=400, points_per_peer=40, dimensionality=6, seed=61
    )


@pytest.fixture(scope="module")
def query(network):
    rng = np.random.default_rng(5)
    return generate_workload(1, 6, 3, network.topology.superpeer_ids, rng)[0]


@pytest.mark.parametrize("variant", [Variant.FTPM, Variant.RTPM], ids=lambda v: v.value)
def test_protocol_engine(benchmark, network, query, variant):
    outcome = benchmark(run_protocol, network, query, variant)
    assert len(outcome.result) > 0


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_flood_and_plan_agree(network, query, variant):
    flood = run_protocol(network, query, variant)
    plan = execute_query(network, query, variant)
    assert list(flood.result.points.ids) == list(plan.result.points.ids)


def test_flooding_overhead_quantified(network, query):
    flood = run_protocol(network, query, Variant.FTPM)
    plan = execute_query(network, query, Variant.FTPM)
    # flooding sends the query over every edge (both directions for
    # concurrent forwards), the tree only over N_sp - 1 edges
    assert flood.query_messages >= plan.message_count / 2
    assert flood.message_count >= plan.message_count
    edges = sum(len(ns) for ns in network.topology.adjacency.values()) // 2
    assert flood.duplicate_replies >= edges - (network.n_superpeers - 1) > 0
