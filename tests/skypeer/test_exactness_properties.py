"""Property-based, end-to-end exactness of the distributed engine.

The paper's central correctness claim ("SKYPEER computes the exact
subspace skyline results") is tested by wiring randomized networks over
randomized datasets and comparing every variant's answer for random
subspaces against the centralized oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids


@st.composite
def random_networks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 5))
    n_superpeers = draw(st.integers(1, 6))
    peers_per_sp = draw(st.integers(1, 4))
    n_peers = n_superpeers * peers_per_sp
    points_per_peer = draw(st.integers(1, 15))
    use_grid = draw(st.booleans())
    topo = Topology.generate(
        n_peers=n_peers, n_superpeers=n_superpeers, degree=3.0, seed=seed
    )
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            if use_grid:
                values = rng.integers(0, 4, size=(points_per_peer, d)).astype(float)
            else:
                values = rng.random((points_per_peer, d))
            partitions[pid] = PointSet(
                values, np.arange(next_id, next_id + points_per_peer)
            )
            next_id += points_per_peer
    net = SuperPeerNetwork.from_partitions(topo, partitions)
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    initiator = draw(st.sampled_from(sorted(topo.superpeer_ids)))
    return net, tuple(sorted(dims)), initiator


@given(random_networks())
@settings(max_examples=40, deadline=None)
def test_every_variant_is_exact(case):
    net, subspace, initiator = case
    expected = brute_force_skyline_ids(net.all_points(), subspace)
    query = Query(subspace=subspace, initiator=initiator)
    for variant in Variant:
        got = execute_query(net, query, variant)
        assert got.result_ids == expected, variant


@given(random_networks())
@settings(max_examples=25, deadline=None)
def test_metrics_are_consistent(case):
    net, subspace, initiator = case
    query = Query(subspace=subspace, initiator=initiator)
    for variant in Variant:
        got = execute_query(net, query, variant)
        assert got.computational_time >= 0
        assert got.total_time >= got.computational_time - 1e-12
        assert got.volume_bytes >= 0
        assert got.message_count >= 0
        if net.n_superpeers > 1:
            assert got.message_count >= net.n_superpeers - 1


@given(random_networks())
@settings(max_examples=20, deadline=None)
def test_progressive_merging_never_ships_more(case):
    net, subspace, initiator = case
    query = Query(subspace=subspace, initiator=initiator)
    fm = execute_query(net, query, Variant.FTFM)
    pm = execute_query(net, query, Variant.FTPM)
    assert pm.volume_bytes <= fm.volume_bytes
