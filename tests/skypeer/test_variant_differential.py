"""Differential exactness: every variant vs the centralized oracle.

The repo-wide guarantee, stated once as a generative test: for any tiny
randomized network (peer count, dimensionality, dataset shape and the
query subspace all drawn by Hypothesis), the five execution strategies
(naive, FTFM, FTPM, RTFM, RTPM) all return exactly the subspace skyline
that the brute-force oracle (``tests.conftest.brute_force_skyline_ids``,
which shares no code with the library) computes over the union of all
peer data.

This differs from ``test_exactness_properties`` in that the dataset
*kind* — uniform, duplicate-heavy grid, correlated
and anticorrelated — is part of the search space, since threshold
pruning bugs tend to hide in ties and in extreme skyline densities.
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

DATASETS = ("uniform", "grid", "correlated", "anticorrelated")


def _draw_values(kind: str, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    if kind == "grid":
        # Tiny integer grid: maximal tie density, duplicate rows likely.
        return rng.integers(0, 3, size=(n, d)).astype(float)
    base = rng.random((n, d))
    if kind == "correlated":
        drift = rng.random((n, 1))
        return np.clip(0.7 * drift + 0.3 * base, 0.0, 1.0)
    if kind == "anticorrelated":
        values = base.copy()
        values[:, 0] = 1.0 - base[:, 1:].mean(axis=1)
        return np.clip(values, 0.0, 1.0)
    return base


@st.composite
def differential_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 5))
    n_superpeers = draw(st.integers(1, 5))
    peers_per_sp = draw(st.integers(1, 3))
    points_per_peer = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(DATASETS))
    topo = Topology.generate(
        n_peers=n_superpeers * peers_per_sp,
        n_superpeers=n_superpeers,
        degree=3.0,
        seed=seed,
    )
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            values = _draw_values(kind, rng, points_per_peer, d)
            partitions[pid] = PointSet(
                values, np.arange(next_id, next_id + points_per_peer)
            )
            next_id += points_per_peer
    network = SuperPeerNetwork.from_partitions(topo, partitions)
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    initiator = draw(st.sampled_from(sorted(topo.superpeer_ids)))
    return network, tuple(sorted(dims)), initiator


@given(differential_cases())
@settings(max_examples=35, deadline=None)
def test_all_variants_match_the_brute_force_oracle(case):
    network, subspace, initiator = case
    expected = brute_force_skyline_ids(network.all_points(), subspace)
    query = Query(subspace=subspace, initiator=initiator)
    for variant in Variant:
        execution = execute_query(network, query, variant)
        assert execution.result_ids == expected, (
            f"{variant.value} diverged from the centralized oracle on "
            f"subspace {subspace} (seeded network with "
            f"{network.n_superpeers} super-peers)"
        )


@given(differential_cases())
@settings(max_examples=15, deadline=None)
def test_variants_agree_pairwise(case):
    """All five strategies return one identical id set (no oracle)."""
    network, subspace, initiator = case
    query = Query(subspace=subspace, initiator=initiator)
    answers = {
        variant: execute_query(network, query, variant).result_ids
        for variant in Variant
    }
    distinct = set(answers.values())
    assert len(distinct) == 1, {v.value: sorted(a) for v, a in answers.items()}
