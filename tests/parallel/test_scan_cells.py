"""The two executions of Algorithm 1 on the bench's crossover datasets.

The paper's ``sorted`` scan (what :func:`make_local_compute` builds for
every query) and the SaLSa execution of :mod:`repro.core.substrates`
must return the same scan byte for byte; on the full-space datasets
each one's work accounting must also equal the committed
``kernels.crossover`` column of the same name in
``BENCH_baseline.json``.  Across whole queries, ``salsa`` must be
indistinguishable from the sorted scan under every variant — and
nothing but an explicit ``local_compute`` runs it.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.core.local_skyline import local_subspace_skyline
from repro.core.substrates import salsa_subspace_skyline
from repro.data.generators import make_generator
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.skypeer.executor import execute_query, make_local_compute
from repro.skypeer.variants import Variant

N = 1200
DISTRIBUTIONS = ("uniform", "correlated", "anticorrelated")
DIMS = (3, 5, 7)
PIVOT = (0, 1)
#: The two scans, by their column name in ``kernels.crossover``.
SCANS = {
    "sorted": local_subspace_skyline,
    "salsa": salsa_subspace_skyline,
}


@functools.lru_cache(maxsize=None)
def crossover_store(distribution: str, d: int) -> SortedByF:
    """The bench's crossover dataset as one store (same seeds as
    ``bench --smoke``)."""
    rng = np.random.default_rng(20070415 + 1000 * DISTRIBUTIONS.index(distribution) + d)
    return SortedByF.from_points(PointSet(make_generator(distribution)(N, d, rng)))


@functools.lru_cache(maxsize=None)
def committed_crossover() -> dict:
    path = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"
    cells = json.loads(path.read_text(encoding="utf-8"))["kernels"]["crossover"]
    return {(cell["distribution"], cell["d"]): cell for cell in cells}


def compute_for(network: SuperPeerNetwork, substrate: str):
    """The ``local_compute`` that runs ``substrate`` over ``network``."""
    scan = SCANS[substrate]

    def local_compute(sp, sub, threshold):
        return scan(network.store_of(sp), sub, initial_threshold=threshold)

    return local_compute


def run_scan(substrate: str, distribution: str, d: int, subspace):
    return SCANS[substrate](crossover_store(distribution, d), subspace)


@pytest.mark.parametrize("space", ["full", "pivot"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("substrate", SCANS)
def test_substrate_is_identical_to_the_sorted_scan(substrate, distribution, d, space):
    subspace = tuple(range(d)) if space == "full" else PIVOT
    reference = run_scan("sorted", distribution, d, subspace)
    scan = run_scan(substrate, distribution, d, subspace)
    assert scan.threshold == reference.threshold
    assert np.array_equal(scan.positions, reference.positions)
    assert scan.result.points.values.tobytes() == reference.result.points.values.tobytes()
    assert scan.result.points.ids.tobytes() == reference.result.points.ids.tobytes()
    assert scan.result.f.tobytes() == reference.result.f.tobytes()
    assert scan.input_size == N
    if space == "full":
        committed = committed_crossover()[(distribution, d)]
        assert committed["result_size"] == len(scan.result)
        assert scan.comparisons / N == committed["comparisons_per_point"][substrate]


def test_committed_crossover_carries_exactly_the_surviving_cells():
    for cell in committed_crossover().values():
        assert set(cell["comparisons_per_point"]) == set(SCANS)


def test_environment_never_picks_the_scan(monkeypatch, small_network):
    """The substrate variable of older trees is ignored: only an
    explicit ``local_compute`` reaches ``salsa``."""
    monkeypatch.setenv("REPRO_SCAN_SUBSTRATE", "salsa")
    sp, subspace = next(iter(small_network.superpeers)), (0, 2, 4)
    sorted_scan = compute_for(small_network, "sorted")(sp, subspace, float("inf"))
    salsa_scan = compute_for(small_network, "salsa")(sp, subspace, float("inf"))
    assert salsa_scan.comparisons != sorted_scan.comparisons
    scan = make_local_compute(small_network)(sp, subspace, float("inf"))
    assert scan.comparisons == sorted_scan.comparisons


@st.composite
def query_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 4))
    n_superpeers = draw(st.integers(1, 2))
    peers_per_sp = draw(st.integers(1, 2))
    points_per_peer = draw(st.integers(2, 10))
    topology = Topology.generate(
        n_peers=n_superpeers * peers_per_sp,
        n_superpeers=n_superpeers,
        degree=3.0,
        seed=seed,
    )
    partitions = {}
    next_id = 0
    for peers in topology.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((points_per_peer, d)),
                np.arange(next_id, next_id + points_per_peer),
            )
            next_id += points_per_peer
    network = SuperPeerNetwork.from_partitions(topology, partitions)
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    initiator = draw(st.sampled_from(sorted(topology.superpeer_ids)))
    return network, Query(subspace=tuple(sorted(dims)), initiator=initiator)


@given(query_cases())
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kernels_are_indistinguishable_across_all_variants(case):
    """SaLSa under every variant equals the sorted scan.

    Indistinguishable means indistinguishable: not just the same result
    ids but the same initial threshold and the same wire bytes — a
    substrate that altered a local threshold or shipped a different
    payload would leak through ``volume_bytes``.
    """
    network, query = case
    for variant in Variant:
        baseline = execute_query(network, query, variant)
        run = execute_query(
            network, query, variant, local_compute=compute_for(network, "salsa")
        )
        assert run.result_ids == baseline.result_ids, variant
        assert np.array_equal(
            run.result.points.values, baseline.result.points.values
        ), variant
        assert np.array_equal(run.result.points.ids, baseline.result.points.ids), variant
        assert run.initial_threshold == baseline.initial_threshold, variant
        assert run.volume_bytes == baseline.volume_bytes, variant


def test_naive_ignores_kernel_knobs(small_network):
    query = Query(subspace=(1, 3), initiator=next(iter(small_network.superpeers)))
    baseline = execute_query(small_network, query, Variant.NAIVE)
    run = execute_query(
        small_network, query, Variant.NAIVE,
        local_compute=compute_for(small_network, "salsa"),
    )
    assert run.result_ids == baseline.result_ids
    assert run.comparisons == baseline.comparisons
