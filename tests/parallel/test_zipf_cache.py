"""Zipf-skewed workload against the workers' scan memos.

Real serving load is skewed: a few subspaces dominate (that is exactly
what makes gateway coalescing pay off).  This suite runs the same engine
with a Zipf workload and a uniform one of the same size and asserts
hit-rate monotonicity — skew concentrates probes on few keys, so its
hit rate must strictly exceed the uniform baseline — while the skewed
workload keeps returning exactly the serial reference results.  (The
memo's LRU under pressure is ``test_scan_memo.py``'s concern.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import generate_skewed_workload, generate_workload
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel import ParallelEngine
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.parallel.pooled import pooled_runs

VARIANT = Variant.FTPM
QUERIES = 24


def _network(seed: int = 31, d: int = 6) -> SuperPeerNetwork:
    rng = np.random.default_rng(seed)
    topo = Topology.generate(n_peers=9, n_superpeers=3, degree=3.0, seed=seed)
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((12, d)), np.arange(next_id, next_id + 12)
            )
            next_id += 12
    return SuperPeerNetwork.from_partitions(topo, partitions)


def _run_workload(network, queries) -> tuple[float, list]:
    """One fresh engine pass; returns (hit rate, runs).

    One worker: every query probes the same scan memo, so the hit rate
    does not depend on which worker a query lands on."""
    with ParallelEngine(1) as engine:
        runs = pooled_runs(engine, network, queries, [VARIANT])[VARIANT]
        rate = engine.stats.cache_hit_rate() or 0.0
    return rate, runs


@pytest.fixture(scope="module")
def network():
    return _network()


def _uniform(network):
    rng = np.random.default_rng(7)
    return generate_workload(
        QUERIES, network.dimensionality, 3,
        list(network.topology.superpeer_ids), rng,
    )


def _zipf(network):
    rng = np.random.default_rng(7)
    return generate_skewed_workload(
        QUERIES, network.dimensionality, 3,
        list(network.topology.superpeer_ids), rng,
        distinct_subspaces=3, zipf_s=1.5,
    )


class TestZipfCachePressure:
    def test_skewed_hit_rate_dominates_uniform(self, network):
        uniform_rate, _ = _run_workload(network, _uniform(network))
        zipf_rate, _ = _run_workload(network, _zipf(network))
        # Monotonicity: concentrating probes on 3 subspaces must beat
        # spreading the same number of probes over ~20 — by a margin,
        # not within noise.
        assert zipf_rate > uniform_rate + 0.1, (
            f"zipf hit rate {zipf_rate:.3f} does not dominate "
            f"uniform {uniform_rate:.3f}"
        )

    def test_skewed_results_stay_correct_under_eviction(self, network):
        """Replayed scans must never change answers: engine == serial."""
        queries = _zipf(network)
        _, runs = _run_workload(network, queries)
        for query, run in zip(queries, runs):
            serial = execute_query(network, query, VARIANT)
            assert run.result_ids == serial.result_ids, query
