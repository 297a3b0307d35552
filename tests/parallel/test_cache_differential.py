"""Cached-vs-uncached differential: memo hits are byte-identical replays.

A memoized Algorithm 1 scan must reproduce the exact result *and* the
exact deterministic accounting (comparisons, examined counts, message
volume) of the scan that stored it — a worker's scan memo keeps the
scan's positions and counters and replays them, so nothing downstream
can tell a hit from a recomputation.  The tests run the same workload
twice (so the second pass is all hits), and once with a memo that holds
nothing, and demand equality against the serial reference and the
brute-force oracle (``tests.conftest.brute_force_skyline_ids``) for all
five variants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel import ParallelEngine
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids
from tests.parallel.pooled import pooled_runs

DETERMINISTIC = (
    "comparisons",
    "message_count",
    "volume_bytes",
    "critical_path_examined",
)


def _network(seed: int = 11, d: int = 4) -> SuperPeerNetwork:
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


def _queries(network: SuperPeerNetwork) -> list[Query]:
    initiators = sorted(network.superpeers)
    subspaces = [(0, 1), (0, 1), (1, 3), (0, 2, 3), (1, 3)]
    return [
        Query(subspace=sp, initiator=initiators[i % len(initiators)])
        for i, sp in enumerate(subspaces)
    ]


def _assert_matches(serial, cached, label: str) -> None:
    for variant, executions in serial.items():
        for s, c in zip(executions, cached[variant]):
            assert s.result_ids == c.result_ids, (label, variant)
            assert np.array_equal(s.result.points.values, c.result.points.values)
            for field in DETERMINISTIC:
                assert getattr(s, field) == getattr(c, field), (label, variant, field)


class TestCachedMatchesUncached:
    def test_two_cached_passes_match_serial_and_oracle(self):
        """One worker, so the warm pass probes the memo the cold pass filled."""
        network = _network()
        queries = _queries(network)
        variants = list(Variant)
        serial = {v: [execute_query(network, q, v) for q in queries] for v in variants}

        with ParallelEngine(1) as engine:
            cold = pooled_runs(engine, network, queries, variants)
            warm = pooled_runs(engine, network, queries, variants)
            assert engine.stats.cache_hits > 0, "repeated subspaces never hit"

        _assert_matches(serial, cold, "cold")
        _assert_matches(serial, warm, "warm")

        everything = network.all_points()
        for query in queries:
            expected = brute_force_skyline_ids(everything, query.subspace)
            for variant in variants:
                idx = queries.index(query)
                assert warm[variant][idx].result_ids == expected

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_warm_pass_replays_every_scan(self, monkeypatch, method):
        """A repeated pass scans nothing: every probe of the second pass
        hits.  60 = 5 queries × 4 SKYPEER variants × 3 super-peers (naive
        never probes).  One worker, because a memo is private to its
        worker: on two, a warm query may land where its scans never ran."""
        monkeypatch.setenv("REPRO_MP_START", method)
        network = _network()
        queries = _queries(network)
        variants = list(Variant)
        with ParallelEngine(1) as engine:
            assert engine.start_method == method
            cold = pooled_runs(engine, network, queries, variants)
            after_cold = engine.stats.as_dict()
            warm = pooled_runs(engine, network, queries, variants)
            after_warm = engine.stats.as_dict()
        assert after_warm["cache_hits"] - after_cold["cache_hits"] == 60
        assert after_warm["cache_misses"] == after_cold["cache_misses"]
        _assert_matches(cold, warm, f"warm-{method}")

    def test_cache_off_matches_cache_on(self, monkeypatch):
        """Off: forked workers whose memo holds nothing, so every scan
        runs and is evicted as soon as it is stored."""
        import repro.p2p.network as network_module

        network = _network(seed=23)
        queries = _queries(network)
        variants = list(Variant)

        # A worker's attached network is built after the fork, with the cap.
        monkeypatch.setattr(network_module, "_SCAN_MEMO_CAP", 0)
        with ParallelEngine(2, mp_start="fork") as engine:
            pooled_runs(engine, network, queries, variants)
            off = pooled_runs(engine, network, queries, variants)
            assert engine.stats.cache_hits == 0 < engine.stats.cache_evictions

        monkeypatch.undo()
        with ParallelEngine(1) as engine:  # one memo: the warm pass hits
            pooled_runs(engine, network, queries, variants)
            on = pooled_runs(engine, network, queries, variants)
            assert engine.stats.cache_hits > 0

        _assert_matches(off, on, "on-vs-off")


@st.composite
def cache_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 4))
    topo = Topology.generate(n_peers=4, n_superpeers=2, degree=3.0, seed=seed)
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            n = draw(st.integers(2, 8))
            partitions[pid] = PointSet(
                rng.random((n, d)), np.arange(next_id, next_id + n)
            )
            next_id += n
    net = SuperPeerNetwork.from_partitions(topo, partitions)
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    initiator = draw(st.sampled_from(sorted(topo.superpeer_ids)))
    # The same query twice: the second execution replays cached blocks.
    query = Query(subspace=tuple(sorted(dims)), initiator=initiator)
    return net, [query, query]


@given(cache_cases())
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_cached_replay_is_indistinguishable_property(case):
    net, queries = case
    variants = list(Variant)
    serial = {v: [execute_query(net, q, v) for q in queries] for v in variants}
    with ParallelEngine(2) as engine:
        parallel = pooled_runs(engine, net, queries, variants)
    _assert_matches(serial, parallel, "property")
    expected = brute_force_skyline_ids(net.all_points(), queries[0].subspace)
    for variant in variants:
        for execution in parallel[variant]:
            assert execution.result_ids == expected
