"""Unit tests for the worker-private scan memo (``ScanMemo``).

Run in-process with a small cap: LRU eviction order, invalidation by
store generation, and a replay that is the fresh scan byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.workload import generate_workload
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.updates import insert_points
from repro.p2p.workload import fresh_points
from repro.parallel.engine import ScanMemo
from repro.skypeer.executor import execute_query, make_local_compute
from repro.skypeer.variants import Variant


@pytest.fixture
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=12, points_per_peer=15, dimensionality=5, n_superpeers=3, seed=4
    )


def _memo(network, cap):
    memo = ScanMemo(network, cap=cap)
    return memo, memo.local_compute()


def _assert_same_scan(a, b):
    assert a.result.points.ids.tolist() == b.result.points.ids.tolist()
    assert np.array_equal(a.result.points.values, b.result.points.values)
    assert np.array_equal(a.result.f, b.result.f)
    assert np.array_equal(a.positions, b.positions)
    assert a.threshold == b.threshold
    assert a.examined == b.examined
    assert a.comparisons == b.comparisons
    assert a.input_size == b.input_size


@pytest.mark.parametrize("subspace", [(0, 2), (1, 3, 4), (0, 1, 2, 3, 4)])
def test_replay_equals_the_fresh_scan(network, subspace):
    memo, compute = _memo(network, cap=4)
    fresh = make_local_compute(network)
    sp = network.topology.superpeer_ids[0]
    for threshold in (math.inf, fresh(sp, subspace, math.inf).threshold * 1.5):
        first = compute(sp, subspace, threshold)
        replayed = compute(sp, subspace, threshold)
        _assert_same_scan(replayed, fresh(sp, subspace, threshold))
        _assert_same_scan(replayed, first)
    assert (memo.hits, memo.misses, memo.evictions) == (2, 2, 0)


def test_lru_evicts_the_least_recently_used(network):
    memo, compute = _memo(network, cap=2)
    sp = network.topology.superpeer_ids[0]
    a, b, c = (0, 1), (1, 2), (2, 3)
    compute(sp, a, math.inf)
    compute(sp, b, math.inf)
    compute(sp, a, math.inf)  # a is now the most recent
    compute(sp, c, math.inf)  # evicts b
    assert (memo.hits, memo.misses, memo.evictions, len(memo)) == (1, 3, 1, 2)
    compute(sp, a, math.inf)
    compute(sp, c, math.inf)
    assert memo.hits == 3
    compute(sp, b, math.inf)  # gone: scans again, evicts a
    assert (memo.misses, memo.evictions) == (4, 2)


def test_a_generation_bump_misses_only_its_own_slot(network):
    memo, compute = _memo(network, cap=8)
    touched, other = network.topology.superpeer_ids[:2]
    subspace = (0, 3)
    compute(touched, subspace, math.inf)
    compute(other, subspace, math.inf)
    peer = network.topology.peers_of[touched][0]
    insert_points(network, peer, fresh_points(network, 3, seed=9))
    after = compute(touched, subspace, math.inf)
    assert (memo.hits, memo.misses) == (0, 3)
    fresh = make_local_compute(network)
    _assert_same_scan(after, fresh(touched, subspace, math.inf))
    compute(other, subspace, math.inf)
    assert memo.hits == 1


def test_uniform_load_evicts_and_answers_stay_exact(network):
    """More distinct scans than entries: the memo must evict, and the
    answers must not move."""
    rng = np.random.default_rng(7)
    queries = generate_workload(
        24, network.dimensionality, 3, list(network.topology.superpeer_ids), rng
    )
    memo, compute = _memo(network, cap=8)
    for query in queries:
        memoized = execute_query(network, query, Variant.FTPM, local_compute=compute)
        serial = execute_query(network, query, Variant.FTPM)
        assert memoized.result_ids == serial.result_ids
        assert memoized.comparisons == serial.comparisons
    assert memo.misses > 8 and memo.hits > 0
    assert memo.evictions == memo.misses - 8 and len(memo) == 8
