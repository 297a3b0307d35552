"""Unit tests for the scan memo every network owns (``ScanMemo``).

Run in-process with a small cap: LRU eviction order, invalidation by
store generation, and a replay that is the fresh scan byte for byte.
"""

from __future__ import annotations

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.local_skyline import local_subspace_skyline
from repro.data.workload import Query, generate_workload
from repro.p2p.network import ScanMemo, SuperPeerNetwork
from repro.p2p.updates import insert_points
from repro.p2p.workload import apply_mutation, fresh_points
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant


@pytest.fixture
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=12, points_per_peer=15, dimensionality=5, n_superpeers=3, seed=4
    )


def _memo(network, cap):
    """The network's memo, emptied and capped at ``cap``; its scan."""
    memo = network.scan_memo = ScanMemo(cap)
    return memo, network.scan


def _fresh(network):
    """Algorithm 1 with no memo."""
    def fresh(sp, subspace, threshold):
        return local_subspace_skyline(network.store_of(sp), subspace, initial_threshold=threshold)
    return fresh


def _assert_same_scan(a, b):
    assert a.result.points.ids.tolist() == b.result.points.ids.tolist()
    assert np.array_equal(a.result.points.values, b.result.points.values)
    assert np.array_equal(a.result.f, b.result.f)
    assert np.array_equal(a.positions, b.positions)
    assert a.threshold == b.threshold
    assert a.examined == b.examined
    assert a.comparisons == b.comparisons
    assert a.input_size == b.input_size
    assert a.duration == b.duration


@pytest.mark.parametrize("subspace", [(0, 2), (1, 3, 4), (0, 1, 2, 3, 4)])
def test_replay_equals_the_fresh_scan(network, subspace):
    memo, compute = _memo(network, cap=4)
    fresh = _fresh(network)
    sp = network.topology.superpeer_ids[0]
    for threshold in (math.inf, fresh(sp, subspace, math.inf).threshold * 1.5):
        first = compute(sp, subspace, threshold)
        replayed = compute(sp, subspace, threshold)
        _assert_same_scan(replayed, first)  # the miss's duration included
        reference = fresh(sp, subspace, threshold)
        reference.duration = first.duration
        _assert_same_scan(replayed, reference)
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
    reference = _fresh(network)(touched, subspace, math.inf)
    reference.duration = after.duration
    _assert_same_scan(after, reference)
    compute(other, subspace, math.inf)
    assert memo.hits == 1


def test_uniform_load_evicts_and_answers_stay_exact(network):
    """More distinct scans than entries: the memo must evict, and the
    answers must not move."""
    rng = np.random.default_rng(7)
    queries = generate_workload(
        24, network.dimensionality, 3, list(network.topology.superpeer_ids), rng
    )
    memo, _ = _memo(network, cap=8)
    unmemoized = copy.copy(network)  # the same stores, a memo of its own
    unmemoized.scan_memo = ScanMemo(0)
    for query in queries:
        memoized = execute_query(network, query, Variant.FTPM)
        serial = execute_query(unmemoized, query, Variant.FTPM)
        assert memoized.result_ids == serial.result_ids
        assert memoized.comparisons == serial.comparisons
    assert memo.misses > 8 and memo.hits > 0
    assert memo.evictions == memo.misses - 8 and len(memo) == 8
    assert unmemoized.scan_memo.hits == 0


def _ops():
    # Few subspaces and initiators, so that scans repeat and hit.
    query = st.tuples(
        st.just("query"),
        st.sampled_from([(0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)]),
        st.sampled_from([v for v in Variant if v is not Variant.NAIVE]),
        st.integers(0, 1),  # picks the initiator among the live super-peers
    )
    update = st.tuples(
        st.sampled_from(["insert", "delete", "fail-superpeer"]),
        st.integers(0, 2**16),  # picks the target
        st.integers(1, 4),  # points inserted or deleted
        st.integers(0, 2**16),  # seed of inserted points
    )
    return st.lists(st.one_of(query, query, update), min_size=1, max_size=25)


@given(ops=_ops(), cap=st.sampled_from([2, 1024]))
@settings(max_examples=40, deadline=None)
def test_every_scan_of_a_query_and_update_sequence_is_a_fresh_scan(ops, cap):
    """Queries, inserts, deletes and super-peer failures on the serial
    path: every scan the queries run, hit or miss, equals a fresh
    Algorithm 1 over the store it was asked for, and a hit replays the
    duration of the miss that stored it."""
    network = SuperPeerNetwork.build(
        n_peers=10, points_per_peer=8, dimensionality=4, n_superpeers=4, seed=5
    )
    memo = network.scan_memo = ScanMemo(cap)
    scan = network.scan
    durations: dict[tuple, float] = {}
    scans = hits = 0

    def checked_scan(sp, subspace, threshold):
        nonlocal scans, hits
        key = (sp, network.store_generations[sp], tuple(subspace), float(threshold))
        before = memo.hits
        got = scan(sp, subspace, threshold)
        fresh = local_subspace_skyline(
            network.store_of(sp), subspace, initial_threshold=threshold
        )
        assert got.result.points.ids.tolist() == fresh.result.points.ids.tolist()
        assert np.array_equal(got.result.points.values, fresh.result.points.values)
        assert np.array_equal(got.result.f, fresh.result.f)
        assert (got.threshold, got.examined, got.comparisons, got.input_size) == (
            fresh.threshold, fresh.examined, fresh.comparisons, fresh.input_size,
        )
        scans += 1
        if memo.hits > before:
            hits += 1
            assert got.duration == durations[key]
        else:
            durations[key] = got.duration
        return got

    network.scan = checked_scan
    for kind, *args in ops:
        live = sorted(network.superpeers)
        if kind == "query":
            subspace, variant, pick = args
            execute_query(network, Query(subspace, live[pick % len(live)]), variant)
            continue
        pick, count, seed = args
        if kind == "insert":
            peers = sorted(network.peers)
            apply_mutation(
                network, kind, peer_id=peers[pick % len(peers)],
                points=fresh_points(network, count, seed=seed),
            )
        elif kind == "delete":
            peers = [p for p in sorted(network.peers) if len(network.peers[p].data)]
            peer = peers[pick % len(peers)]
            ids = network.peers[peer].data.ids.tolist()
            apply_mutation(network, kind, peer_id=peer, point_ids=ids[:count])
        elif len(live) > 2:
            apply_mutation(network, kind, superpeer_id=live[pick % len(live)])
    assert scans == memo.hits + memo.misses
    assert hits == memo.hits
    built = 1  # every generation after pre-processing
    rescanned = any(gen > built for _, gen, _, _ in durations)
    event(f"hits: {hits > 0}; a slot scanned after an update: {rescanned}")


def test_a_network_that_has_served_queries_pickles_and_answers_the_same(network):
    """The memo (and its lock) stays out of the pickle; the copy starts
    with an empty memo of its own and answers byte for byte."""
    rng = np.random.default_rng(3)
    queries = generate_workload(
        8, network.dimensionality, 2, list(network.topology.superpeer_ids), rng
    )
    served = [execute_query(network, q, Variant.RTPM) for q in queries]
    assert network.scan_memo.misses and len(network.scan_memo)

    copy_ = pickle.loads(pickle.dumps(network))
    assert copy_.scan_memo is not network.scan_memo
    assert (len(copy_.scan_memo), copy_.scan_memo.counts()) == (
        0, {"hits": 0, "misses": 0, "evictions": 0},
    )
    for query, before in zip(queries, served):
        after = execute_query(copy_, query, Variant.RTPM)
        assert after.result.points.ids.tolist() == before.result.points.ids.tolist()
        assert np.array_equal(after.result.points.values, before.result.points.values)
        assert np.array_equal(after.result.f, before.result.f)
        assert (after.comparisons, after.volume_bytes, after.message_count) == (
            before.comparisons, before.volume_bytes, before.message_count,
        )
    assert copy_.scan_memo.misses == network.scan_memo.misses


def test_threads_sharing_a_memo_lose_no_probe_and_no_answer(network):
    """Six threads (more than the host's cores) scan through one memo
    under a short switch interval, as gateway dispatchers do: every probe
    is counted once, the table stays within its cap, and every scan is
    the fresh one.  The cap is below the nine scans, so hits race
    evictions: unguarded, a hit's ``move_to_end`` can find its key gone."""
    fresh = _fresh(network)
    cases = [
        (sp, subspace) for sp in network.topology.superpeer_ids
        for subspace in [(0, 2), (1, 3, 4), (2,)]
    ]
    memo, scan = _memo(network, cap=4)
    expected = {case: fresh(*case, math.inf).result.points.ids.tolist() for case in cases}
    rounds, errors = 300, []

    def worker(offset):
        try:
            for i in range(rounds):
                case = cases[(offset + i) % len(cases)]
                assert scan(*case, math.inf).result.points.ids.tolist() == expected[case]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.hits + memo.misses == 6 * rounds
    assert len(memo) <= 4 and memo.hits > 0
    assert memo.evictions <= memo.misses - len(memo)
