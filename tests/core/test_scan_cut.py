"""Algorithm 1's local result is ``SKY_U(store) ∩ {g_U <= t}``.

``g_U(p) = min_{i in U} p[i]`` and ``t`` is the scan's final threshold,
``min(t0, dist_U over every examined row)``.  The scan cuts the rows it
examined at ``t`` on ``g_U`` before the skyline filter, so its ids, in
store order, are the conftest oracle's skyline of the *whole* store
restricted to ``g_U <= t``; ``threshold`` and ``examined`` stay those of
the uncut chunked scan (``reference_scan`` of ``test_two_pass_scan``,
whose two numbers the cut never reads).  Inputs are that file's grids:
exact ties (ties at ``t`` included), duplicate rows, ``-0.0`` beside
``0.0`` and ``+inf``; ``t0`` is infinite, below every key, a key, a
``g_U`` value or the ``dist_U`` of a point from outside the store.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.p2p.network import ScanMemo
from tests.conftest import brute_force_skyline_ids
from tests.core.test_two_pass_scan import alg1, grids, reference_scan

CHUNKS = [1, 64]


def _draw_case(data, d=None, min_u=1):
    values = data.draw(grids(d=d), label="values")
    d = values.shape[1]
    store = SortedByF.from_points(PointSet(values))
    cols = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=min_u), label="U")))
    return store, cols


def _cut_skyline(store, cols, t):
    """Store-ordered ids of the oracle's ``SKY_U(store)`` with ``g_U <= t``."""
    sky = brute_force_skyline_ids(store.points, cols)
    low = store.points.values[:, list(cols)].min(axis=1) <= t
    return [int(i) for i, ok in zip(store.points.ids, low) if ok and int(i) in sky]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_scan_is_the_store_skyline_cut_at_its_threshold(data):
    store, cols = _draw_case(data)
    proj = store.points.values[:, list(cols)]
    finite = sorted({float(x) for x in proj.min(axis=1).tolist() + store.f.tolist() if math.isfinite(x)})
    t0 = data.draw(st.sampled_from([math.inf, -1.0] + finite), label="t0")
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")

    _, threshold, examined = reference_scan(store.f.tolist(), proj.tolist(), t0, chunk)
    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
        got = local_subspace_skyline(store, cols, initial_threshold=t0)
    assert got.threshold == threshold
    assert got.examined == examined
    assert got.result.points.ids.tolist() == _cut_skyline(store, cols, got.threshold)
    assert np.array_equal(got.result.f, store.f[got.positions])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_bound_from_a_real_point_loses_no_answer(data):
    """``t0 = dist_U(q)`` of a point ``q`` outside the store: every store
    row in ``SKY_U(store + q)`` survives the scan."""
    store, cols = _draw_case(data)
    d = store.points.values.shape[1]
    levels = sorted(set(store.points.values.ravel().tolist()) | {0.0, 1.0, 2.0})
    q = np.asarray([data.draw(st.lists(st.sampled_from(levels), min_size=d, max_size=d), label="q")])
    t0 = float(q[0, list(cols)].max())
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")

    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
        got = local_subspace_skyline(store, cols, initial_threshold=t0)
    n = len(store)
    both = PointSet(np.vstack([store.points.values, q]), np.append(store.points.ids, n + 10))
    answer = brute_force_skyline_ids(both, cols) - {n + 10}
    assert answer <= set(got.result.points.ids.tolist())


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_memo_replay_under_a_remote_bound_is_a_fresh_scan(data):
    """A ``t0`` below the scan's own ``t_loc`` cuts rows the local
    skyline holds; a ``ScanMemo`` hit replays that scan exactly.

    A one-column ``U`` has ``g_U = dist_U`` on every row, so no row lies
    below ``t_loc``: the case draws ``d >= 2`` and ``|U| >= 2``."""
    d = data.draw(st.integers(2, 4), label="d")
    store, cols = _draw_case(data, d=d, min_u=2)
    t_loc = local_subspace_skyline(store, cols).threshold
    below = sorted({float(x) for x in store.points.values[:, list(cols)].min(axis=1) if x < t_loc})
    assume(below)
    t0 = data.draw(st.sampled_from(below), label="t0")
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")

    memo = ScanMemo(cap=4)
    key = (0, 0, cols, t0)
    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
        fresh = local_subspace_skyline(store, cols, initial_threshold=t0)
        miss = memo.scan(key, store)
        replay = memo.scan(key, store)
    assert memo.counts() == {"hits": 1, "misses": 1, "evictions": 0}
    assert replay.positions.tolist() == fresh.positions.tolist()
    assert replay.result.points.ids.tolist() == fresh.result.points.ids.tolist()
    assert np.array_equal(replay.result.points.values, fresh.result.points.values)
    assert np.array_equal(replay.result.f, fresh.result.f)
    assert (replay.threshold, replay.examined, replay.comparisons, replay.input_size) == (
        fresh.threshold, fresh.examined, fresh.comparisons, fresh.input_size,
    )
    assert replay.duration == miss.duration
