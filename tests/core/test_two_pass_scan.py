"""Algorithms 1 and 2 against a scan written here in plain Python.

The scans run in two passes: a stop-point loop that reads only ``f``,
``dist_U`` and ``t0``, then the skyline filter over the examined prefix.
The reference below shares no code with ``repro.core``.  It is the
scan the paper describes, chunk by chunk: a chunk examines its rows up
to the last ``f <= t`` for the threshold it started with, every examined
row not dominated by an earlier-examined or same-chunk row is a
skyline candidate, and the threshold falls to the smallest ``dist_U``
among the chunk's candidates.  The examined rows whose minimum exceeds
the final threshold are cut, and the skyline of the rest is a quadratic
loop in the manner of a sequential skyline: a row stays if no other row
dominates it.  A merge already orders its rows on that minimum, so the
cut takes no row from its skyline.

Inputs are coarse grids (exact ties, duplicate rows, rows equal to a
pivot), with ``-0.0`` beside ``0.0`` and ``+inf``; thresholds run from
below every ``f`` to ``inf``; stores may be empty.  ``_SCAN_CHUNK`` is
patched to 1, 64 and 1 000, and the filter's leaf size to 2 so that
small inputs are split on pivots.
"""

from __future__ import annotations

import importlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF

alg1 = importlib.import_module("repro.core.local_skyline")
dom = importlib.import_module("repro.core.dominance")

CHUNKS = [1, 64, 1000]
LEAVES = [2, 256]


def dominates(q, p):
    """``q`` dominates ``p``: no larger anywhere, smaller somewhere."""
    return all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))


def skyline(rows):
    """Positions of the rows no other row dominates, in order."""
    return [i for i, p in enumerate(rows) if not any(dominates(q, p) for q in rows)]


def reference_scan(keys, rows, t0, chunk):
    """``(positions, threshold, examined)`` of the chunked threshold scan
    over ``rows`` (already projected on ``U``), ascending in ``keys``."""
    dist = [max(r) for r in rows]
    threshold, start = t0, 0
    while start < len(rows) and keys[start] <= threshold:
        end = start
        while end < min(len(rows), start + chunk) and keys[end] <= threshold:
            end += 1
        seen = rows[:end]
        candidates = [
            i for i in range(start, end) if not any(dominates(q, rows[i]) for q in seen)
        ]
        threshold = min([threshold] + [dist[i] for i in candidates])
        start = end
    # The examined rows whose every coordinate exceeds the final
    # threshold are cut before the skyline (ties stay).
    kept = [i for i in range(start) if min(rows[i]) <= threshold]
    return [kept[i] for i in skyline([rows[i] for i in kept])], threshold, start


@st.composite
def grids(draw, d=None, max_rows=60):
    """An ``(n, d)`` float array with ties, duplicates, ``-0.0`` and ``+inf``."""
    n = draw(st.integers(0, max_rows))
    d = d or draw(st.integers(1, 4))
    levels = draw(st.sampled_from([1, 2, 4, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, levels + 1, size=(n, d)).astype(np.float64)
    values[(values == 0) & (rng.random((n, d)) < 0.5)] = -0.0
    if draw(st.booleans()):
        values[values == levels] = np.inf
    if n and draw(st.booleans()):
        values = values[rng.integers(0, max(1, n // 3), size=n)]
    return values


def thresholds(draw, keys):
    """``inf``, below every key, or a key itself (``f == t`` is examined)."""
    finite = [k for k in keys if math.isfinite(k)]
    choices = [math.inf, -1.0] + finite + [k + 0.5 for k in finite[:3]]
    return draw(st.sampled_from(choices))


@given(values=grids(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_algorithm_1_is_the_reference_scan(values, data):
    n, d = values.shape
    store = SortedByF.from_points(PointSet(values))
    cols = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1), label="U")))
    t0 = thresholds(data.draw, store.f.tolist())
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")
    leaf = data.draw(st.sampled_from(LEAVES), label="leaf")

    rows = store.points.values[:, list(cols)].tolist()
    positions, threshold, examined = reference_scan(store.f.tolist(), rows, t0, chunk)
    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk), mock.patch.object(dom, "_LEAF_ROWS", leaf):
        got = local_subspace_skyline(store, cols, initial_threshold=t0)
    assert got.positions.tolist() == positions
    assert got.threshold == threshold
    assert got.examined == examined
    assert got.input_size == n
    assert got.result.points.ids.tolist() == store.points.ids[positions].tolist()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_algorithm_2_is_the_reference_scan(data):
    d = data.draw(st.integers(1, 4), label="d")
    lists = [data.draw(grids(d, 25), label="list") for _ in range(data.draw(st.integers(0, 4)))]
    stores, base = [], 0
    for v in lists:
        stores.append(SortedByF.from_points(PointSet(v, np.arange(base, base + len(v)))))
        base += len(v)
    cols = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1), label="U")))
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")
    leaf = data.draw(st.sampled_from(LEAVES), label="leaf")

    # The lists in order, stably sorted on g_U = min over U.
    union = [(row, i) for s in stores for row, i in zip(s.points.values.tolist(), s.points.ids.tolist())]
    projected = [([row[c] for c in cols], i) for row, i in union]
    projected.sort(key=lambda item: min(item[0]))
    keys = [min(row) for row, _ in projected]
    t0 = thresholds(data.draw, keys)
    positions, threshold, examined = reference_scan(keys, [row for row, _ in projected], t0, chunk)

    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk), mock.patch.object(dom, "_LEAF_ROWS", leaf):
        got = merge_sorted_skylines(stores, cols, initial_threshold=t0)
    assert got.result.points.ids.tolist() == [projected[p][1] for p in positions]
    assert got.result.f.tolist() == [keys[p] for p in positions]
    assert got.threshold == threshold
    assert got.examined == examined
    assert got.input_size == len(union)


def test_empty_store_reads_nothing():
    store = SortedByF.from_points(PointSet(np.zeros((0, 3))))
    got = local_subspace_skyline(store, (0, 2), initial_threshold=0.5)
    assert got.positions.tolist() == [] and got.examined == 0
    assert got.threshold == 0.5 and got.comparisons == 0
