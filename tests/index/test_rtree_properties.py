"""Property-based tests for the R-tree (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import RTree

coords = st.lists(
    st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=2
).map(lambda xs: np.asarray(xs, dtype=float))


@given(st.lists(coords, min_size=0, max_size=60))
@settings(max_examples=80, deadline=None)
def test_insert_iter_roundtrip(points):
    tree = RTree(2, max_entries=4)
    for i, p in enumerate(points):
        tree.insert(i, p)
    assert len(tree) == len(points)
    recovered = {i: tuple(c) for i, c in tree}
    assert recovered == {i: tuple(p) for i, p in enumerate(points)}


@given(st.lists(coords, min_size=1, max_size=60), coords, coords)
@settings(max_examples=80, deadline=None)
def test_window_matches_scan(points, lo, hi)-> None:
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    tree = RTree(2, max_entries=4)
    for i, p in enumerate(points):
        tree.insert(i, p)
    expected = {
        i for i, p in enumerate(points) if np.all(lo <= p) and np.all(p <= hi)
    }
    assert {i for i, _ in tree.window(lo, hi)} == expected


@given(st.lists(coords, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_bulk_load_equals_incremental(points):
    arr = np.vstack(points)
    bulk = RTree.bulk_load(arr, max_entries=4)
    assert len(bulk) == len(points)
    assert {i: tuple(c) for i, c in bulk} == {i: tuple(p) for i, p in enumerate(points)}
