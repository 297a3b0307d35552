"""Property-based tests for the R-tree (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.rtree import RTree
from tests.index.test_rtree import leaf_entries

coords = st.lists(
    st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=2
).map(lambda xs: np.asarray(xs, dtype=float))


@given(st.lists(coords, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_bulk_load_equals_incremental(points):
    """A bulk-loaded tree holds every input point once, unchanged, and
    every inner MBR covers the points beneath it."""
    arr = np.vstack(points)
    bulk = RTree.bulk_load(arr, max_entries=4)
    recovered = {i: tuple(c) for i, c in leaf_entries(bulk.root())}
    assert recovered == {i: tuple(p) for i, p in enumerate(points)}

    def check(node):
        for entry in node.entries:
            if not node.leaf:
                below = np.vstack([c for _i, c in leaf_entries(entry.child)])
                assert np.array_equal(entry.lo, below.min(axis=0))
                assert np.array_equal(entry.hi, below.max(axis=0))
                check(entry.child)

    check(bulk.root())
