"""Algorithm 2 on the subspace's own key, against a skyline written here.

The merge orders its input on ``g_U(p) = min_{i in U} p[i]``, which it
computes from the scanned columns; a list's own ``f`` is never read.  The
reference below is plain loops over tuples and shares no code with
``repro.core`` (in particular not ``repro.core.dominance``), so a defect
in the dominance kernel cannot agree with itself here.
"""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF

alg1 = importlib.import_module("repro.core.local_skyline")


def quadratic_skyline(rows, ids, cols):
    """Ids of the rows no other row dominates on ``cols``."""
    kept = set()
    for p, point_id in zip(rows, ids):
        for q in rows:
            if all(q[c] <= p[c] for c in cols) and any(q[c] < p[c] for c in cols):
                break
        else:
            kept.add(point_id)
    return kept


@st.composite
def merge_inputs(draw):
    """Lists on a coarse grid (duplicates, exact key ties), rows and lists
    in drawn order, plus a subspace of their dimensions."""
    d = draw(st.integers(2, 4))
    cols = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    lists = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=5))
    return d, sorted(cols), lists


@given(merge_inputs())
@settings(max_examples=200, deadline=None)
def test_merge_is_the_skyline_in_key_order_and_stops_at_the_threshold(case):
    d, cols, lists = case
    rows = [tuple(map(float, r)) for lst in lists for r in lst]
    ids = list(range(100, 100 + len(rows)))
    stores, start = [], 0
    for lst in lists:
        values = np.asarray(lst, dtype=float).reshape(len(lst), d)
        points = PointSet(values, np.asarray(ids[start : start + len(lst)], dtype=np.int64))
        # All-zero keys are a valid (non-descending) ``f`` for rows in any
        # order: the merge must not rely on what a list says its key is.
        stores.append(SortedByF(points, np.zeros(len(lst))))
        start += len(lst)

    with mock.patch.object(alg1, "_SCAN_CHUNK", 1):
        merged = merge_sorted_skylines(stores, cols)

    assert set(merged.points.ids.tolist()) == quadratic_skyline(rows, ids, cols)
    assert len(merged.points) == len(set(merged.points.ids.tolist()))
    keys = [min(p[c] for c in cols) for p in merged.points.values.tolist()]
    assert keys == sorted(keys) == merged.result.f.tolist()

    # One point per step: the scan reads exactly the points whose key does
    # not exceed the threshold it returns.  An f-ordered merge would have
    # to read every point with f(p) <= t, and f <= g_U.
    g = [min(p[c] for c in cols) for p in rows]
    f = [min(p) for p in rows]
    assert merged.examined == sum(key <= merged.threshold for key in g)
    assert merged.examined <= sum(key <= merged.threshold for key in f)
    assert merged.input_size == len(rows)
