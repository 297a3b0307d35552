"""The pivot-partitioned ext-skyline filter, against a skyline written here.

:func:`repro.core.extended_skyline.ext_skyline_positions` is what every
ext-skyline in the system is computed with.  Two references pin it:

* ``quadratic_ext_skyline`` below, plain loops that share no code with
  ``repro.core`` (in particular not ``repro.core.dominance``), for the
  set;
* ``tests.conftest.ordered_ext_skyline``, for everything strict
  Algorithm 1 and Algorithm 2 produced when pre-processing still ran
  them: ids, values, ``f``, the order of ties and the threshold.

Sizes cross the single-call bound and the split's leaf size, grids are
coarse (ties and duplicate rows are common), and a scale of ``5e-324``
makes every margin subnormal.  A second run shrinks the filter's
constants, so small inputs split on every column and each kernel step
takes one target on one dimension.
"""

from __future__ import annotations

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.store import SortedByF

from tests.conftest import ordered_ext_skyline

ext = importlib.import_module("repro.core.extended_skyline")


def quadratic_ext_skyline(rows):
    """Positions of the rows no other row is strictly smaller than everywhere."""
    kept = []
    for i, p in enumerate(rows):
        for q in rows:
            if all(qc < pc for qc, pc in zip(q, p)):
                break
        else:
            kept.append(i)
    return kept


@st.composite
def grids(draw, max_rows=600):
    """An ``(n, d)`` array on a coarse, possibly subnormal, grid."""
    n = draw(st.integers(0, max_rows))
    d = draw(st.integers(1, 10))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1000]))
    scale = draw(st.sampled_from([1.0, 0.25, 5e-324]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, levels + 1, size=(n, d)) * scale
    if n and draw(st.booleans()):
        values = values[rng.integers(0, max(1, n // 3), size=n)]  # duplicate rows
    return values


#: The shipped constants, and ones that split even tiny inputs on every
#: column and give each kernel step one target and one dimension.
GEOMETRIES = {
    "shipped": {"_LEAF_ROWS": ext._LEAF_ROWS},
    "tiny": {"_LEAF_ROWS": 1, "_SCRATCH_BYTES": 1},
}


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def geometry(request):
    with mock.patch.multiple(ext, **GEOMETRIES[request.param]):
        yield request.param


@given(values=grids())
@settings(max_examples=60, deadline=None)
def test_positions_are_the_oracles(geometry, values):
    got = ext.ext_skyline_positions(values)
    assert got.dtype == np.int64
    assert got.tolist() == quadratic_ext_skyline(values.tolist())


@given(values=grids(), cut=st.integers(1, 6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_matches_strict_algorithms_1_and_2(geometry, values, cut, data):
    n, d = values.shape
    ids = np.arange(7, 7 + n, dtype=np.int64)
    store = SortedByF.from_points(PointSet(values, ids))

    got = ext.ext_skyline_scan(store)
    _assert_same(got, ordered_ext_skyline(store))
    assert got.positions.tolist() == quadratic_ext_skyline(store.points.values.tolist())
    assert got.examined == got.input_size == n

    sub = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1))))
    _assert_same(
        ext.extended_skyline(PointSet(values, ids), sub),
        ordered_ext_skyline(store, sub),
    )

    # Lists in drawn order, each f-sorted: the super-peer merge's input.
    owner = np.random.default_rng(n * 31 + cut).integers(0, cut, size=n)
    lists = [SortedByF.from_points(PointSet(values[owner == k], ids[owner == k]))
             for k in range(cut)]
    merged = ext.merge_ext_skylines(lists, d)
    # Algorithm 2's input: the lists concatenated in order, stably f-sorted.
    union = PointSet(
        np.concatenate([lst.points.values for lst in lists]),
        np.concatenate([lst.points.ids for lst in lists]),
    )
    _assert_same(merged, ordered_ext_skyline(SortedByF.from_points(union)))
    assert merged.positions is None and merged.examined == n


def _assert_same(got, reference):
    assert got.result.points.ids.tolist() == reference.result.points.ids.tolist()
    assert np.array_equal(got.result.points.values, reference.result.points.values)
    assert np.array_equal(got.result.f, reference.result.f)
    assert got.threshold == reference.threshold
    assert got.input_size == reference.input_size
    if not len(got.result):
        assert got.threshold == math.inf
