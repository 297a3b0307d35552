"""Property-based tests (hypothesis) for the core invariants.

These encode the paper's formal claims directly:

* skyline members are mutually non-dominated; every non-member is
  dominated by some member (skyline definition);
* SKY_U subset ext-SKY_U (Observation 3);
* SKY_V subset ext-SKY_U for V subset U (Observation 4);
* answering any subspace query from ext-SKY_D is exact;
* threshold-based scans equal the oracle regardless of threshold;
* merging partitioned local skylines equals the centralized skyline.

Every reference set is the brute-force oracle's
(``tests.conftest.brute_force_skyline_ids``); the library's own
skylines are what is checked.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.dominance import dominates
from repro.core.extended_skyline import (
    ext_skyline_scan,
    extended_skyline,
    subspace_skyline_points,
)
from repro.core.local_skyline import local_subspace_skyline
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF
from repro.core.subspace import all_subspaces

from tests.conftest import brute_force_skyline_ids


@st.composite
def point_sets(draw, min_points=1, max_points=40, min_dims=1, max_dims=4):
    d = draw(st.integers(min_dims, max_dims))
    n = draw(st.integers(min_points, max_points))
    # Small integer grids maximize coordinate ties, the adversarial case
    # for ext-domination; mixing in floats covers the continuous case.
    use_grid = draw(st.booleans())
    if use_grid:
        values = draw(
            st.lists(
                st.lists(st.integers(0, 4), min_size=d, max_size=d),
                min_size=n,
                max_size=n,
            )
        )
        arr = np.asarray(values, dtype=float)
    else:
        values = draw(
            st.lists(
                st.lists(
                    st.floats(0, 1, allow_nan=False, width=32), min_size=d, max_size=d
                ),
                min_size=n,
                max_size=n,
            )
        )
        arr = np.asarray(values, dtype=float)
    return PointSet(arr)


@st.composite
def point_sets_with_subspace(draw):
    points = draw(point_sets())
    d = points.dimensionality
    size = draw(st.integers(1, d))
    dims = draw(
        st.lists(st.integers(0, d - 1), min_size=size, max_size=size, unique=True)
    )
    return points, tuple(sorted(dims))


@given(point_sets_with_subspace())
@settings(max_examples=120, deadline=None)
def test_skyline_definition(case):
    """Members mutually non-dominated; non-members dominated by a member."""
    points, sub = case
    sky = subspace_skyline_points(points, sub)
    assert sky.id_set() == brute_force_skyline_ids(points, sub)
    sky_rows = {int(i): row for i, row in sky}
    for i, row_i in sky:
        for j, row_j in sky:
            if i != j:
                assert not dominates(row_j, row_i, sub)
    member_ids = sky.id_set()
    for i, row in points:
        if i not in member_ids:
            assert any(dominates(srow, row, sub) for srow in sky_rows.values())


@given(point_sets_with_subspace())
@settings(max_examples=100, deadline=None)
def test_observation3_containment(case):
    points, sub = case
    sky = brute_force_skyline_ids(points, sub)
    ext = extended_skyline(points, sub).points.id_set()
    assert sky <= ext


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_observation4_every_subspace(points):
    ext_full = extended_skyline(points).points.id_set()
    for sub in all_subspaces(points.dimensionality):
        assert brute_force_skyline_ids(points, sub) <= ext_full


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_ext_skyline_answers_all_subspaces_exactly(points):
    """The load-bearing theorem: SKY_U(ext-SKY_D) == SKY_U(S) for all U."""
    ext = extended_skyline(points).points
    for sub in all_subspaces(points.dimensionality):
        assert brute_force_skyline_ids(ext, sub) == brute_force_skyline_ids(points, sub)


@given(point_sets_with_subspace(), st.floats(0, 2, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_threshold_scan_never_false_negative(case, threshold_scale):
    """Algorithm 1 with *any* initial threshold returns exactly the true
    local skyline cut at its final threshold ``t`` on U's own minimum:
    no skyline point with ``min_{i in U} p[i] <= t`` is missed, and no
    point past it survives.  A point past ``t`` lies strictly beyond it
    on every queried coordinate, so the point that set ``t`` dominates
    it at the merge.
    """
    points, sub = case
    store = SortedByF.from_points(points)
    full = local_subspace_skyline(store, sub)
    t = threshold_scale * (full.threshold if math.isfinite(full.threshold) else 1.0)
    capped = local_subspace_skyline(store, sub, initial_threshold=t)
    assert capped.threshold <= t
    sky = brute_force_skyline_ids(points, sub)
    low = np.min(store.points.values[:, list(sub)], axis=1) <= capped.threshold
    expected = [int(i) for i, ok in zip(store.points.ids, low) if ok and int(i) in sky]
    assert capped.result.points.ids.tolist() == expected


@given(point_sets_with_subspace())
@settings(max_examples=80, deadline=None)
def test_threshold_from_own_data_never_false_positive(case):
    """With a threshold achieved by the data itself (the protocol's
    case), the capped scan returns a subset of the true local skyline."""
    points, sub = case
    store = SortedByF.from_points(points)
    full = local_subspace_skyline(store, sub)
    capped = local_subspace_skyline(store, sub, initial_threshold=full.threshold)
    assert capped.points.id_set() <= full.points.id_set()


@given(point_sets_with_subspace(), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_partition_merge_equals_centralized(case, parts):
    """Local skylines of any horizontal partitioning merge exactly."""
    points, sub = case
    part_sets = [
        PointSet(points.values[i::parts], points.ids[i::parts])
        for i in range(parts)
        if len(points.values[i::parts])
    ]
    lists = [
        local_subspace_skyline(SortedByF.from_points(p), sub).result for p in part_sets
    ]
    merged = merge_sorted_skylines(lists, sub)
    assert merged.points.id_set() == brute_force_skyline_ids(points, sub)


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_ext_skyline_strict_scan_matches_the_oracle(points):
    scan = ext_skyline_scan(SortedByF.from_points(points)).points.id_set()
    assert scan == brute_force_skyline_ids(points, strict=True)
