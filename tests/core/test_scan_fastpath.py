"""Algorithm 1 where row order could mislead it, and its `positions` contract.

On the full space ``f`` orders a dominator before what it dominates,
outside exact ``f`` ties; on a proper subspace a later row may dominate
an earlier one.  The scan must be exact in both cases.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import PointSet
from repro.core.extended_skyline import ext_skyline_scan
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF

from tests.conftest import brute_force_skyline_ids


class TestFullSpaceFastPath:
    """Full-space f-order, its exact ties, and a subspace it misorders."""

    def test_full_space_strict_matches_oracle(self, rng):
        # The full-space ext-domination scan is Section 5.3's filter.
        points = PointSet(rng.random((150, 4)))
        store = SortedByF.from_points(points)
        result = ext_skyline_scan(store)
        assert result.result.points.id_set() == brute_force_skyline_ids(
            points, (0, 1, 2, 3), strict=True
        )

    def test_full_space_nonstrict_matches_oracle(self, rng):
        points = PointSet(rng.random((150, 4)))
        store = SortedByF.from_points(points)
        result = local_subspace_skyline(store, (0, 1, 2, 3))
        assert result.result.points.id_set() == brute_force_skyline_ids(
            points, (0, 1, 2, 3)
        )

    def test_full_space_with_f_ties_matches_oracle(self, rng):
        # Duplicated rows and a shared minimum coordinate manufacture
        # exact f ties — the one case where a later full-space point can
        # still dominate an earlier one.
        base = rng.integers(0, 4, size=(60, 3)).astype(float)
        values = np.vstack([base, base[:20]])
        points = PointSet(values)
        store = SortedByF.from_points(points)
        result = local_subspace_skyline(store, (0, 1, 2))
        assert result.result.points.id_set() == brute_force_skyline_ids(
            points, (0, 1, 2)
        )

    def test_subspace_scan_still_evicts(self, rng):
        # f is computed over the full space, so for proper subspaces a
        # later point may dominate an earlier candidate.  d=2, U={0}: p=(0.5, 0.1) has f=0.1 and enters
        # first; q=(0.4, 0.5) has f=0.4 yet dominates p in U.
        points = PointSet(np.array([[0.5, 0.1], [0.4, 0.5]]))
        store = SortedByF.from_points(points)
        result = local_subspace_skyline(store, (0,))
        assert result.result.points.id_set() == brute_force_skyline_ids(points, (0,))
        assert result.result.points.id_set() == {1}


class TestPositionsContract:
    def test_block_positions_are_python_ints(self, rng):
        # A scan's positions are an int64 array of store positions; as a
        # list they must be plain python ints.
        store = SortedByF.from_points(PointSet(rng.random((40, 3))))
        assert local_subspace_skyline(SortedByF.empty(3), (0, 1)).positions.tolist() == []
        positions = local_subspace_skyline(store, (0, 1, 2)).positions
        assert positions.dtype == np.int64
        assert all(type(p) is int for p in positions.tolist())
