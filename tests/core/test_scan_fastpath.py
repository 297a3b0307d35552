"""The full-space SFS insert fast path and the index `positions` contract."""

from __future__ import annotations

import numpy as np

from repro.core.dataset import PointSet
from repro.core.indexes import BlockDominanceIndex
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF

from tests.conftest import brute_force_skyline_ids


class TestBulkInsertCanEvict:
    def test_eviction_is_the_default(self):
        index = BlockDominanceIndex(2)
        index.bulk_insert(np.array([0]), np.array([[0.5, 0.5]]))
        # (0.4, 0.4) dominates the resident candidate.
        index.bulk_insert(np.array([1]), np.array([[0.4, 0.4]]))
        assert index.positions() == [1]

    def test_can_evict_false_skips_the_eviction_scan(self):
        index = BlockDominanceIndex(2)
        index.bulk_insert(np.array([0]), np.array([[0.5, 0.5]]))
        before = index.comparisons
        index.bulk_insert(
            np.array([1]), np.array([[0.4, 0.4]]), can_evict=False
        )
        # Both stay resident and no eviction comparisons were spent.
        assert index.positions() == [0, 1]
        assert index.comparisons == before

    def test_can_evict_false_on_empty_index(self):
        index = BlockDominanceIndex(3)
        index.bulk_insert(
            np.array([4, 7]), np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]),
            can_evict=False,
        )
        assert index.positions() == [4, 7]


class TestFullSpaceFastPath:
    """The fast path may only fire where f-order makes it sound."""

    def test_full_space_strict_matches_oracle(self, rng):
        points = PointSet(rng.random((150, 4)))
        store = SortedByF.from_points(points)
        result = local_subspace_skyline(store, (0, 1, 2, 3), strict=True)
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
        # still dominate (and must evict) an earlier one.
        base = rng.integers(0, 4, size=(60, 3)).astype(float)
        values = np.vstack([base, base[:20]])
        points = PointSet(values)
        store = SortedByF.from_points(points)
        for strict in (False, True):
            result = local_subspace_skyline(store, (0, 1, 2), strict=strict)
            assert result.result.points.id_set() == brute_force_skyline_ids(
                points, (0, 1, 2), strict=strict
            ), strict

    def test_subspace_scan_still_evicts(self, rng):
        # f is computed over the full space, so for proper subspaces a
        # later point may dominate an earlier candidate; the fast path
        # must not apply.  d=2, U={0}: p=(0.5, 0.1) has f=0.1 and enters
        # first; q=(0.4, 0.5) has f=0.4 yet dominates p in U.
        points = PointSet(np.array([[0.5, 0.1], [0.4, 0.5]]))
        store = SortedByF.from_points(points)
        result = local_subspace_skyline(store, (0,))
        assert result.result.points.id_set() == brute_force_skyline_ids(points, (0,))
        assert result.result.points.id_set() == {1}

    def test_fast_path_skips_eviction_comparisons(self, rng):
        # Same scan, fast path forced off vs on: identical candidates,
        # strictly fewer comparisons (the eviction scans are skipped).
        from repro.core.local_skyline import _chunked_scan

        points = PointSet(rng.random((400, 4)))
        store = SortedByF.from_points(points)
        proj, dists = store.projection((0, 1, 2, 3))
        results = {}
        for fast_path in (False, True):
            index = BlockDominanceIndex(4, strict=True)
            _chunked_scan(
                index, proj, store.f, dists, float("inf"), strict=True,
                key_is_scanned_min=fast_path, chunk=64,
            )
            results[fast_path] = (index.positions(), index.comparisons)
        assert results[True][0] == results[False][0]
        assert results[True][1] < results[False][1]


class TestPositionsContract:
    def test_block_positions_are_python_ints(self, rng):
        # The block index stores positions in an int64 array; its
        # positions() must still hand back plain python ints.
        index = BlockDominanceIndex(3)
        assert index.positions() == []
        index.bulk_insert(np.array([3, 9]), rng.random((2, 3)))
        assert all(type(p) is int for p in index.positions())
