"""Unit tests for Algorithm 2 (threshold-based merge of sorted lists)."""

import math

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF
from tests.conftest import brute_force_skyline_ids

def _split_local_skylines(rng, subspace, parts=4, n=200, d=5):
    points = PointSet(rng.random((n, d)))
    part_sets = [PointSet(points.values[i::parts], points.ids[i::parts]) for i in range(parts)]
    lists = [
        local_subspace_skyline(SortedByF.from_points(p), subspace).result for p in part_sets
    ]
    return points, lists


class TestCorrectness:
    def test_merge_equals_centralized(self, rng):
        for sub in [(0, 2, 4), (1, 3)]:
            points, lists = _split_local_skylines(rng, sub)
            for t0 in (math.inf, 0.3):
                merged = merge_sorted_skylines(lists, sub, initial_threshold=t0)
                # The survivors are the skyline of the points whose key
                # g_U = min over U is <= t0, ascending in that key, and
                # the refined threshold is t0 lowered by every survivor's
                # dist_U.
                keys = points.values[:, list(sub)].min(axis=1)
                prefix = points.take(np.flatnonzero(keys <= t0))
                assert merged.points.id_set() == brute_force_skyline_ids(prefix, sub)
                rows = merged.points.values[:, list(sub)]
                assert np.array_equal(merged.result.f, rows.min(axis=1))
                assert np.all(np.diff(merged.result.f) >= 0)
                assert merged.threshold == min([t0, *rows.max(axis=1).tolist()])

    def test_merge_of_single_list_is_idempotent(self, rng):
        sub = (0, 1)
        points = PointSet(rng.random((80, 3)))
        local = local_subspace_skyline(SortedByF.from_points(points), sub).result
        merged = merge_sorted_skylines([local], sub)
        assert merged.points.id_set() == local.points.id_set()

    def test_merge_composes(self, rng):
        """Progressive merging relies on merges being associative."""
        sub = (0, 2)
        points, lists = _split_local_skylines(rng, sub, parts=6)
        left = merge_sorted_skylines(lists[:3], sub).result
        right = merge_sorted_skylines(lists[3:], sub).result
        nested = merge_sorted_skylines([left, right], sub)
        flat = merge_sorted_skylines(lists, sub)
        assert nested.points.id_set() == flat.points.id_set()

    def test_result_is_f_sorted(self, rng):
        sub = (0, 1, 2)
        _points, lists = _split_local_skylines(rng, sub)
        merged = merge_sorted_skylines(lists, sub)
        assert np.all(np.diff(merged.result.f) >= 0)

    def test_strict_mode_merges_ext_skylines(self, rng):
        """The pre-processing merge: ext-skylines of partitions merge to
        the ext-skyline of the union."""
        sub = (0, 1, 2, 3, 4)
        points = PointSet(rng.random((150, 5)))
        parts = [PointSet(points.values[i::3], points.ids[i::3]) for i in range(3)]
        lists = [
            local_subspace_skyline(SortedByF.from_points(p), sub, strict=True).result
            for p in parts
        ]
        merged = merge_sorted_skylines(lists, sub, strict=True)
        assert merged.points.id_set() == brute_force_skyline_ids(points, sub, strict=True)


class TestEdgeCases:
    def test_no_lists(self):
        merged = merge_sorted_skylines([], (0, 1))
        assert len(merged.result) == 0
        assert merged.threshold == math.inf

    def test_empty_lists_skipped(self, rng):
        sub = (0, 1)
        points = PointSet(rng.random((40, 2)))
        local = local_subspace_skyline(SortedByF.from_points(points), sub).result
        merged = merge_sorted_skylines([SortedByF.empty(2), local], sub)
        assert merged.points.id_set() == local.points.id_set()

    def test_all_empty_lists_keep_their_dimensionality(self):
        merged = merge_sorted_skylines([SortedByF.empty(5)] * 2, (0, 2))
        assert len(merged.result) == 0
        assert merged.result.dimensionality == 5
        assert merge_sorted_skylines([], (0, 2)).result.dimensionality == 2

    def test_mismatched_dimensionalities_rejected(self, rng):
        a = SortedByF.from_points(PointSet(rng.random((5, 2))))
        b = SortedByF.from_points(PointSet(rng.random((5, 3))))
        with pytest.raises(ValueError, match="mismatched"):
            merge_sorted_skylines([a, b], (0, 1))

    def test_initial_threshold_respected(self, rng):
        sub = (0, 1)
        _points, lists = _split_local_skylines(rng, sub, d=4)
        unlimited = merge_sorted_skylines(lists, sub)
        capped = merge_sorted_skylines(lists, sub, initial_threshold=0.1)
        assert capped.points.id_set() <= unlimited.points.id_set()
        assert capped.threshold <= 0.1

    def test_threshold_below_every_head_reads_nothing(self, rng):
        sub = (0, 1)
        _points, lists = _split_local_skylines(rng, sub, d=4)
        heads = min(lst.points.values[:, list(sub)].min() for lst in lists)
        merged = merge_sorted_skylines(lists, sub, initial_threshold=heads / 2)
        assert (len(merged.result), merged.examined) == (0, 0)
        assert merged.result.dimensionality == 4

    def test_examined_counts_early_termination(self, rng):
        sub = (0, 1)
        _points, lists = _split_local_skylines(rng, sub, n=400, d=6)
        merged = merge_sorted_skylines(lists, sub)
        assert merged.examined <= merged.input_size

    def test_duplicate_ids_across_lists_survive(self):
        """Identical points in two lists: neither dominates the other."""
        a = SortedByF.from_points(PointSet(np.array([[0.5, 0.5]]), np.array([1])))
        b = SortedByF.from_points(PointSet(np.array([[0.5, 0.5]]), np.array([2])))
        merged = merge_sorted_skylines([a, b], (0, 1))
        assert merged.points.id_set() == {1, 2}


class TestProjectedStoreFullSpace:
    def test_projected_f_disables_sfs_fast_path(self):
        """Regression: a merge over every *projected* column must not
        run the SFS fast path in the order of the list's own ``f``.

        A projected store's ``f`` values are minima over the original
        space, not over the projected columns, so insertion in f-order
        does not guarantee no-eviction: here ``b`` comes second yet
        dominates ``a``.  The merge keys on the projected columns itself
        (``b`` 0.3 before ``a`` 0.5), which is what makes its fast path
        sound; trusting the list's order it would keep both.
        """
        store = SortedByF(
            points=PointSet(np.array([[0.5, 0.9], [0.3, 0.8]]), np.array([1, 2])),
            f=np.array([0.1, 0.3]),
        )
        merged = merge_sorted_skylines([store], (0, 1), scan_chunk=1)
        assert merged.points.id_set() == {2}

    def test_true_full_space_fast_path_still_exact(self, rng):
        points = PointSet(rng.random((60, 3)))
        local = local_subspace_skyline(SortedByF.from_points(points), (0, 1, 2)).result
        merged = merge_sorted_skylines([local], (0, 1, 2), scan_chunk=1)
        assert merged.points.id_set() == brute_force_skyline_ids(points, (0, 1, 2))
