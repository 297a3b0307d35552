"""Unit tests for Branch-and-Bound Skyline (BBS)."""

import numpy as np
import pytest

from repro.algorithms.bbs import bbs_iter, branch_and_bound_skyline
from repro.core.dataset import PointSet
from tests.conftest import brute_force_skyline_ids


class TestBBS:
    def test_matches_brute_force(self, rng):
        points = PointSet(rng.random((200, 4)))
        for sub in [None, (1,), (0, 3), (0, 1, 2, 3)]:
            expected = brute_force_skyline_ids(points, sub or (0, 1, 2, 3))
            assert branch_and_bound_skyline(points, sub).id_set() == expected

    def test_progressive_order_is_mindist(self, rng):
        """BBS emits skyline points in ascending L1 mindist order —
        the 'progressive' property of the original paper."""
        points = PointSet(rng.random((150, 3)))
        sums = [float(coords.sum()) for _i, coords in bbs_iter(points, [0, 1, 2])]
        assert sums == sorted(sums)

    def test_first_emitted_is_min_sum_skyline_point(self, rng):
        points = PointSet(rng.random((100, 2)))
        first_pos, coords = next(bbs_iter(points, [0, 1]))
        sums = points.values.sum(axis=1)
        assert sums[first_pos] == pytest.approx(sums.min())

    def test_empty_input(self):
        assert len(branch_and_bound_skyline(PointSet.empty(3))) == 0

    def test_duplicates_kept(self):
        points = PointSet(np.array([[0.4, 0.4], [0.4, 0.4], [0.9, 0.9]]))
        assert len(branch_and_bound_skyline(points)) == 2

    def test_ties_on_integer_grid(self, rng):
        values = rng.integers(0, 3, size=(120, 3)).astype(float)
        points = PointSet(values)
        expected = brute_force_skyline_ids(points, (0, 1, 2))
        assert branch_and_bound_skyline(points).id_set() == expected

    def test_small_fanout_tree(self, rng):
        """Deep trees (tiny max_entries) exercise subtree pruning."""
        points = PointSet(rng.random((300, 3)))
        expected = brute_force_skyline_ids(points, (0, 1, 2))
        assert branch_and_bound_skyline(points, max_entries=4).id_set() == expected
