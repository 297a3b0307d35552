"""Unit tests for Block Nested Loops."""

import numpy as np

from repro.algorithms.bnl import block_nested_loops
from repro.core.dataset import PointSet
from tests.conftest import brute_force_skyline_ids


class TestBNL:
    def test_matches_brute_force(self, rng):
        points = PointSet(rng.random((150, 4)))
        for sub in [None, (0,), (1, 3), (0, 1, 2, 3)]:
            expected = brute_force_skyline_ids(points, sub or (0, 1, 2, 3))
            assert block_nested_loops(points, sub).id_set() == expected

    def test_empty_input(self):
        assert len(block_nested_loops(PointSet.empty(3))) == 0

    def test_single_point(self):
        points = PointSet(np.array([[0.5, 0.5]]))
        assert len(block_nested_loops(points)) == 1

    def test_window_eviction(self):
        """A later point must evict dominated earlier window entries."""
        points = PointSet(
            np.array([[0.9, 0.9], [0.1, 0.1]]), np.array([0, 1])
        )
        assert block_nested_loops(points).id_set() == {1}

    def test_duplicates_kept(self):
        points = PointSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert len(block_nested_loops(points)) == 2

    def test_ties_on_integer_grid(self, rng):
        values = rng.integers(0, 3, size=(80, 3)).astype(float)
        points = PointSet(values)
        expected = brute_force_skyline_ids(points, (0, 1, 2))
        assert block_nested_loops(points).id_set() == expected
