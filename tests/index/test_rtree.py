"""Unit tests for the main-memory R-tree."""

import numpy as np
import pytest

from repro.index.rtree import RTree


def _random_tree(rng, n=300, d=3, bulk=False, max_entries=8):
    values = rng.random((n, d))
    if bulk:
        tree = RTree.bulk_load(values, max_entries=max_entries)
    else:
        tree = RTree(d, max_entries=max_entries)
        for i in range(n):
            tree.insert(i, values[i])
    return tree, values


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            RTree(0)
        with pytest.raises(ValueError):
            RTree(2, max_entries=2)
        with pytest.raises(ValueError):
            RTree(2, max_entries=8, min_entries=5)

    def test_empty_tree(self):
        tree = RTree(3)
        assert len(tree) == 0
        assert list(tree) == []
        assert tree.height() == 1

    def test_insert_grows(self, rng):
        tree, values = _random_tree(rng, n=100)
        assert len(tree) == 100
        assert tree.height() > 1

    def test_iter_returns_all_points(self, rng):
        tree, values = _random_tree(rng, n=50)
        seen = sorted(i for i, _ in tree)
        assert seen == list(range(50))

    def test_coordinate_shape_checked(self):
        tree = RTree(3)
        with pytest.raises(ValueError, match="expected 3"):
            tree.insert(0, np.array([1.0, 2.0]))


class TestBulkLoad:
    def test_bulk_load_contains_all(self, rng):
        tree, values = _random_tree(rng, n=500, bulk=True)
        assert len(tree) == 500
        assert sorted(i for i, _ in tree) == list(range(500))

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load(np.empty((0, 3)))
        assert len(tree) == 0

    def test_bulk_load_custom_ids(self, rng):
        values = rng.random((20, 2))
        tree = RTree.bulk_load(values, ids=range(100, 120))
        assert sorted(i for i, _ in tree) == list(range(100, 120))

    def test_bulk_load_window_matches_insert(self, rng):
        values = rng.random((200, 3))
        bulk = RTree.bulk_load(values)
        incr = RTree(3)
        for i in range(200):
            incr.insert(i, values[i])
        lo, hi = np.full(3, 0.2), np.full(3, 0.7)
        assert sorted(i for i, _ in bulk.window(lo, hi)) == sorted(
            i for i, _ in incr.window(lo, hi)
        )


class TestWindow:
    def test_window_matches_linear_scan(self, rng):
        tree, values = _random_tree(rng, n=400)
        lo, hi = np.array([0.1, 0.2, 0.0]), np.array([0.6, 0.9, 0.5])
        expected = {
            i for i in range(len(values)) if np.all(lo <= values[i]) and np.all(values[i] <= hi)
        }
        got = {i for i, _ in tree.window(lo, hi)}
        assert got == expected

    def test_empty_window(self, rng):
        tree, _values = _random_tree(rng, n=50)
        got = tree.window(np.full(3, 2.0), np.full(3, 3.0))
        assert got == []
