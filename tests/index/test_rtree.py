"""Unit tests for the main-memory R-tree."""

import numpy as np
import pytest

from repro.index.rtree import RTree


def leaf_entries(node):
    """Every ``(point_id, coords)`` beneath ``node``, walked here."""
    stack = [node]
    while stack:
        node = stack.pop()
        for entry in node.entries:
            if node.leaf:
                yield entry.point_id, entry.lo
            else:
                stack.append(entry.child)


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            RTree(0)
        with pytest.raises(ValueError):
            RTree(2, max_entries=2)

    def test_empty_tree(self):
        tree = RTree(3)
        assert tree.root().leaf
        assert list(leaf_entries(tree.root())) == []


class TestBulkLoad:
    def test_bulk_load_contains_all(self, rng):
        tree = RTree.bulk_load(rng.random((500, 3)), max_entries=8)
        assert sorted(i for i, _ in leaf_entries(tree.root())) == list(range(500))

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load(np.empty((0, 3)))
        assert list(leaf_entries(tree.root())) == []

    def test_bulk_load_custom_ids(self, rng):
        values = rng.random((20, 2))
        tree = RTree.bulk_load(values, ids=range(100, 120))
        assert sorted(i for i, _ in leaf_entries(tree.root())) == list(range(100, 120))
