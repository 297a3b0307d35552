"""Unit tests for the dominance index.

The scans ask "is this point dominated by a candidate?" through
``batch_dominated_any(index.block_view(), rows)``; the probes here ask
it the same way.
"""

import numpy as np

from repro.core.dominance import batch_dominated_any
from repro.core.indexes import BlockDominanceIndex


def _insert(index: BlockDominanceIndex, position: int, point) -> None:
    index.bulk_insert(np.array([position]), np.array([point], dtype=float))


def _dominated(index: BlockDominanceIndex, point) -> bool:
    rows = np.array([point], dtype=float)
    return bool(batch_dominated_any(index.block_view(), rows)[0])


class TestSemantics:
    def test_empty_index_dominates_nothing(self):
        index = BlockDominanceIndex(2)
        assert not _dominated(index, [0.5, 0.5])
        assert len(index) == 0

    def test_insert_then_dominate(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.2, 0.2])
        assert _dominated(index, [0.5, 0.5])
        assert not _dominated(index, [0.1, 0.5])

    def test_identical_point_not_dominated(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.2, 0.2])
        assert not _dominated(index, [0.2, 0.2])

    def test_insert_evicts_dominated(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.5, 0.5])
        _insert(index, 1, [0.2, 0.2])
        assert len(index) == 1
        assert index.positions() == [1]

    def test_incomparable_points_coexist(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.1, 0.9])
        _insert(index, 1, [0.9, 0.1])
        assert sorted(index.positions()) == [0, 1]

    def test_comparisons_counter_increases(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.5, 0.5])
        before = index.comparisons
        _insert(index, 1, [0.4, 0.6])  # the eviction scan is charged
        assert index.comparisons > before


class TestComparisonsAccounting:
    """`comparisons` must count work done, not candidates held."""

    def test_counts_never_exceed_candidate_scan(self, rng):
        """Upper bound: the index charges no more than a full linear scan."""
        index = BlockDominanceIndex(2)
        worst_case = 0
        for pos in range(80):
            point = rng.random(2)
            if not _dominated(index, point):
                worst_case += len(index)
                _insert(index, pos, point)
        assert index.comparisons <= worst_case


class TestBlockBulkInsert:
    def test_bulk_insert_appends(self):
        index = BlockDominanceIndex(2)
        index.bulk_insert(np.array([0, 1]), np.array([[0.1, 0.9], [0.9, 0.1]]))
        assert sorted(index.positions()) == [0, 1]

    def test_bulk_insert_evicts(self):
        index = BlockDominanceIndex(2)
        _insert(index, 0, [0.5, 0.5])
        index.bulk_insert(np.array([1]), np.array([[0.2, 0.2]]))
        assert index.positions() == [1]

    def test_bulk_insert_grows_capacity(self):
        index = BlockDominanceIndex(2)
        n = 300  # beyond the initial capacity of 64
        rows = np.column_stack([np.linspace(0, 1, n), np.linspace(1, 0, n)])
        index.bulk_insert(np.arange(n), rows)
        assert len(index) == n

    def test_bulk_insert_empty_is_noop(self):
        index = BlockDominanceIndex(2)
        index.bulk_insert(np.array([], dtype=int), np.empty((0, 2)))
        assert len(index) == 0
