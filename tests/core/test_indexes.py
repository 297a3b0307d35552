"""Unit tests for the dominance index of the skyline loops.

Algorithm 1 asks its index two questions about the rows it examines:
is the next row dominated by a candidate, and which candidates does the
next row evict?  One call of the skyline filter
(:func:`repro.core.dominance._skyline_filter`, dominance form) answers
both for the whole examined prefix: the positions it keeps are the
candidates a row-by-row index would hold at the end, in row order.
"""

import numpy as np

from repro.core.dominance import _skyline_filter


def _kept(rows) -> list[int]:
    return _skyline_filter(np.asarray(rows, dtype=float), ext=False)[0].tolist()


def _comparisons(rows) -> int:
    return _skyline_filter(np.asarray(rows, dtype=float), ext=False)[1]


class TestSemantics:
    def test_empty_index_dominates_nothing(self):
        assert _kept([[0.5, 0.5]]) == [0]
        assert _skyline_filter(np.empty((0, 2)), ext=False)[0].tolist() == []

    def test_insert_then_dominate(self):
        assert _kept([[0.2, 0.2], [0.5, 0.5]]) == [0]
        assert _kept([[0.2, 0.2], [0.1, 0.5]]) == [0, 1]

    def test_identical_point_not_dominated(self):
        assert _kept([[0.2, 0.2], [0.2, 0.2]]) == [0, 1]

    def test_insert_evicts_dominated(self):
        # The later row dominates the earlier one.
        assert _kept([[0.5, 0.5], [0.2, 0.2]]) == [1]

    def test_incomparable_points_coexist(self):
        assert _kept([[0.1, 0.9], [0.9, 0.1]]) == [0, 1]

    def test_comparisons_counter_increases(self):
        assert _comparisons([[0.5, 0.5]]) < _comparisons([[0.5, 0.5], [0.4, 0.6]])


class TestComparisonsAccounting:
    """`comparisons` counts the pairs the filter tested."""

    def test_counts_never_exceed_candidate_scan(self, rng):
        """Upper bound: no more pairs than a full quadratic pass."""
        for n in (80, 700):
            assert 0 < _comparisons(rng.random((n, 2))) <= n * n


class TestBlockBulkInsert:
    def test_bulk_insert_appends(self):
        assert _kept([[0.1, 0.9], [0.9, 0.1]]) == [0, 1]

    def test_bulk_insert_evicts(self):
        assert _kept([[0.5, 0.5], [0.2, 0.2], [0.1, 0.9]]) == [1, 2]

    def test_bulk_insert_grows_capacity(self):
        # More rows than one 64-bit word and than one pivot cell holds.
        n = 700
        rows = np.column_stack([np.linspace(0, 1, n), np.linspace(1, 0, n)])
        assert _kept(rows) == list(range(n))

    def test_bulk_insert_empty_is_noop(self):
        positions, comparisons = _skyline_filter(np.empty((0, 2)), ext=False)
        assert positions.shape == (0,) and comparisons == 0
