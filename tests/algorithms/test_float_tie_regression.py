"""Regression: dominance margins that underflow a coordinate sum.

Found by hypothesis: with ``p = (tiny, 0, 0, 1)`` and ``q = (0, 0, 0, 1)``
(``tiny`` denormal-ish), ``q`` dominates ``p`` but both coordinate sums
round to exactly ``1.0``, so a scan sorted on that sum could visit the
dominated point first and keep it.  No path of the package sorts on a
coordinate sum any more (the skyline filter's strict column is a sum of
integer ranks), and this file pins every skyline path it keeps on such
inputs: the dominance ones (BNL, ``skyline_mask``, Algorithm 1) and the
Section 5.3 filter's ext-dominance form, raw and behind
``extended_skyline``.
"""

import numpy as np
import pytest

from repro.algorithms import block_nested_loops
from repro.core.dataset import PointSet
from repro.core.dominance import skyline_mask
from repro.core.extended_skyline import (
    ext_skyline_positions,
    extended_skyline,
    subspace_skyline,
    subspace_skyline_points,
)

TINY = 1.17549435e-38  # smallest normal float32; vanishes in 1.0 + x

#: name -> (skyline ids of ``points`` on ``sub``, whether it is strict).
PATHS = {
    "bnl": (lambda p, s: block_nested_loops(p, s).id_set(), False),
    "skyline_mask": (lambda p, s: p.mask(skyline_mask(p.values, s)).id_set(), False),
    "extended_skyline": (lambda p, s: extended_skyline(p, s).points.id_set(), True),
    "algorithm1": (lambda p, s: subspace_skyline(p, s).points.id_set(), False),
    "ext_skyline_positions": (
        lambda p, s: frozenset(
            int(i) for i in p.ids[ext_skyline_positions(p.values[:, list(s)])]
        ),
        True,
    ),
}


@pytest.fixture
def tie_points() -> PointSet:
    return PointSet(
        np.array(
            [
                [TINY, 0.0, 0.0, 1.0],  # dominated by the next row
                [0.0, 0.0, 0.0, 1.0],
            ]
        ),
        np.array([0, 1]),
    )


class TestFloatTieRegression:
    def test_skyline_mask(self, tie_points):
        assert skyline_mask(tie_points.values, (0, 3)).tolist() == [False, True]

    def test_sums_really_tie(self, tie_points):
        """The precondition of the bug: both float sums are identical."""
        sums = tie_points.values[:, [0, 3]].sum(axis=1)
        assert sums[0] == sums[1] == 1.0

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_all_algorithms(self, tie_points, name):
        fn, strict = PATHS[name]
        assert fn(tie_points, (0, 3)) == ({0, 1} if strict else {1}), name

    def test_oracle_helper(self, tie_points):
        assert subspace_skyline_points(tie_points, (0, 3)).id_set() == {1}

    def test_reversed_order(self):
        """Same case with the dominator first (must also work)."""
        points = PointSet(
            np.array([[0.0, 0.0, 0.0, 1.0], [TINY, 0.0, 0.0, 1.0]]),
            np.array([0, 1]),
        )
        for name, (fn, strict) in PATHS.items():
            assert fn(points, (0, 3)) == ({0, 1} if strict else {0}), name

    def test_longer_tie_chains(self):
        """A chain of vanishing margins within one sum group."""
        rows = [[k * TINY, 0.0, 1.0] for k in (3, 2, 1, 0)]
        points = PointSet(np.array(rows), np.arange(4))
        for name, (fn, strict) in PATHS.items():
            assert fn(points, (0, 2)) == ({0, 1, 2, 3} if strict else {3}), name

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_strict_margin_under_the_sum(self, name):
        """Row 1 is below row 0 on *every* dimension, yet both sums round
        to 1.0: the underflow case for the strict paths as well."""
        rows = [[0.9 * 2.0**-53, 1.0], [0.75 * 2.0**-53, 1.0 - 2.0**-53]]
        points = PointSet(np.array(rows), np.array([0, 1]))
        sums = points.values.sum(axis=1)
        assert sums[0] == sums[1] == 1.0
        fn, _strict = PATHS[name]
        assert fn(points, (0, 1)) == {1}, name

    def test_merge_path_still_exact(self, tie_points):
        """The case that originally failed: partition + merge."""
        from repro.core.local_skyline import local_subspace_skyline
        from repro.core.merging import merge_sorted_skylines
        from repro.core.store import SortedByF

        parts = [
            PointSet(tie_points.values[i::2], tie_points.ids[i::2]) for i in range(2)
        ]
        lists = [
            local_subspace_skyline(SortedByF.from_points(p), (0, 3)).result
            for p in parts
        ]
        merged = merge_sorted_skylines(lists, (0, 3))
        assert merged.points.id_set() == {1}
