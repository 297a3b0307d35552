"""Unit tests for repro.core.dominance (paper section 3.1, Definition 1)."""

import numpy as np

from repro.core.dataset import PointSet
from repro.core.dominance import (
    dominated_mask,
    dominates,
    ext_dominates,
    extended_skyline_mask,
    skyline_mask,
)
from tests.conftest import brute_force_skyline_ids


class TestDominates:
    def test_strictly_smaller_everywhere(self):
        assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))

    def test_equal_on_some_dimensions(self):
        assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))

    def test_identical_points_do_not_dominate(self):
        assert not dominates(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_incomparable(self):
        assert not dominates(np.array([1.0, 3.0]), np.array([2.0, 1.0]))
        assert not dominates(np.array([2.0, 1.0]), np.array([1.0, 3.0]))

    def test_subspace_restriction(self):
        p, q = np.array([1.0, 9.0, 1.0]), np.array([2.0, 0.0, 2.0])
        assert dominates(p, q, subspace=(0, 2))
        assert not dominates(p, q)

    def test_antisymmetric(self):
        p, q = np.array([1.0, 2.0]), np.array([2.0, 3.0])
        assert dominates(p, q) and not dominates(q, p)


class TestExtDominates:
    def test_requires_strict_on_all(self):
        assert ext_dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert not ext_dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))

    def test_implies_dominates(self, rng):
        for _ in range(50):
            p, q = rng.random(4), rng.random(4)
            if ext_dominates(p, q):
                assert dominates(p, q)

    def test_paper_figure1_example(self):
        """Points with a shared coordinate are never ext-dominated by
        the sharer (the e vs k motivation of section 4)."""
        k = np.array([1.0, 5.0])
        e = np.array([1.0, 7.0])
        assert dominates(k, e)
        assert not ext_dominates(k, e)


class TestMasks:
    def test_dominated_mask(self):
        cands = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        mask = dominated_mask(cands, np.array([1.0, 1.0]))
        assert mask.tolist() == [False, True, False]

    def test_strict_masks(self):
        # The mask tests dominance only; ext-domination is the scalar
        # predicate (and the Section 5.3 filter).
        p = np.array([1.0, 2.0])
        targets = np.array([[1.0, 3.0], [2.0, 3.0]])
        assert dominated_mask(targets, p).tolist() == [True, True]
        assert [ext_dominates(p, t) for t in targets] == [False, True]


class TestSkylineMask:
    def test_simple_2d(self):
        pts = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        assert skyline_mask(pts).tolist() == [True, True, True, False]

    def test_matches_brute_force(self, rng):
        pts = PointSet(rng.random((120, 4)))
        for sub in [(0,), (1, 3), (0, 1, 2, 3)]:
            got = pts.mask(skyline_mask(pts.values, sub)).id_set()
            assert got == brute_force_skyline_ids(pts, sub)

    def test_duplicates_both_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert skyline_mask(pts).tolist() == [True, True, False]

    def test_empty_input(self):
        assert skyline_mask(np.empty((0, 3))).tolist() == []

    def test_single_point(self):
        assert skyline_mask(np.array([[5.0, 5.0]])).tolist() == [True]


class TestExtendedSkylineMask:
    def test_matches_brute_force(self, rng):
        pts = PointSet(rng.random((120, 4)))
        for sub in [(0, 2), (0, 1, 2, 3)]:
            got = pts.mask(extended_skyline_mask(pts.values, sub)).id_set()
            assert got == brute_force_skyline_ids(pts, sub, strict=True)

    def test_superset_of_skyline(self, rng):
        values = rng.random((200, 4))
        sky = skyline_mask(values)
        ext = extended_skyline_mask(values)
        assert np.all(ext[sky])

    def test_shared_coordinate_point_retained(self):
        # m-style point of Figure 1(a): dominated but never strictly.
        pts = np.array([[1.0, 5.0], [1.0, 7.0], [4.0, 4.0]])
        ext = extended_skyline_mask(pts)
        assert ext.tolist() == [True, True, True]
        sky = skyline_mask(pts)
        assert sky.tolist() == [True, False, True]
