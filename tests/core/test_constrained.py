"""Unit tests for constrained subspace skylines (extension)."""

import numpy as np
import pytest

from repro.core.constrained import RangeConstraint, constrained_subspace_skyline
from repro.core.dataset import PointSet
from tests.conftest import brute_force_skyline_ids


class TestRangeConstraint:
    def test_mask(self):
        constraint = RangeConstraint.from_dict({0: (0.2, 0.8)})
        values = np.array([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]])
        assert constraint.mask(values).tolist() == [False, True, False]

    def test_multi_dimension_mask(self):
        constraint = RangeConstraint.from_dict({0: (0.0, 0.5), 1: (0.5, 1.0)})
        values = np.array([[0.3, 0.7], [0.3, 0.3], [0.7, 0.7]])
        assert constraint.mask(values).tolist() == [True, False, False]

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty interval"):
            RangeConstraint.from_dict({0: (0.8, 0.2)})

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError, match="negative dimension"):
            RangeConstraint.from_dict({-1: (0.0, 0.5)})

    @pytest.mark.parametrize("bound", [(float("nan"), 0.5), (0.0, float("nan"))])
    def test_rejects_nan_bound(self, bound):
        with pytest.raises(ValueError, match="NaN bound"):
            RangeConstraint.from_dict({0: bound})

    def test_requires_full_data(self):
        assert RangeConstraint.from_dict({0: (0.2, 0.8)}).requires_full_data
        assert not RangeConstraint.from_dict({0: (0.0, 0.8)}).requires_full_data


class TestConstrainedSkyline:
    def test_matches_filter_then_skyline(self, rng):
        points = PointSet(rng.random((120, 4)))
        constraint = RangeConstraint.from_dict({1: (0.3, 0.9)})
        got = constrained_subspace_skyline(points, (0, 1, 2), constraint).id_set()
        inside = points.mask(constraint.mask(points.values))
        assert got == brute_force_skyline_ids(inside, (0, 1, 2))

    def test_empty_box(self, rng):
        points = PointSet(rng.random((20, 3)))
        constraint = RangeConstraint.from_dict({0: (2.0, 3.0)})
        got = constrained_subspace_skyline(points, (0, 1), constraint)
        assert len(got) == 0

    def test_unconstrained_equals_plain_skyline(self, rng):
        points = PointSet(rng.random((60, 3)))
        constraint = RangeConstraint.from_dict({})
        got = constrained_subspace_skyline(points, (0, 2), constraint).id_set()
        assert got == brute_force_skyline_ids(points, (0, 2))

    def test_constrained_point_can_beat_global_dominator(self):
        """A globally dominated point wins inside a box that excludes
        its dominator — why constrained queries need full local data."""
        points = PointSet(np.array([[0.1, 0.1], [0.5, 0.5]]), np.array([0, 1]))
        constraint = RangeConstraint.from_dict({0: (0.3, 1.0)})
        got = constrained_subspace_skyline(points, (0, 1), constraint).id_set()
        assert got == {1}
        assert constraint.requires_full_data
