"""Unit tests for the extended skyline (paper section 4, Observations 1-4)."""

import numpy as np

from repro.core.dataset import PointSet
from repro.core.extended_skyline import (
    extended_skyline,
    subspace_skyline,
    subspace_skyline_points,
)
from repro.core.subspace import all_subspaces
from tests.conftest import brute_force_skyline_ids


class TestExtendedSkyline:
    def test_full_space_matches_the_oracle(self, rng):
        points = PointSet(rng.random((120, 4)))
        got = extended_skyline(points).points.id_set()
        assert got == brute_force_skyline_ids(points, (0, 1, 2, 3), strict=True)

    def test_paper_peer_a(self, paper_peer_a):
        """Figure 2: all five P_A points are ext-skyline; A3 only there."""
        ext_ids = extended_skyline(paper_peer_a).points.id_set()
        assert ext_ids == {1, 2, 3, 4, 5}
        sky_ids = brute_force_skyline_ids(paper_peer_a, (0, 1, 2, 3))
        assert sky_ids == {1, 2, 4, 5}  # A3 is not a regular skyline point

    def test_paper_peer_b(self, paper_peer_b):
        """Figure 2: P_B's ext-skyline is {B1, B3, B4}."""
        ext_ids = extended_skyline(paper_peer_b).points.id_set()
        assert ext_ids == {11, 13, 14}

    def test_subspace_argument(self, rng):
        points = PointSet(rng.random((60, 4)))
        got = extended_skyline(points, subspace=(1, 3)).points.id_set()
        assert got == brute_force_skyline_ids(points, (1, 3), strict=True)


class TestObservations:
    def test_observation1_no_containment(self):
        """Obs. 1: SKY_U and SKY_V are incomparable even for U subset V."""
        # x-projection skyline = the min-x point; 2d skyline also holds
        # a point that is NOT the min-x point -> neither set contains
        # the other in general.  Construct a concrete witness.
        pts = PointSet(
            np.array([[1.0, 5.0], [2.0, 1.0]]), np.array([0, 1])
        )
        sky_x = brute_force_skyline_ids(pts, (0,))
        sky_xy = brute_force_skyline_ids(pts, (0, 1))
        assert sky_x == {0}
        assert sky_xy == {0, 1}
        assert not sky_xy <= sky_x

    def test_observation3_skyline_in_ext_skyline(self, rng):
        """Obs. 3: SKY_U is a subset of ext-SKY_U for every U."""
        points = PointSet(rng.random((80, 4)))
        for sub in all_subspaces(4):
            sky = brute_force_skyline_ids(points, sub)
            ext = extended_skyline(points, sub).points.id_set()
            assert sky <= ext, sub

    def test_observation4_subspace_skylines_in_ext_full(self, rng):
        """Obs. 4: SKY_V subset ext-SKY_U whenever V subset U."""
        points = PointSet(rng.random((60, 4)))
        ext_full = extended_skyline(points).points.id_set()
        for sub in all_subspaces(4):
            sky = brute_force_skyline_ids(points, sub)
            assert sky <= ext_full, sub

    def test_observation4_with_shared_coordinates(self, rng):
        """Same check on data engineered to have many coordinate ties
        (the case that distinguishes ext-skyline from skyline)."""
        values = rng.integers(0, 4, size=(80, 3)).astype(float)
        points = PointSet(values)
        ext_full = extended_skyline(points).points.id_set()
        for sub in all_subspaces(3):
            sky = brute_force_skyline_ids(points, sub)
            assert sky <= ext_full, sub

    def test_ext_skyline_can_exceed_subspace_union(self, paper_peer_a):
        """Points like m in Figure 1(a) are ext-skyline yet belong to no
        subspace skyline: the containment of Obs. 4 is not an equality."""
        ext_ids = extended_skyline(paper_peer_a).points.id_set()
        union: set[int] = set()
        for sub in all_subspaces(4):
            union |= brute_force_skyline_ids(paper_peer_a, sub)
        assert union <= ext_ids


class TestSubspaceSkylineHelpers:
    def test_scan_matches_mask(self, rng):
        """Algorithm 1 and the whole-input filter, both against the oracle."""
        points = PointSet(rng.random((100, 5)))
        for sub in [(0,), (2, 4), (0, 1, 3)]:
            expected = brute_force_skyline_ids(points, sub)
            assert subspace_skyline(points, sub).points.id_set() == expected
            assert subspace_skyline_points(points, sub).id_set() == expected

    def test_answering_from_ext_skyline_is_exact(self, rng):
        """The foundation of SKYPEER: computing SKY_U over ext-SKY_D
        yields the same answer as over the full data, for every U."""
        points = PointSet(rng.random((70, 4)))
        ext = extended_skyline(points).points
        for sub in all_subspaces(4):
            from_ext = brute_force_skyline_ids(ext, sub)
            from_all = brute_force_skyline_ids(points, sub)
            assert from_ext == from_all, sub
