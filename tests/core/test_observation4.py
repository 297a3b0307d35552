"""Observation 4 and the ext-skyline lattice, checked exhaustively.

For subspaces ``V ⊆ U``: ``SKY_V ⊆ ext-SKY_U`` (Observation 4, which
lets a super-peer answer every query from its ``ext-SKY_D`` store), and
``ext-SKY_V ⊆ ext-SKY_U`` (a strict dominator on all of ``U`` is strict
on all of ``V``).  Small inputs, every pair of subspaces.  Each ``SKY_V``
is the brute-force oracle's and each ``ext-SKY_U`` the library's
(:func:`repro.core.extended_skyline.extended_skyline`).
"""

import pytest

from repro.core.dataset import PointSet
from repro.core.extended_skyline import extended_skyline
from repro.core.subspace import all_subspaces

from tests.conftest import brute_force_skyline_ids


def _ext_ids(points: PointSet, subspace) -> frozenset[int]:
    return extended_skyline(points, subspace).points.id_set()


@pytest.mark.parametrize("ties", [False, True])
def test_subspace_skylines_lie_in_superspace_ext_skylines(rng, ties):
    values = rng.integers(0, 3, size=(60, 4)).astype(float) if ties else rng.random((50, 4))
    points = PointSet(values)
    subspaces = list(all_subspaces(4))
    sky = {v: brute_force_skyline_ids(points, v) for v in subspaces}
    ext = {u: _ext_ids(points, u) for u in subspaces}
    for v in subspaces:
        for u in subspaces:
            if set(v) <= set(u):
                assert sky[v] <= ext[u], (v, u)


def test_ext_skyline_monotonicity(rng):
    points = PointSet(rng.random((60, 4)))
    ext = {sub: _ext_ids(points, sub) for sub in all_subspaces(4)}
    for small, small_ids in ext.items():
        for big, big_ids in ext.items():
            if set(small) <= set(big):
                assert small_ids <= big_ids, (small, big)
