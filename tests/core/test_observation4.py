"""Observation 4 and the ext-skyline lattice, checked exhaustively.

For subspaces ``V ⊆ U``: ``SKY_V ⊆ ext-SKY_U`` (Observation 4, which
lets a super-peer answer every query from its ``ext-SKY_D`` store), and
``ext-SKY_V ⊆ ext-SKY_U`` (a strict dominator on all of ``U`` is strict
on all of ``V``).  Small inputs, every pair of subspaces.
"""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.dominance import extended_skyline_mask, skyline_mask
from repro.core.subspace import all_subspaces


def _ids(points: PointSet, mask: np.ndarray) -> frozenset[int]:
    return points.mask(mask).id_set()


@pytest.mark.parametrize("ties", [False, True])
def test_subspace_skylines_lie_in_superspace_ext_skylines(rng, ties):
    values = rng.integers(0, 3, size=(60, 4)).astype(float) if ties else rng.random((50, 4))
    points = PointSet(values)
    subspaces = list(all_subspaces(4))
    sky = {v: _ids(points, skyline_mask(values, v)) for v in subspaces}
    ext = {u: _ids(points, extended_skyline_mask(values, u)) for u in subspaces}
    for v in subspaces:
        for u in subspaces:
            if set(v) <= set(u):
                assert sky[v] <= ext[u], (v, u)


def test_ext_skyline_monotonicity(rng):
    points = PointSet(rng.random((60, 4)))
    ext = {
        sub: _ids(points, extended_skyline_mask(points.values, sub))
        for sub in all_subspaces(4)
    }
    for small, small_ids in ext.items():
        for big, big_ids in ext.items():
            if set(small) <= set(big):
                assert small_ids <= big_ids, (small, big)
