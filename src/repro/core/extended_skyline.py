"""Extended skyline computation (section 4 of the paper).

The *extended skyline* of a space ``U`` is the set of points not
ext-dominated (strictly smaller on every dimension of ``U``) by any
other point.  Observations 3 and 4 establish the property everything in
SKYPEER rests on:

    for every subspace ``V ⊆ U``:  ``SKY_V ⊆ ext-SKY_U``

so a peer that ships ``ext-SKY_D`` to its super-peer has shipped enough
information to answer *any* subspace skyline query exactly.

Pre-processing (section 5.3) needs only that *set*, so it does not run
Algorithm 1/2: :func:`ext_skyline_positions` is the ext-dominance form
of the pivot-partitioned filter
(:func:`repro.core.dominance._skyline_filter`), and every ext-skyline in
the system — a peer's upload, a
super-peer's store, a join's merge, a rebuild — goes through it
(:func:`ext_skyline_scan`, :func:`merge_ext_skylines`,
:func:`extended_skyline`).  So ext-domination has one kernel and no
second algorithm beside it; the tests check it against a quadratic
oracle of their own.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import _skyline_filter, skyline_mask
from .local_skyline import SkylineComputation, local_subspace_skyline
from .store import SortedByF
from .subspace import full_space, normalize_subspace

__all__ = [
    "ext_skyline_positions",
    "ext_skyline_scan",
    "extended_skyline",
    "merge_ext_skylines",
    "subspace_skyline",
    "subspace_skyline_points",
]

def ext_skyline_positions(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the rows no other row ext-dominates.

    ``values`` is an ``(n, k)`` array; exactly equal rows do not
    ext-dominate each other, so duplicates are all kept.
    """
    return _skyline_filter(values, ext=True)[0]


def ext_skyline_scan(
    store: SortedByF, subspace: Sequence[int] | None = None
) -> SkylineComputation:
    """``ext-SKY_U`` of an f-sorted store, in store order.

    The outcome has an Algorithm 1 scan's shape.  Its threshold is
    ``min dist_U`` over the result (``inf`` when empty): every row with
    ``f`` above it is ext-dominated by the row that sets it, so it is the
    refined ``t'`` of the paper's scan.  ``examined`` is the whole store
    and ``comparisons`` the pairs the filter tested.
    """
    started = time.perf_counter()
    cols = full_space(store.dimensionality) if subspace is None else tuple(subspace)
    proj, dists = store.projection(cols)
    positions, comparisons = _skyline_filter(proj, ext=True)
    result = SortedByF(
        store.points.take(positions), store.f[positions] if len(positions) else np.zeros(0)
    )
    return SkylineComputation(
        result=result,
        threshold=float(dists[positions].min()) if len(positions) else math.inf,
        examined=len(store),
        comparisons=comparisons,
        duration=time.perf_counter() - started,
        input_size=len(store),
        positions=positions,
    )


def merge_ext_skylines(
    lists: Sequence[SortedByF], dimensionality: int
) -> SkylineComputation:
    """``ext-SKY_D`` of the union of several lists (a super-peer's store).

    The lists are concatenated and sorted on ``(f, id)`` — the order
    Algorithm 2 visits them in, with exact ``f`` ties in id order as
    every store keeps them (:meth:`SortedByF.from_points`).
    ``positions`` is ``None``: the sorted union is transient.
    """
    started = time.perf_counter()
    lists = [lst for lst in lists if len(lst)]
    dims = {lst.dimensionality for lst in lists}
    if dims - {dimensionality}:
        raise ValueError(f"mismatched dimensionalities: {sorted(dims | {dimensionality})}")
    if lists:
        values = np.concatenate([lst.points.values for lst in lists], axis=0)
        keys = values.min(axis=1)
        ids = np.concatenate([lst.points.ids for lst in lists], axis=0)
        order = np.lexsort((ids, keys))
        ids = ids[order]
        values = values[order]  # the unsorted copy is dropped here
        union = SortedByF.from_trusted(PointSet.from_trusted(values, ids), keys[order])
    else:
        union = SortedByF.empty(dimensionality)
    computation = ext_skyline_scan(union)
    computation.positions = None
    computation.duration = time.perf_counter() - started
    return computation


def extended_skyline(
    points: PointSet, subspace: Sequence[int] | None = None
) -> SkylineComputation:
    """``ext-SKY_U`` of a point set with its work statistics.

    ``subspace=None`` means the full space ``D`` (the only subspace the
    pre-processing phase ever uses, but tests exercise others).
    """
    d = points.dimensionality
    cols = None if subspace is None else normalize_subspace(subspace, d)
    return ext_skyline_scan(SortedByF.from_points(points), cols)


def subspace_skyline(points: PointSet, subspace: Sequence[int]) -> SkylineComputation:
    """Centralized ``SKY_U`` with the threshold-based scan (Algorithm 1)."""
    cols = normalize_subspace(subspace, points.dimensionality)
    store = SortedByF.from_points(points)
    return local_subspace_skyline(store, cols)


def subspace_skyline_points(points: PointSet, subspace: Sequence[int]) -> PointSet:
    """Centralized ``SKY_U`` via :func:`repro.core.dominance.skyline_mask`
    (order-preserving)."""
    cols = normalize_subspace(subspace, points.dimensionality)
    return points.mask(skyline_mask(points.values, cols))
