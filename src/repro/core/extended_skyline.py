"""Extended skyline computation (section 4 of the paper).

The *extended skyline* of a space ``U`` is the set of points not
ext-dominated (strictly smaller on every dimension of ``U``) by any
other point.  Observations 3 and 4 establish the property everything in
SKYPEER rests on:

    for every subspace ``V ⊆ U``:  ``SKY_V ⊆ ext-SKY_U``

so a peer that ships ``ext-SKY_D`` to its super-peer has shipped enough
information to answer *any* subspace skyline query exactly.

Pre-processing (section 5.3) needs only that *set*, so it does not run
Algorithm 1/2: :func:`ext_skyline_positions` is one pivot-partitioned
filter, and every ext-skyline in the system — a peer's upload, a
super-peer's store, a join's merge, a rebuild — goes through it
(:func:`ext_skyline_scan`, :func:`merge_ext_skylines`).  The direct
sum-sorted mask (:func:`extended_skyline_points`) stays as an oracle
for bulk analytics.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import batch_dominated_any, extended_skyline_mask, skyline_mask
from .local_skyline import SkylineComputation, local_subspace_skyline
from .store import SortedByF
from .subspace import full_space, normalize_subspace

__all__ = [
    "ext_skyline_positions",
    "ext_skyline_scan",
    "extended_skyline",
    "extended_skyline_points",
    "merge_ext_skylines",
    "subspace_skyline",
    "subspace_skyline_points",
]

#: An input of at most this many rows (every peer of the benchmarks) is
#: one kernel call: below it the split's bookkeeping costs more than the
#: pairs it saves.
_ONE_CALL_ROWS = 256

#: Rows per pivot cell a larger input aims for: it is split on
#: ``floor(log2(n / _LEAF_ROWS))`` column medians.  Swept 16…256 on the
#: benchmark networks' super-peer merges (3 400–4 700 rows, d = 6 and 8):
#: 32 tests 2.4–2.7× fewer pairs than 256 and runs ≈ 2× faster.
_LEAF_ROWS = 32

#: Most (dominator, target) pairs one kernel call may hold — no more
#: than a one-call input's.  A cell whose pool is large is tested in
#: slices of targets, so a boolean plane stays 64 KB whatever the skew.
_PLANE_PAIRS = _ONE_CALL_ROWS * _ONE_CALL_ROWS


def ext_skyline_positions(values: np.ndarray) -> np.ndarray:
    """Ascending positions of the rows no other row ext-dominates.

    ``values`` is an ``(n, k)`` array; exactly equal rows do not
    ext-dominate each other, so duplicates are all kept.
    """
    return _ext_skyline_filter(np.asarray(values, dtype=np.float64))[0]


def _ext_skyline_filter(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(positions, pairs tested)`` of the pivot-partitioned filter.

    Each row is coded by the bits ``x_j >= pivot_j`` over the first
    ``b`` columns, the pivots being the column medians.  If ``q``
    ext-dominates ``p`` then ``p_j < pivot_j`` forces ``q_j < pivot_j``,
    so ``code(q)`` is a subset of ``code(p)``.  Cells are visited in
    ascending code (a subset's code is never larger), and each cell's
    rows are tested against its own rows plus the survivors of every
    subset cell.  That is exact: ext-domination is acyclic on a finite
    set, so a dominated row has an *undominated* dominator, which sits in
    a subset cell visited earlier (or in the row's own cell) and
    therefore in the row's pool.
    """
    n, d = values.shape
    bits = min(d, int(math.log2(n / _LEAF_ROWS))) if n > _ONE_CALL_ROWS else 0
    columns = np.ascontiguousarray(values.T)
    codes = np.zeros(n, dtype=np.int64)
    for j in range(bits):
        pivot = np.partition(columns[j], n // 2)[n // 2]
        codes |= (columns[j] >= pivot).astype(np.int64) << j
    counts = np.bincount(codes, minlength=1 << bits)
    starts = np.concatenate(([0], np.cumsum(counts)))
    # Stable: each cell's rows stay in ascending position order.
    by_cell = np.argsort(codes, kind="stable")
    survivors: dict[int, np.ndarray] = {}
    comparisons = 0
    for code in range(1 << bits):
        rows = by_cell[starts[code] : starts[code + 1]]
        if not rows.size:
            continue
        pool = [rows]
        sub = code
        while sub:  # every proper subset of ``code``, 0 included
            sub = (sub - 1) & code
            if sub in survivors:
                pool.append(survivors[sub])
        # The cell's own rows lead the pool, so they are its first rows.
        # Gathered column by column: the transpose the kernel works on is
        # then the gather itself, not a copy per slice of targets.
        dominators = np.take(columns, np.concatenate(pool), axis=1).T
        m = dominators.shape[0]
        comparisons += m * rows.size
        step = max(1, _PLANE_PAIRS // m)
        dominated = np.concatenate([
            batch_dominated_any(
                dominators, dominators[lo : min(lo + step, rows.size)], strict=True
            )
            for lo in range(0, rows.size, step)
        ])
        alive = rows[~dominated]
        if alive.size:
            survivors[code] = alive
    if not survivors:
        return np.zeros(0, dtype=np.int64), comparisons
    return np.sort(np.concatenate(list(survivors.values()))).astype(np.int64), comparisons


def ext_skyline_scan(
    store: SortedByF, subspace: Sequence[int] | None = None
) -> SkylineComputation:
    """``ext-SKY_U`` of an f-sorted store, in store order.

    The outcome has the shape an Algorithm 1 scan in strict mode has, and
    the same result and threshold: strict mode never evicts, so its
    threshold is ``min dist_U`` over the result.  ``examined`` is the
    whole store and ``comparisons`` the pairs the filter tested.
    """
    started = time.perf_counter()
    cols = full_space(store.dimensionality) if subspace is None else tuple(subspace)
    proj, dists = store.projection(cols)
    positions, comparisons = _ext_skyline_filter(proj)
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

    The lists are concatenated in order and stably sorted on ``f`` —
    the order Algorithm 2 visits them in — so exact ties keep list
    order, then each list's own.  ``positions`` is ``None``: the sorted
    union is transient.
    """
    started = time.perf_counter()
    lists = [lst for lst in lists if len(lst)]
    dims = {lst.dimensionality for lst in lists}
    if dims - {dimensionality}:
        raise ValueError(f"mismatched dimensionalities: {sorted(dims | {dimensionality})}")
    if lists:
        values = np.concatenate([lst.points.values for lst in lists], axis=0)
        keys = values.min(axis=1)
        order = np.argsort(keys, kind="stable")
        ids = np.concatenate([lst.points.ids for lst in lists], axis=0)[order]
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


def extended_skyline_points(
    points: PointSet, subspace: Sequence[int] | None = None
) -> PointSet:
    """``ext-SKY_U`` via the direct vectorized mask (order-preserving)."""
    d = points.dimensionality
    cols = None if subspace is None else normalize_subspace(subspace, d)
    return points.mask(extended_skyline_mask(points.values, cols))


def subspace_skyline(
    points: PointSet, subspace: Sequence[int], index_kind: str = "block"
) -> SkylineComputation:
    """Centralized ``SKY_U`` with the threshold-based scan (Algorithm 1)."""
    cols = normalize_subspace(subspace, points.dimensionality)
    store = SortedByF.from_points(points)
    return local_subspace_skyline(
        store, cols, initial_threshold=math.inf, strict=False, index_kind=index_kind
    )


def subspace_skyline_points(points: PointSet, subspace: Sequence[int]) -> PointSet:
    """Centralized ``SKY_U`` via the direct vectorized mask."""
    cols = normalize_subspace(subspace, points.dimensionality)
    return points.mask(skyline_mask(points.values, cols))
