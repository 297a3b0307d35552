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
from .dominance import extended_skyline_mask, skyline_mask
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

#: Rows per pivot cell an input aims for: it is split on
#: ``floor(log2(n / _LEAF_ROWS))`` column medians, so an input of fewer
#: than twice this many rows (every peer of the benchmarks) is one
#: kernel call.  The bitset kernel tests 64 pairs per word and pays per
#: pool row, so it wants bigger cells than a boolean plane did: swept
#: 64…1024 on the benchmark networks' pre-processing, 256 is fastest
#: (docs/PERFORMANCE.md).
_LEAF_ROWS = 256

#: Most bytes one kernel step may hold: its prefix bitsets, the rows
#: gathered from them and the sort indices they are built from.  The
#: targets are taken in slices and the dimensions in groups so that a
#: step fits, whatever the pool's size or skew.
_SCRATCH_BYTES = 1 << 20

#: ``_BIT[i]`` is the word with only bit ``i`` set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


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
    columns = np.ascontiguousarray(values.T)
    if n < 2 * _LEAF_ROWS:  # one cell: its pool is the input
        return np.flatnonzero(~_ext_dominated(columns, n)), n * n
    bits = min(d, int(math.log2(n / _LEAF_ROWS)))
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
        dominators = np.take(columns, np.concatenate(pool), axis=1)
        comparisons += dominators.shape[1] * rows.size
        dominated = _ext_dominated(dominators, rows.size)
        alive = rows[~dominated]
        if alive.size:
            survivors[code] = alive
    if not survivors:
        return np.zeros(0, dtype=np.int64), comparisons
    return np.sort(np.concatenate(list(survivors.values()))).astype(np.int64), comparisons


def _ext_dominated(pool: np.ndarray, targets: int) -> np.ndarray:
    """Is each of ``pool``'s first ``targets`` rows ext-dominated by a
    pool row?

    ``pool`` is ``(d, m)``, one C-contiguous row of values per
    dimension.  Pool row ``i`` is bit ``i`` of a ``uint64`` word array,
    so one word tests 64 pairs per dimension.  A target's ext-dominators
    are the AND, over every dimension, of the pool rows strictly below
    it there: some word survives iff the target is dominated.
    """
    d, m = pool.shape
    if not targets:
        return np.zeros(0, dtype=bool)
    words = (m + 63) >> 6
    # A slice of targets keeps the running AND within a quarter of the
    # budget; a dimension costs its prefixes and gathered rows (about
    # two words-rows per target) and a few int64 indices per pool row.
    step = max(1, min(targets, _SCRATCH_BYTES // (32 * words)))
    per_dim = 8 * (words * (2 * step + 1) + 6 * m)
    group = max(1, min(d, _SCRATCH_BYTES // 2 // per_dim))
    dominated = np.empty(targets, dtype=bool)
    for lo in range(0, targets, step):
        hi = min(lo + step, targets)
        acc = _below_all(pool[:group], lo, hi)
        for j in range(group, d, group):
            if not acc.any():
                break
            acc &= _below_all(pool[j : j + group], lo, hi)
        dominated[lo:hi] = acc.any(axis=1)
    return dominated


def _below_all(pool: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The pool rows strictly below target ``t`` on every one of
    ``pool``'s dimensions, for ``t`` in ``lo..hi-1``: a
    ``(hi - lo, words)`` bitset array.

    Per dimension the pool is sorted once, and each row's *rank* is the
    first slot of its tie group.  A row ``q`` is below target ``t``
    exactly when ``rank(q) < rank(t)``: slots before ``t``'s tie group
    hold the smaller values and only those (ties and ``-0.0 == 0.0``
    included), so the rows below ``t`` are the prefix of the sorted
    order that ends at ``rank(t)``.  Only the targets' ranks end a
    prefix anyone reads, so the sorted order is cut there into
    segments, each segment's rows are OR-ed into one bitset, and a
    cumulative OR over the segments yields every prefix needed.
    """
    g, m = pool.shape
    words = (m + 63) >> 6
    base = (np.arange(g) * m)[:, None]
    order = np.argsort(pool, axis=1)
    flat = order + base
    ranked = pool.reshape(-1)[flat]
    first = np.empty((g, m), dtype=np.int64)
    first[:, 0] = 0
    np.multiply(ranked[:, 1:] != ranked[:, :-1], np.arange(1, m), out=first[:, 1:])
    np.maximum.accumulate(first, axis=1, out=first)
    rank = np.empty(g * m, dtype=np.int64)
    rank[flat] = first
    cut = rank.reshape(g, m)[:, lo:hi] + base  # the targets' ranks, as flat slots
    # segment[j, s]: how many of the targets' ranks are <= slot s.
    marks = np.zeros(g * m, dtype=np.int64)
    marks[cut] = 1
    segment = np.cumsum(marks.reshape(g, m), axis=1)
    segments = int(segment[:, -1].max()) + 1
    segment += (np.arange(g) * segments)[:, None]
    prefixes = np.zeros(g * segments * words, dtype=np.uint64)
    # ``at``: rows of one segment may share a word.
    np.bitwise_or.at(prefixes, segment * words + (order >> 6), _BIT[order & 63])
    prefixes = prefixes.reshape(g, segments, words)
    np.bitwise_or.accumulate(prefixes, axis=1, out=prefixes)
    # The rows below a target are the segments before its rank's.
    gathered = np.take(prefixes.reshape(-1, words), segment.reshape(-1)[cut] - 1, axis=0)
    return np.bitwise_and.reduce(gathered, axis=0)


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


def subspace_skyline(points: PointSet, subspace: Sequence[int]) -> SkylineComputation:
    """Centralized ``SKY_U`` with the threshold-based scan (Algorithm 1)."""
    cols = normalize_subspace(subspace, points.dimensionality)
    store = SortedByF.from_points(points)
    return local_subspace_skyline(store, cols)


def subspace_skyline_points(points: PointSet, subspace: Sequence[int]) -> PointSet:
    """Centralized ``SKY_U`` via the direct vectorized mask."""
    cols = normalize_subspace(subspace, points.dimensionality)
    return points.mask(skyline_mask(points.values, cols))
