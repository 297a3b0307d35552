"""Dominance relations (regular and extended).

Definitions from the paper (section 3.1 and Definition 1), assuming min
conditions on every dimension and non-negative values:

* ``p`` **dominates** ``q`` on subspace ``U`` iff ``p[i] <= q[i]`` for
  every ``i in U`` and ``p[j] < q[j]`` for at least one ``j in U``.
* ``p`` **ext-dominates** ``q`` on ``U`` iff ``p[i] < q[i]`` for every
  ``i in U`` (strict on *all* dimensions).

Both scalar predicates and vectorized (numpy) bulk forms are provided.
The hot path is the skyline filter at the bottom (:func:`_skyline_filter`):
pivot cells plus a rank-bitset kernel.  Its dominance form is pass two of
Algorithms 1 and 2; its ext-dominance form is every ext-skyline
(:func:`repro.core.extended_skyline.ext_skyline_positions`), and the
kernel's witness form, :func:`find_witnesses`, serves the eviction
ledgers.  So ext-domination is one kernel plus one oracle, the sum-sorted
scan behind :func:`extended_skyline_mask`, which no served path calls.
:func:`batch_dominated_any` and :func:`dominated_mask` test dominance
between given row sets.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "batch_dominated_any",
    "dominates",
    "ext_dominates",
    "dominated_mask",
    "skyline_mask",
    "extended_skyline_mask",
    "find_witnesses",
]


def batch_dominated_any(dominators: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-``targets``-row mask: is the row dominated by any
    ``dominators`` row?

    Both inputs are pre-projected ``(m, k)`` / ``(c, k)`` arrays.  No
    scan runs it (their dominance test is :func:`_skyline_filter`);
    callers charge the full ``m*c`` product to their ``comparisons``
    counters, whatever the early exit below skips.

    The reduction walks the dimensions, AND-ing one ``(c, m)`` boolean
    plane per dimension: the largest intermediate is 2-D regardless of
    ``k``, each plane reads one contiguous dominator column against one
    target column (the transposed copies make both unit-stride), and
    the loop stops as soon as the running AND has no surviving pair —
    on low-dimensional or heavily dominated batches most dimensions are
    never touched.
    """
    dominators = _as_f64(dominators)
    targets = _as_f64(targets)
    c = targets.shape[0]
    if dominators.shape[0] == 0 or c == 0:
        return np.zeros(c, dtype=bool)
    dom_t = np.ascontiguousarray(dominators.T)
    tgt_t = np.ascontiguousarray(targets.T)
    acc = dom_t[0][None, :] <= tgt_t[0][:, None]
    less = dom_t[0][None, :] < tgt_t[0][:, None]
    for d in range(1, dom_t.shape[0]):
        if not acc.any():
            break
        acc &= dom_t[d][None, :] <= tgt_t[d][:, None]
        less |= dom_t[d][None, :] < tgt_t[d][:, None]
    return np.any(acc & less, axis=1)


def _as_f64(a: np.ndarray) -> np.ndarray:
    """``np.asarray(a, dtype=float64)`` minus the call when it's a no-op.

    The mask functions run once per point in the Algorithm 1 scans, and
    their inputs are almost always the library's own C-contiguous
    float64 arrays — for those, skip numpy's conversion machinery
    entirely.
    """
    if type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous:
        return a
    return np.asarray(a, dtype=np.float64)


def _proj(p: np.ndarray, subspace: Sequence[int] | None) -> np.ndarray:
    if subspace is None:
        return p
    return p[list(subspace)]


def dominates(p: np.ndarray, q: np.ndarray, subspace: Sequence[int] | None = None) -> bool:
    """Return True when ``p`` dominates ``q`` on ``subspace``.

    ``subspace=None`` means the full space.  A point never dominates an
    identical point (the relation is irreflexive).
    """
    pu = _proj(_as_f64(p), subspace)
    qu = _proj(_as_f64(q), subspace)
    return bool(np.all(pu <= qu) and np.any(pu < qu))


def ext_dominates(p: np.ndarray, q: np.ndarray, subspace: Sequence[int] | None = None) -> bool:
    """Return True when ``p`` ext-dominates ``q`` on ``subspace``.

    Extended domination (paper, Definition 1) requires ``p`` strictly
    smaller on *every* dimension of the subspace.
    """
    pu = _proj(_as_f64(p), subspace)
    qu = _proj(_as_f64(q), subspace)
    return bool(np.all(pu < qu))


def dominated_mask(candidates: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask of ``candidates`` rows that are dominated by ``p``.

    ``candidates`` must already be projected to the query subspace
    (shape ``(m, k)``), and ``p`` likewise (shape ``(k,)``).
    """
    candidates = _as_f64(candidates)
    p = _as_f64(p)
    return np.all(p <= candidates, axis=1) & np.any(p < candidates, axis=1)


def skyline_mask(values: np.ndarray, subspace: Sequence[int] | None = None) -> np.ndarray:
    """Boolean mask of skyline rows of ``values`` on ``subspace``.

    A straightforward sort-filter computation: rows are visited in
    ascending order of their coordinate sum on the subspace (a monotone
    function, so no visited row can be dominated by a later one) and
    compared against the skyline found so far.  This is the library's
    reference (and reasonably fast) centralized skyline and serves as
    the correctness oracle for everything else.
    """
    return _sorted_filter_mask(values, subspace, strict=False)


def extended_skyline_mask(
    values: np.ndarray, subspace: Sequence[int] | None = None
) -> np.ndarray:
    """Boolean mask of *extended* skyline rows (paper, Definition 1)."""
    return _sorted_filter_mask(values, subspace, strict=True)


def _sorted_filter_mask(
    values: np.ndarray, subspace: Sequence[int] | None, strict: bool
) -> np.ndarray:
    values = _as_f64(values)
    proj = values if subspace is None else values[:, list(subspace)]
    kept_idx = sum_sorted_skyline_positions(proj, strict=strict)
    mask = np.zeros(values.shape[0], dtype=bool)
    mask[kept_idx] = True
    return mask


def sum_sorted_skyline_positions(proj: np.ndarray, strict: bool = False) -> list[int]:
    """Positions of the skyline rows of ``proj`` via a sum-sorted scan.

    Rows are visited in ascending coordinate-sum order, so no visited
    row can be dominated by a *later-sum* row.  Floating-point caveat:
    a dominator's sum is ``<=`` the dominated row's (float addition is
    monotone under a fixed summation order) but can *tie* it exactly
    when the margin underflows the sum's precision — so rows sharing a
    sum are resolved as a group with a pairwise dominance pass instead
    of relying on their order.  (Found by hypothesis; regression tests
    cover the subnormal-margin case.)
    """
    n = proj.shape[0]
    sums = proj.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    kept = np.empty_like(proj)
    kept_idx: list[int] = []
    kept_count = 0
    i = 0
    while i < n:
        j = i + 1
        while j < n and sums[order[j]] == sums[order[i]]:
            j += 1
        group = order[i:j]
        rows = proj[group]
        if kept_count:
            if strict:
                dominated = np.any(
                    np.all(kept[:kept_count][None, :, :] < rows[:, None, :], axis=2), axis=1
                )
            else:
                less_eq = np.all(kept[:kept_count][None, :, :] <= rows[:, None, :], axis=2)
                less = np.any(kept[:kept_count][None, :, :] < rows[:, None, :], axis=2)
                dominated = np.any(less_eq & less, axis=1)
            group = group[~dominated]
            rows = proj[group]
        if group.size > 1:
            # Equal-sum rows may dominate each other; resolve pairwise.
            if strict:
                dom = np.all(rows[None, :, :] < rows[:, None, :], axis=2)
            else:
                le = np.all(rows[None, :, :] <= rows[:, None, :], axis=2)
                dom = le & ~le.T
            winners = ~np.any(dom, axis=1)
            group = group[winners]
            rows = proj[group]
        if group.size:
            while kept_count + group.size > kept.shape[0]:
                kept = np.concatenate([kept, np.empty_like(kept)], axis=0)
            kept[kept_count : kept_count + group.size] = rows
            kept_count += group.size
            kept_idx.extend(int(g) for g in group)
        i = j
    return kept_idx


# ----------------------------------------------------------------------
# The skyline filter: one kernel for both relations
# ----------------------------------------------------------------------

#: Rows per pivot cell an input aims for: it is split on
#: ``floor(log2(n / _LEAF_ROWS))`` column medians (at most one per
#: column; :func:`_skyline_filter`), so an input of fewer than twice
#: this many rows is one kernel call.  The bitset kernel tests 64 pairs
#: per word and pays per pool row, so it wants big cells: swept 64…1024
#: on the benchmark networks' pre-processing, 256 is fastest
#: (docs/PERFORMANCE.md).
_LEAF_ROWS = 256

#: Most bytes one kernel call may hold: the pool's sorted columns and
#: cuts, its prefix bitsets, the rows gathered from them and the
#: indices they are built from.  The targets are taken in slices and
#: the columns in groups so that a call fits.  A pool whose sorted
#: columns alone take more than three quarters of it still gets a
#: quarter of it per slice, so such a call holds its columns plus that.
_SCRATCH_BYTES = 1 << 20

#: ``_BIT[i]`` is the word with only bit ``i`` set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _skyline_filter(values: np.ndarray, ext: bool) -> tuple[np.ndarray, int]:
    """``(positions, pairs tested)``: the ascending positions of the rows
    of the ``(n, k)`` array ``values`` that no other row dominates — or,
    with ``ext``, ext-dominates.  Exactly equal rows never dominate each
    other, so duplicates share one verdict.

    Each row is coded by the bits ``x_j >= pivot_j`` over the first
    ``b`` columns, the pivots being the column medians and ``b`` the
    ``floor(log2(n / _LEAF_ROWS))`` that cuts the input into cells of
    about ``_LEAF_ROWS`` rows (at most one bit per column).  If ``q``
    dominates ``p`` under either relation then ``q_j <= p_j``, so
    ``p_j < pivot_j`` forces ``q_j < pivot_j`` and ``code(q)`` is a
    subset of ``code(p)`` (pivot ties included).  Cells are visited in
    ascending code (a subset's code is never larger), and each cell's
    rows are tested against its own rows plus the survivors of every
    subset cell.  That is exact: both relations are acyclic on a finite
    set, so a dominated row has an *undominated* dominator, which sits in
    a subset cell visited earlier (or in the row's own cell) and
    therefore in the row's pool.
    """
    values = _as_f64(values)
    n, d = values.shape
    columns = np.ascontiguousarray(values.T)
    if n < 2 * _LEAF_ROWS:  # one cell: its pool is the input
        return np.flatnonzero(~_dominated(columns, n, ext)), n * n
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
        # The cell's own rows lead the pool, so they are its first rows.
        pool = [rows]
        sub = code
        while sub:  # every proper subset of ``code``, 0 included
            sub = (sub - 1) & code
            if sub in survivors:
                pool.append(survivors[sub])
        dominators = np.take(columns, np.concatenate(pool), axis=1)
        comparisons += dominators.shape[1] * rows.size
        alive = rows[~_dominated(dominators, rows.size, ext)]
        if alive.size:
            survivors[code] = alive
    if not survivors:
        return np.zeros(0, dtype=np.int64), comparisons
    return np.sort(np.concatenate(list(survivors.values()))).astype(np.int64), comparisons


def _dominated(pool: np.ndarray, targets: int, ext: bool) -> np.ndarray:
    """Is each of ``pool``'s first ``targets`` rows dominated (with
    ``ext``: ext-dominated) by a pool row?

    ``pool`` is ``(d, m)``, one row of values per dimension.  Pool row
    ``i`` is bit ``i`` of a ``uint64`` word array, so one word tests 64
    pairs per column.  Per column, the rows on a target's dominator
    side form a prefix of that column's sorted order; a target's
    dominators are the AND of its prefixes over every column, and it is
    dominated iff some word survives.  :func:`_sorted_cuts` says which
    columns there are and where each prefix ends.
    """
    if not targets:
        return np.zeros(0, dtype=bool)
    order, cuts = _sorted_cuts(pool, targets, ext)
    return _sweep(order, cuts, lambda acc: acc.any(axis=1))


def find_witnesses(members: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """For each ``candidates`` row, the index of the lowest-index
    ``members`` row that ext-dominates it, else ``-1``.

    The witness form of :func:`_dominated`.  The pool is the members
    below the candidates' maxima on every column (no other can
    ext-dominate one), in ascending index; a left binary search into its
    sorted columns cuts each candidate's prefixes at the rows strictly
    below it (``-0.0`` ties ``0.0``).  The lowest surviving bit wins.
    """
    members, candidates = _as_f64(members), _as_f64(candidates)
    out = np.full(candidates.shape[0], -1, dtype=np.int64)
    pool = np.flatnonzero(np.all(members < candidates.max(axis=0, initial=-np.inf), axis=1))
    if not out.size or not pool.size:
        return out
    columns = np.ascontiguousarray(members[pool].T)
    order = np.argsort(columns, axis=1)
    ranked = columns[np.arange(columns.shape[0])[:, None], order]
    cuts = np.stack([r.searchsorted(c) for r, c in zip(ranked, candidates.T.copy())])
    witness = _sweep(order, cuts, _lowest_member)
    return np.where(witness >= 0, pool[witness], -1)


def _sweep(order: np.ndarray, cuts: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each target's dominator bitsets, the AND over every
    column ``j`` of the rows in the first ``cuts[j, t]`` slots of
    ``order[j]``, taken a ``(targets, words)`` slice at a time."""
    columns, m = order.shape
    targets = cuts.shape[1]
    words = (m + 63) >> 6
    # A slice of targets keeps the running AND within a quarter of what
    # the sorted columns leave of the budget (never less than a quarter
    # of it); a column costs a words-row per prefix segment (one per
    # slot or one per target, see _prefixes) and per target gathered,
    # and a few int64 indices per pool row.
    budget = max(_SCRATCH_BYTES // 4, _SCRATCH_BYTES - order.nbytes - cuts.nbytes)
    step = max(1, min(targets, budget // (32 * words)))
    segments = m + 1 if m <= 2 * step else step + 1
    per_column = 8 * (words * (segments + step) + 6 * m)
    group = max(1, min(columns, budget // 2 // per_column))
    parts = []
    for lo in range(0, targets, step):
        cut = cuts[:, lo : lo + step]
        acc = _prefixes(order[:group], cut[:group], words)
        for j in range(group, columns, group):
            if not acc.any():
                break
            acc &= _prefixes(order[j : j + group], cut[j : j + group], words)
        parts.append(reduce(acc))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _lowest_member(acc: np.ndarray) -> np.ndarray:
    """Each ``(targets, words)`` bitset's lowest set bit, ``-1`` if none."""
    first = (acc != 0).argmax(axis=1)
    word = acc[np.arange(acc.shape[0]), first]
    # ``word & -word`` keeps the lowest set bit, 2**b; its ``frexp`` is (0.5, b + 1).
    bit = np.frexp((word & (~word + np.uint64(1))).astype(np.float64))[1] - 1
    return np.where(word != 0, first * 64 + bit, -1)


def _sorted_cuts(pool: np.ndarray, targets: int, ext: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(order, cuts)`` of the kernel's columns: ``order[j]`` lists the
    pool rows in ascending value on column ``j``, and ``cuts[j, t]`` is
    how many of them lie on target ``t``'s dominator side.

    Ext-dominance reads each dimension strictly: the rows below ``t``
    end where ``t``'s tie group starts.  Dominance reads it weakly: the
    rows at most ``t`` run through the *end* of that group.

    Weak columns alone also admit ``t`` itself and its duplicates, so
    dominance adds one strict column, the **rank sum**: the sum over the
    dimensions of each row's first slot in that dimension's order.  If
    ``q <= p`` on every dimension, each of ``q``'s first slots is at
    most ``p``'s, so ``q``'s sum is at most ``p``'s and equal only when
    every slot, hence every value, is equal.  "``<=`` everywhere and
    ``<`` on the rank sum" is therefore exactly dominance.
    """
    order, below, at_most = _ranks(pool, weak=not ext)
    if ext:
        return order, below[:, :targets]
    sum_order, sum_below, _ = _ranks(below.sum(axis=0)[None, :], weak=False)
    return np.vstack([order, sum_order]), np.vstack([at_most[:, :targets], sum_below[:, :targets]])


def _ranks(columns: np.ndarray, weak: bool) -> tuple[np.ndarray, ...]:
    """``(order, below, at_most)`` of a ``(c, m)`` array, one sort per
    column: ``order[j]`` is column ``j``'s argsort, and per row
    ``below[j]`` counts the rows smaller on it (the first slot of the
    row's tie group) and ``at_most[j]`` the rows no larger (one past the
    group's last slot; only when ``weak``, else ``None``).  Ties are
    exact comparisons, so ``-0.0`` and ``0.0`` share a group.
    """
    c, m = columns.shape
    order = np.argsort(columns, axis=1)
    flat = order + (np.arange(c) * m)[:, None]
    ranked = columns.reshape(-1)[flat]
    starts = ranked[:, 1:] != ranked[:, :-1]  # slot s + 1 opens a group
    slots = np.arange(1, m)
    first = np.empty((c, m), dtype=np.int64)
    first[:, 0] = 0
    np.multiply(starts, slots, out=first[:, 1:])
    np.maximum.accumulate(first, axis=1, out=first)
    below = np.empty(c * m, dtype=np.int64)
    below[flat] = first
    if not weak:
        return order, below.reshape(c, m), None
    past = np.full((c, m), m, dtype=np.int64)
    past[:, :-1] = np.where(starts, slots, m)
    past = np.minimum.accumulate(past[:, ::-1], axis=1)[:, ::-1]
    at_most = np.empty(c * m, dtype=np.int64)
    at_most[flat] = past
    return order, below.reshape(c, m), at_most.reshape(c, m)


def _prefixes(order: np.ndarray, cuts: np.ndarray, words: int) -> np.ndarray:
    """AND over ``order``'s columns of each target's prefix: the rows in
    the first ``cuts[j, t]`` slots of column ``j``.  A ``(targets,
    words)`` bitset array.

    Only the targets' cuts end a prefix anyone reads, so each sorted
    order is cut there into segments, each segment's rows are OR-ed
    into one bitset, and a cumulative OR over the segments yields every
    prefix needed.
    """
    g, m = order.shape
    if 2 * cuts.shape[1] >= m:
        # At most two slots per cut (every one-cell input has one): each
        # slot is its own segment, so no two rows share a bitset word
        # and a plain assignment sets their bits.  That beats the
        # segment bookkeeping and ``bitwise_or.at`` below while the
        # extra bitsets stay at most one per target.
        segments = m + 1
        base = (np.arange(g) * segments)[:, None]
        prefixes = np.zeros(g * segments * words, dtype=np.uint64)
        prefixes[(np.arange(1, segments) + base) * words + (order >> 6)] = _BIT[order & 63]
        ends = cuts + base
    else:
        # segment[j, s]: how many distinct cuts are <= slot s, at most
        # one per target.  The rows before a cut ``c`` are those of the
        # segments before ``segment[j, c]``.
        segments = cuts.shape[1] + 1
        cut_slots = cuts + (np.arange(g) * (m + 1))[:, None]
        marks = np.zeros(g * (m + 1), dtype=np.int64)
        marks[cut_slots] = 1
        segment = np.cumsum(marks.reshape(g, m + 1), axis=1)
        segment += (np.arange(g) * segments)[:, None]
        # ``at``: rows of one segment may share a word.
        prefixes = np.zeros(g * segments * words, dtype=np.uint64)
        np.bitwise_or.at(prefixes, segment[:, :m] * words + (order >> 6), _BIT[order & 63])
        ends = segment.reshape(-1)[cut_slots] - 1
    prefixes = prefixes.reshape(g, segments, words)
    np.bitwise_or.accumulate(prefixes, axis=1, out=prefixes)
    gathered = np.take(prefixes.reshape(-1, words), ends, axis=0)
    return np.bitwise_and.reduce(gathered, axis=0)
