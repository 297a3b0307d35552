"""Dominance relations (regular and extended).

Definitions from the paper (section 3.1 and Definition 1), assuming min
conditions on every dimension and non-negative values:

* ``p`` **dominates** ``q`` on subspace ``U`` iff ``p[i] <= q[i]`` for
  every ``i in U`` and ``p[j] < q[j]`` for at least one ``j in U``.
* ``p`` **ext-dominates** ``q`` on ``U`` iff ``p[i] < q[i]`` for every
  ``i in U`` (strict on *all* dimensions).

Both scalar predicates and vectorized (numpy) bulk forms are provided;
the bulk forms are what the hot paths use.  Every query-side kernel
here tests dominance and nothing else.  Ext-domination is computed in
three places only: the Section 5.3 filter
(:func:`repro.core.extended_skyline.ext_skyline_positions`), the
witness ledger (:func:`repro.core.ledger.find_witnesses`) and the
oracle behind :func:`extended_skyline_mask`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "batch_dominated_any",
    "dominates",
    "ext_dominates",
    "dominated_mask",
    "skyline_mask",
    "extended_skyline_mask",
    "undominated_among",
]


def batch_dominated_any(dominators: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-``targets``-row mask: is the row dominated by any
    ``dominators`` row?

    Both inputs are pre-projected ``(m, k)`` / ``(c, k)`` arrays.  This
    is the hot kernel of every chunked scan (candidate block vs batch)
    and of ``bulk_insert`` eviction (incoming rows vs block, arguments
    swapped).  Callers charge the full ``m*c`` product to their
    ``comparisons`` counters, whatever the early exit below skips.

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


def undominated_among(rows: np.ndarray) -> np.ndarray:
    """Mask of ``rows`` that no *other* row dominates.

    The pairwise pass every batched scan runs over the rows that
    survived the candidate block: a survivor stays iff no other
    survivor dominates it.  (A point a per-point loop would first
    insert and later evict is simply never inserted — the final set is
    identical.)  Callers charge ``len(rows) ** 2`` comparisons.
    """
    # dom[i, j] = j dominates i = (j <= i everywhere) and not
    # (i <= j everywhere); one 3-D reduction suffices since
    # le & le.T means "equal on every dimension".
    le = np.all(rows[None, :, :] <= rows[:, None, :], axis=2)
    return ~np.any(le & ~le.T, axis=1)


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
    n = values.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    proj = values if subspace is None else values[:, list(subspace)]
    kept_idx = sum_sorted_skyline_positions(proj, strict=strict)
    mask = np.zeros(n, dtype=bool)
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
    if n == 0:
        return []
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
