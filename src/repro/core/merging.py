"""Algorithm 2 — threshold-based merge of sorted skyline lists.

Every super-peer delivers its local result as a list of skyline points
on the queried coordinates.  The merge keys each point on
``g_U(p) = min_{i in U} p[i]`` — the paper's ``f`` restricted to the
queried subspace, recomputable from exactly what a list carries.  The
lists are concatenated, stably sorted on that key, and scanned in
Algorithm 1's two passes (the paper names this alternative to pulling
the smallest head of each list).  The scan stops at the
first key above the threshold, which is where every remaining head of
the paper's merge exceeds it (Observation 5 holds verbatim for
``g_U``; ``docs/ALGORITHMS.md`` has the proof and says where this
departs from the paper's text).  On the full space ``g_U`` *is* ``f``.

The merge tests dominance only; a super-peer's store, an ext-skyline,
is merged by :func:`repro.core.extended_skyline.merge_ext_skylines`.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import _skyline_filter
from .local_skyline import SkylineComputation, _stop_point
from .store import SortedByF

__all__ = ["merge_sorted_skylines"]


def merge_sorted_skylines(
    lists: Sequence[SortedByF],
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
) -> SkylineComputation:
    """Run Algorithm 2 over several skyline lists.

    Parameters mirror :func:`repro.core.local_skyline.local_subspace_skyline`;
    ``lists`` may be empty or contain empty lists.  The merge orders its
    input on ``g_U(p) = min_{i in U} p[i]``, computed here from the
    scanned columns — a list's own ``f`` is not read, so f-sorted scan
    results and earlier merges mix freely.  The result is sorted by that
    key and carries it as its ``f`` (exact ties in input order), so
    merges compose (progressive merging chains them up the
    query-propagation tree).
    """
    started = time.perf_counter()
    cols = list(subspace)
    dims = {lst.dimensionality for lst in lists if len(lst)}
    if len(dims) > 1:
        raise ValueError(f"mismatched dimensionalities: {sorted(dims)}")
    # Non-empty lists must agree (a decoded empty one has one column); if
    # all are empty the first says how wide the answer is, else ``len(U)``.
    dimensionality = dims.pop() if dims else lists[0].dimensionality if lists else len(cols)
    lists = [lst for lst in lists if len(lst)]
    total_input = sum(len(lst) for lst in lists)
    threshold = float(initial_threshold)
    examined = comparisons = 0
    result = SortedByF.empty(dimensionality)
    if lists:
        values = np.concatenate([lst.points.values for lst in lists], axis=0)
        ids = np.concatenate([lst.points.ids for lst in lists], axis=0)
        proj = values[:, cols]
        keys = proj.min(axis=1)
        # Stable: exact key ties stay in list order, then in each list's own.
        order = np.argsort(keys, kind="stable")
        proj, keys = proj[order], keys[order]
        examined, threshold = _stop_point(keys, proj.max(axis=1), threshold)
        positions, comparisons = _skyline_filter(proj[:examined], ext=False)
        kept = order[positions]
        result = SortedByF(PointSet(values[kept], ids[kept]), keys[positions])
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=comparisons,
        duration=time.perf_counter() - started,
        input_size=total_input,
    )
