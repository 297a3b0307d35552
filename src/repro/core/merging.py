"""Algorithm 2 — threshold-based merge of sorted skyline lists.

Every super-peer delivers its local result as a list of skyline points
on the queried coordinates.  The merge keys each point on
``g_U(p) = min_{i in U} p[i]`` — the paper's ``f`` restricted to the
queried subspace, recomputable from exactly what a list carries — and
repeatedly pulls the globally smallest head among the lists (a heap
takes the paper's "list with the minimum first element" role), applies
the same dominance test / eviction / threshold update as Algorithm 1,
and stops as soon as every remaining head exceeds the threshold
(Observation 5 holds verbatim for ``g_U``; ``docs/ALGORITHMS.md`` has
the proof and says where this departs from the paper's text).  Each
list is therefore "accessed only until its next element is larger than
the threshold value" — the cited advantage over concatenating,
re-sorting and re-running Algorithm 1.  On the full space ``g_U`` *is*
``f``.

With ``strict=True`` the same routine merges ext-skylines.  The
super-peer store is not built that way (see
:func:`repro.core.extended_skyline.merge_ext_skylines`); the strict merge
is the reference the tests compare it against.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .indexes import make_index
from .local_skyline import SkylineComputation, _chunked_scan, resolve_scan_chunk
from .store import SortedByF

__all__ = ["merge_sorted_skylines"]


def merge_sorted_skylines(
    lists: Sequence[SortedByF],
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
    strict: bool = False,
    index_kind: str = "block",
    scan_chunk: int | None = None,
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
    lists = [lst for lst in lists if len(lst)]
    total_input = sum(len(lst) for lst in lists)
    dims = {lst.dimensionality for lst in lists}
    if len(dims) > 1:
        raise ValueError(f"mismatched dimensionalities: {sorted(dims)}")
    dimensionality = dims.pop() if dims else len(cols)
    index = make_index(index_kind, len(cols), strict=strict)
    threshold = float(initial_threshold)
    examined = 0
    result = SortedByF.empty(dimensionality)
    if lists and index_kind == "block":
        # Fast path: the paper notes the alternative of merging the
        # sorted lists into one and scanning it; with a vectorized scan
        # that alternative wins in CPython, and the early-termination
        # semantics are identical (the scan stops at the same key bound).
        values = np.concatenate([lst.points.values for lst in lists], axis=0)
        ids = np.concatenate([lst.points.ids for lst in lists], axis=0)
        proj = values[:, cols]
        keys = proj.min(axis=1)
        # Stable: exact key ties stay in list order, then in each list's own.
        order = np.argsort(keys, kind="stable")
        proj, keys = proj[order], keys[order]
        # The key is the min over the scanned columns, so a dominator never
        # sorts after what it dominates: the scan skips the eviction pass
        # outside exact key ties (SFS), on every subspace.
        examined, threshold = _chunked_scan(
            index, proj, keys, proj.max(axis=1), threshold, strict,
            key_is_scanned_min=True, chunk=resolve_scan_chunk(scan_chunk),
        )
        positions = index.positions()
        kept = order[positions]
        result = SortedByF(PointSet(values[kept], ids[kept]), keys[positions])
    elif lists:
        # Every input on the merge's key: (list rows, keys, projection),
        # key-ascending.
        runs = []
        for lst in lists:
            proj = lst.points.values[:, cols]
            keys = proj.min(axis=1)
            rows = np.argsort(keys, kind="stable")
            runs.append((rows, keys[rows], proj[rows]))
        # Heap of (key, list index, position within the run); ties broken
        # by list order for determinism.
        heap: list[tuple[float, int, int]] = [
            (float(keys[0]), li, 0) for li, (_, keys, _) in enumerate(runs)
        ]
        heapq.heapify(heap)
        alive: list[tuple[int, int, float]] = []  # index position -> (list, row, key)
        while heap:
            key, li, pos = heapq.heappop(heap)
            if key > threshold:
                break
            examined += 1
            rows, keys, proj = runs[li]
            row = proj[pos]
            if not index.is_dominated(row):
                index.insert_and_prune(len(alive), row)
                alive.append((li, int(rows[pos]), key))
                threshold = min(threshold, float(row.max()))
            if pos + 1 < len(keys):
                heapq.heappush(heap, (float(keys[pos + 1]), li, pos + 1))
        survivors = [alive[s] for s in index.positions()]
        if survivors:
            values = np.vstack([lists[li].points.values[row] for li, row, _ in survivors])
            ids = np.array([lists[li].points.ids[row] for li, row, _ in survivors], dtype=np.int64)
            result = SortedByF(PointSet(values, ids), np.array([key for _, _, key in survivors]))
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=total_input,
    )
