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

Two entry points share the semantics:

* :func:`merge_sorted_skylines` — the buffered form: all lists are in
  hand, merge once.
* :class:`IncrementalMerger` — the incremental form: runs arrive one at
  a time (the slices of a partitioned scan) and each is
  dominance-filtered into the running skyline on arrival.  Feeding
  runs incrementally is exact because a threshold-pruned Algorithm 1/2
  scan returns the *exact* skyline of its input (a survivor past the
  final threshold would be dominated by the threshold point), and
  skylines compose: ``sky(sky(A ∪ B) ∪ C) = sky(A ∪ B ∪ C)``.  Only
  the relative order of exact ``f`` ties can differ from the buffered
  merge; the result *set* is identical.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .indexes import BlockDominanceIndex, make_index
from .local_skyline import SkylineComputation, _chunked_scan, resolve_scan_chunk
from .mapping import dist_values
from .store import SortedByF

__all__ = ["IncrementalMerger", "merge_sorted_skylines"]


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


class IncrementalMerger:
    """Algorithm 2, one run at a time (the streaming half of the merge).

    Feed each f-sorted run as it becomes available; every feed
    dominance-filters the run against the skyline accumulated so far
    (and lets the run evict previously kept candidates), then lowers
    the threshold.  :meth:`result` finalizes: survivors come back
    f-sorted, so the outcome composes with further merges exactly like
    the buffered form's.

    Exactness: each fed run is dominance-filtered at ``f <= t`` against
    the running candidate block, which maintains ``candidates ==
    skyline(runs so far)`` (see the module docstring); the final
    candidate set therefore equals the buffered merge's result set,
    with at most the relative order of exact ``f`` ties differing.

    The running index is the vectorized block index; the buffered
    entry point remains the place for alternative index kinds.
    """

    def __init__(
        self,
        subspace: Sequence[int],
        dimensionality: int | None = None,
        initial_threshold: float = math.inf,
        strict: bool = False,
        scan_chunk: int | None = None,
    ):
        self._cols = list(subspace)
        self._dimensionality = dimensionality
        self._strict = strict
        self._chunk = resolve_scan_chunk(scan_chunk)
        self._index = BlockDominanceIndex(len(self._cols), strict=strict)
        self.threshold = float(initial_threshold)
        self._runs: list[SortedByF] = []
        self._run_labels: list[int] = []  # internal run index -> feed number
        self._origins: list[tuple[int, int]] = []  # global position -> (run, row)
        self._base = 0
        self.examined = 0
        self.input_size = 0
        self.runs_fed = 0
        self.runs_pruned = 0
        self.compute_seconds = 0.0

    @property
    def comparisons(self) -> int:
        return self._index.comparisons

    def feed(self, run: SortedByF) -> int:
        """Merge one f-sorted run into the running skyline.

        Returns the number of points of the run that were examined
        (zero when the whole run lies beyond the current threshold —
        the whole-run pruning fast path).
        """
        started = time.perf_counter()
        self.runs_fed += 1
        if self._dimensionality is None and len(run):
            self._dimensionality = run.dimensionality
        n = len(run)
        self.input_size += n
        if n == 0 or float(run.f[0]) > self.threshold:
            # Runs are f-sorted, so a head past the threshold means no
            # element of the run can enter the skyline (Observation 5).
            self.runs_pruned += n and 1
            self.compute_seconds += time.perf_counter() - started
            return 0
        run_index = len(self._runs)
        self._runs.append(run)
        self._run_labels.append(self.runs_fed - 1)
        proj = run.points.values[:, self._cols]
        dists = dist_values(run.points.values, self._cols)
        # Never claim the SFS fast path: fed runs are slices of a store
        # in full-space f order, and later runs restart at low f anyway,
        # so the eviction scan must always run.
        examined, self.threshold = _chunked_scan(
            self._index, proj, run.f, dists, self.threshold, self._strict,
            key_is_scanned_min=False, chunk=self._chunk, base=self._base,
        )
        self.examined += examined
        self._origins.extend((run_index, row) for row in range(n))
        self._base += n
        self.compute_seconds += time.perf_counter() - started
        return examined

    def survivor_origins(self) -> list[tuple[int, int]]:
        """``(feed number, row within that run)`` for every survivor.

        The feed number counts :meth:`feed` calls from zero *including*
        whole-run-pruned feeds (which contribute no survivors), so a
        caller that fed one run per shard can map survivors straight
        back to its shards.  The partitioned scan uses this to recover
        global store positions without re-matching point ids.
        """
        return [
            (self._run_labels[ri], row)
            for ri, row in (self._origins[s] for s in self._index.positions())
        ]

    def result(self) -> SkylineComputation:
        """Finalize: the merged skyline, f-sorted, with its work stats."""
        started = time.perf_counter()
        survivors = self._index.positions()
        rows = [self._origins[s] for s in survivors]
        if rows:
            values = np.vstack([self._runs[ri].points.values[pos] for ri, pos in rows])
            ids = np.array(
                [self._runs[ri].points.ids[pos] for ri, pos in rows], dtype=np.int64
            )
            f = np.array([float(self._runs[ri].f[pos]) for ri, pos in rows])
            order = np.argsort(f, kind="stable")
            result = SortedByF(points=PointSet(values[order], ids[order]), f=f[order])
        else:
            result = SortedByF.empty(self._dimensionality or len(self._cols))
        self.compute_seconds += time.perf_counter() - started
        return SkylineComputation(
            result=result,
            threshold=self.threshold,
            examined=self.examined,
            comparisons=self.comparisons,
            duration=self.compute_seconds,
            input_size=self.input_size,
        )
