"""Two alternative executions of Algorithm 1, called directly.

Every query, figure and engine worker runs the paper's f-ascending list
scan (:func:`repro.core.local_skyline.local_subspace_skyline`).  This
module holds two other physical executions of the same scan, each over
the whole store; nothing picks them by name, so a caller runs one by
calling it, or hands it to ``execute_query(local_compute=...)``:

* :func:`bbs_subspace_skyline` — branch-and-bound over a bulk-loaded
  R-tree [Papadias et al., TODS 2005], expanding entries best-first by
  ``dist_U`` (the ``max`` of an entry's lower corner, a lower bound on
  ``dist_U`` of every point beneath it) with MBR dominance pruning;
* :func:`salsa_subspace_skyline` — sort-based filtering with a
  stop-point [Bartolini, Ciaccia & Patella's SaLSa; see also arXiv
  1908.04083]: candidates are visited in ascending order of the
  monotone sorting function ``minC(p) = min_{i in U} p[i]`` (sum
  tiebreak) while the scan keeps the *stop-point* ``stop = min`` over
  inserted candidates of ``dist_U(p) = max_{i in U} p[i]``; once the
  next sort key exceeds ``stop``, every remaining point is
  ext-dominated by the stop-point witness (all its coordinates are
  ``<= stop < minC`` of anything left) and the scan terminates without
  reading them.

They stay because they win stores of the scan matrix
(``benchmarks/profile_scans.py``, docs/PERFORMANCE.md).

Both return the sorted scan's skyline byte-for-byte: the threshold-scan
result equals the skyline of ``store ∩ {f <= t}`` (a point with ``f``
above the refined threshold is ext-dominated by the point that refined
it), and the skyline of a set is unique.  Both report the surviving
store positions sorted ascending — exactly the order the sorted scan
produces — and the same refined threshold (the minimum
``dist_U`` over the result, which equals the minimum over all points
the sorted scan ever inserts, because an evictor never has a larger
``dist_U`` than its victim).

What *does* differ per execution is the honest work accounting:
``examined`` counts points whose dominance test actually ran and
``comparisons`` follows the same charging rules as the sorted scan
(block × batch products, quadratic tie groups, one comparison per MBR
corner tested), so the bench can compare pruning power per
dimensionality and distribution.

Threshold pruning under BBS and SaLSa cannot use the subspace
coordinates directly — ``f`` is the *full-space* minimum, unrelated to
a subspace projection — so both use the store's f-sortedness instead:
``{f <= t}`` is the position prefix ``[0, hi)``.  BBS additionally
bounds ``f`` over whole subtrees via the tree's ``min_id`` annotations
(see :meth:`repro.index.rtree.RTree.annotate_min_ids`); SaLSa filters
each visit batch against the prefix before any dominance test runs.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Sequence

import numpy as np

from .dominance import batch_dominated_any, undominated_among
from .indexes import BlockDominanceIndex
from .local_skyline import SkylineComputation, resolve_scan_chunk
from .store import SortedByF

__all__ = [
    "bbs_subspace_skyline",
    "salsa_subspace_skyline",
]


def bbs_subspace_skyline(
    store: SortedByF,
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
    strict: bool = False,
    max_entries: int = 16,
) -> SkylineComputation:
    """Algorithm 1 as BBS over the tree cached on the store
    (:meth:`repro.core.store.SortedByF.rtree`)."""
    started = time.perf_counter()
    cols = tuple(subspace)
    f = store.f
    tree = store.rtree(cols, max_entries=max_entries)
    index = BlockDominanceIndex(len(cols), strict=strict)
    threshold = float(initial_threshold)
    examined = 0

    if len(store):
        # First position whose f exceeds the threshold; f == t ties are
        # examined, never pruned (Observation 5 licenses only strict
        # excess), which side="right" honors exactly.
        hi = (
            len(f)
            if math.isinf(threshold)
            else int(np.searchsorted(f, threshold, side="right"))
        )

        heap: list[tuple[float, int, object]] = []
        seq = 0

        def push_node(node) -> None:
            nonlocal seq
            for entry in node.entries:
                heapq.heappush(heap, (float(entry.lo.max()), seq, entry))
                seq += 1

        # Points sharing an exact dist_U key can dominate each other
        # (max is monotone under dominance but may tie), so they are
        # buffered per key and resolved pairwise before insertion —
        # candidates already indexed always carry strictly smaller keys
        # and can therefore never be evicted (``can_evict=False``).
        pending_pos: list[int] = []
        pending_rows: list[np.ndarray] = []
        pending_key = -math.inf

        def flush() -> None:
            nonlocal threshold, hi
            rows = np.vstack(pending_rows)
            kept = np.asarray(pending_pos, dtype=np.int64)
            block = index.block_view()
            if block.shape[0]:
                index.comparisons += block.shape[0] * rows.shape[0]
                alive = ~batch_dominated_any(block, rows, strict=strict)
                kept, rows = kept[alive], rows[alive]
            if rows.shape[0] > 1:
                index.comparisons += rows.shape[0] * rows.shape[0]
                winners = undominated_among(rows, strict)
                kept, rows = kept[winners], rows[winners]
            if rows.shape[0]:
                index.bulk_insert(kept, rows, can_evict=False)
                if pending_key < threshold:
                    threshold = pending_key
                    hi = int(np.searchsorted(f, threshold, side="right"))
            pending_pos.clear()
            pending_rows.clear()

        push_node(tree.root())
        while heap:
            key, _seq, entry = heapq.heappop(heap)
            if pending_pos and key > pending_key:
                flush()
            if entry.point_id is not None:  # type: ignore[attr-defined]
                pos = int(entry.point_id)  # type: ignore[attr-defined]
                if pos >= hi:
                    continue  # f > t: ext-dominated by the refining point
                examined += 1
                pending_pos.append(pos)
                pending_rows.append(entry.lo)  # type: ignore[attr-defined]
                pending_key = key
            else:
                min_id = entry.min_id  # type: ignore[attr-defined]
                if min_id is not None and min_id >= hi:
                    continue  # every point beneath has f > t
                # A candidate dominating the lower corner dominates the
                # whole subtree strictly (corner <= point everywhere,
                # strict where it beats the corner); charged one
                # comparison per candidate like any dominance probe.
                if len(index) and index.is_dominated(entry.lo):  # type: ignore[attr-defined]
                    continue
                push_node(entry.child)  # type: ignore[attr-defined]
        if pending_pos:
            flush()

    kept_positions = np.sort(np.asarray(index.positions(), dtype=np.int64))
    result = SortedByF(
        store.points.take(kept_positions),
        f[kept_positions] if len(kept_positions) else np.zeros(0),
    )
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=len(store),
        positions=kept_positions,
    )


def salsa_subspace_skyline(
    store: SortedByF,
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
    strict: bool = False,
    scan_chunk: int | None = None,
) -> SkylineComputation:
    """Algorithm 1 as a SaLSa sort-and-limit scan.

    Candidates are visited in ascending ``minC`` order (sum tiebreak;
    see :meth:`repro.core.store.SortedByF.salsa_order`) in vectorized
    batches mirroring the sorted scan's chunking.  Two monotone
    filters bound the work:

    * the *threshold prefix* — points with ``f > t`` live past the
      store position ``hi`` and are dropped from each batch before any
      dominance test (they are ext-dominated by whichever point
      refined ``t``, exactly the sorted scan's termination rule);
    * the *stop-point* — once ``minC`` of the next batch exceeds
      ``stop = min dist_U`` over the candidates inserted so far, the
      stop-point witness ext-dominates everything left (each of its
      coordinates is ``<= stop < minC``), and the scan ends without
      reading the tail at all.

    Domination can only flow forward in ``(minC, sum)`` order — a
    dominator never sorts after its victim — except inside exact
    float-tie groups, which the batch pairwise pass and eviction-armed
    ``bulk_insert`` resolve; the surviving set is therefore the unique
    skyline of ``store ∩ {f <= t_final}``, byte-identical to the
    sorted scan (positions ascending, same refined threshold).
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    proj, dists = store.projection(cols)
    f = store.f
    order, keys = store.salsa_order(cols)
    index = BlockDominanceIndex(len(cols), strict=strict)
    threshold = float(initial_threshold)
    stop = math.inf
    examined = 0
    chunk = resolve_scan_chunk(scan_chunk)
    n = order.shape[0]
    if n:
        # First position whose f exceeds the threshold; f == t ties are
        # examined, never pruned (Observation 5 licenses only strict
        # excess), which side="right" honors exactly.
        hi = (
            len(f)
            if math.isinf(threshold)
            else int(np.searchsorted(f, threshold, side="right"))
        )
        i = 0
        while i < n and keys[i] <= stop:
            j = min(n, i + chunk)
            # Batch boundaries honor the stop known at batch start;
            # key == stop ties must still be visited (an identical
            # constant vector neither dominates nor is dominated).
            j = i + int(np.searchsorted(keys[i:j], stop, side="right"))
            batch = order[i:j]
            batch = batch[batch < hi]
            if batch.size:
                examined += int(batch.size)
                rows = proj[batch]
                block = index.block_view()
                if block.shape[0]:
                    index.comparisons += block.shape[0] * rows.shape[0]
                    alive = ~batch_dominated_any(block, rows, strict=strict)
                    batch, rows = batch[alive], rows[alive]
                if batch.size:
                    # Charged like the sorted scan's quadratic pass.
                    index.comparisons += int(batch.size) * int(batch.size)
                    winners = undominated_among(rows, strict)
                    batch, rows = batch[winners], rows[winners]
                if batch.size:
                    # minC order permits eviction only inside exact
                    # (minC, sum) float-tie groups straddling batches,
                    # so the eviction scan must stay armed.
                    index.bulk_insert(batch, rows, can_evict=True)
                    batch_min = float(dists[batch].min())
                    if batch_min < stop:
                        stop = batch_min
                        if stop < threshold:
                            threshold = stop
                            hi = int(np.searchsorted(f, threshold, side="right"))
            i = j
    kept_positions = np.sort(np.asarray(index.positions(), dtype=np.int64))
    result = SortedByF(
        store.points.take(kept_positions),
        f[kept_positions] if len(kept_positions) else np.zeros(0),
    )
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=len(store),
        positions=kept_positions,
    )
