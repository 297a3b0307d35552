"""Algorithm 1 — threshold-based local subspace skyline computation.

The store is scanned in ascending ``f(p)`` order.  Every examined point
is tested for dominance against the skyline found so far; survivors are
inserted (evicting any candidate they dominate) and the threshold is
lowered to ``min(threshold, dist_U(p))``.  The scan terminates as soon
as the next ``f(p)`` exceeds the threshold — by Observation 5 no later
point can be a skyline point.

With ``strict=True`` the same routine computes the *extended* skyline
(the dominance test becomes ext-domination).  Pre-processing does not
use it: it needs only the set, which
:func:`repro.core.extended_skyline.ext_skyline_positions` computes with
fewer tests; the strict scan stays as the reference the tests compare
that routine against.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import batch_dominated_any, undominated_among
from .indexes import make_index
from .store import SortedByF

__all__ = [
    "SkylineComputation",
    "local_subspace_skyline",
    "resolve_scan_chunk",
]


@dataclass
class SkylineComputation:
    """Outcome of one threshold-based skyline scan.

    Attributes
    ----------
    result:
        Surviving skyline points (full-space coordinates), in ascending
        ``f`` order, together with their ``f`` values (a merge's: the
        subspace key it ordered on, see :mod:`repro.core.merging`).
    threshold:
        Final threshold: ``min`` of the initial threshold and
        ``dist_U(p)`` over every inserted point.  This is the refined
        ``t'`` the RT* variants attach to the forwarded query.
    examined:
        Number of points read from the store before termination.
    comparisons:
        Dominance comparisons performed (abstract work measure).
    duration:
        Wall-clock seconds spent inside the scan.
    positions:
        Store positions of the surviving points (``None`` for merges,
        whose inputs are transient).  A scan outcome is a pure function
        of the immutable store plus the scan parameters, so these
        positions — together with the scalar stats — are all a cache
        needs to replay the computation byte-identically; see
        :meth:`replay` and :mod:`repro.parallel.shmcache`.
    """

    result: SortedByF
    threshold: float
    examined: int
    comparisons: int
    duration: float
    input_size: int = 0
    positions: np.ndarray | None = None

    @property
    def points(self) -> PointSet:
        return self.result.points

    @property
    def pruned_by_threshold(self) -> int:
        """Points never examined thanks to early termination."""
        return self.input_size - self.examined

    @classmethod
    def replay(
        cls,
        store: SortedByF,
        positions: np.ndarray,
        threshold: float,
        examined: int,
        comparisons: int,
        input_size: int,
        duration: float = 0.0,
    ) -> "SkylineComputation":
        """Reconstruct a cached scan outcome from its store positions.

        The rebuilt result takes its coordinates, ids and ``f`` values
        from the (shared, immutable) store itself, so it is
        byte-identical to the original computation's result; the
        deterministic work counters are replayed verbatim, keeping
        serial-vs-parallel metric totals exact even on cache hits.
        """
        positions = np.asarray(positions, dtype=np.int64)
        result = SortedByF(
            store.points.take(positions),
            store.f[positions] if len(positions) else np.zeros(0),
        )
        return cls(
            result=result,
            threshold=float(threshold),
            examined=int(examined),
            comparisons=int(comparisons),
            duration=duration,
            input_size=int(input_size),
            positions=positions,
        )


def local_subspace_skyline(
    store: SortedByF,
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
    strict: bool = False,
    index_kind: str = "block",
    scan_chunk: int | None = None,
) -> SkylineComputation:
    """Run Algorithm 1 over an f-sorted store.

    Parameters
    ----------
    store:
        The super-peer's ext-skyline points sorted ascending by ``f``.
    subspace:
        Query dimensions ``U`` (full space for pre-processing).
    initial_threshold:
        Threshold ``t`` carried by the query; ``inf`` when absent.
    strict:
        ``True`` switches to ext-domination (the reference for
        :mod:`repro.core.extended_skyline`).
    index_kind:
        Dominance index implementation (``block``, ``list``, ``rtree``).
    scan_chunk:
        Batch size of the vectorized scan; defaults to
        :func:`resolve_scan_chunk` (the ``REPRO_SCAN_CHUNK`` env var or
        the built-in default).

    Notes
    -----
    Ties with the threshold (``f(p) == t``) are *examined* rather than
    pruned; Observation 5 only licenses pruning for strictly larger
    ``f`` (see :func:`repro.core.mapping.can_prune`).
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    n = len(store)
    index = make_index(index_kind, len(cols), strict=strict)
    threshold = float(initial_threshold)
    f = store.f
    # The scan never reads past the last f(p) <= t, so only that prefix
    # is projected.
    proj, dists = store.projection(cols, rows=store.prefix(threshold))
    if index_kind == "block":
        examined, threshold = _chunked_scan(
            index, proj, f, dists, threshold, strict,
            key_is_scanned_min=len(cols) == store.dimensionality,
            chunk=resolve_scan_chunk(scan_chunk),
        )
    else:
        examined, threshold = _pointwise_scan(index, proj, f, dists, threshold)
    positions = index.positions()
    result_points = store.points.take(positions)
    # len() (not truthiness) keeps this correct should an index ever
    # return its positions as an ndarray instead of a list.
    result = SortedByF(result_points, f[positions] if len(positions) else np.zeros(0))
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=n,
        positions=np.asarray(positions, dtype=np.int64),
    )


def _pointwise_scan(index, proj, f, dists, threshold: float) -> tuple[int, float]:
    """The paper's per-point loop, verbatim (any dominance index)."""
    examined = 0
    for i in range(proj.shape[0]):
        if f[i] > threshold:
            break
        examined += 1
        row = proj[i]
        if index.is_dominated(row):
            continue
        index.insert_and_prune(i, row)
        if dists[i] < threshold:
            threshold = float(dists[i])
    return examined, threshold


#: Points pre-filtered per vectorized batch.  Chosen so the batch
#: dominance test amortizes numpy dispatch without growing the
#: batch-vs-candidates matrix beyond cache-friendly sizes — the
#: micro-benchmark in ``benchmarks/test_micro_scan_chunk.py`` sweeps
#: alternatives (64 beats both 16, where dispatch overhead shows, and
#: 256+, where the quadratic intra-batch pass and the points examined
#: past tighter mid-batch thresholds start to dominate).  Override per
#: call (``scan_chunk=...``) or per process (``REPRO_SCAN_CHUNK``).
_SCAN_CHUNK = 64


def resolve_scan_chunk(scan_chunk: int | None = None) -> int:
    """The effective scan batch size: argument, env var or default."""
    if scan_chunk is None:
        raw = os.environ.get("REPRO_SCAN_CHUNK")
        if raw is None:
            return _SCAN_CHUNK
        scan_chunk = int(raw)
    if scan_chunk <= 0:
        raise ValueError(f"scan chunk must be positive, got {scan_chunk}")
    return scan_chunk


def _chunked_scan(
    index,
    proj,
    f,
    dists,
    threshold: float,
    strict: bool,
    key_is_scanned_min: bool = False,
    chunk: int = _SCAN_CHUNK,
    base: int = 0,
) -> tuple[int, float]:
    """Vectorized variant of the scan, identical semantics.

    Each batch of f-ascending points is tested against the current
    candidate block in one matrix comparison; only the (few) survivors
    go through the per-point insert/evict/threshold path.  A verdict of
    "dominated" stays valid even when the dominator is later evicted,
    because its evictor dominates transitively.  Batch boundaries honor
    the threshold known at batch start; points a tighter mid-batch
    threshold would have pruned are merely examined and discarded, so
    exactness is unaffected (they are dominated by the threshold point).

    ``base`` offsets the positions handed to the index without moving
    the local ``proj``/``f``/``dists`` arrays — the incremental merge
    (:class:`repro.core.merging.IncrementalMerger`) feeds one run at a
    time into a shared index and needs run-global candidate positions.

    ``key_is_scanned_min=True`` asserts that ``f`` — the key the rows
    ascend in — is the minimum over the scanned columns: the stored
    ``f = min_i p[i]`` on a full-space scan, ``g_U`` in an Algorithm-2
    merge on any subspace.  Then a dominator always satisfies
    ``f(q) <= f(p)`` (min is monotone), so a point inserted later in the
    ascending scan can evict an earlier candidate only on an exact key
    tie — and in strict (ext-domination) mode never, since ``q < p``
    everywhere forces ``f(q) < f(p)``.  The insert below skips the
    eviction scan whenever that argument applies (the SFS property); a
    store scanned on a proper subspace in full-space ``f`` order has no
    such guarantee and the eviction scan always runs.
    """
    n = proj.shape[0]
    examined = 0
    i = 0
    last_inserted_f = -math.inf
    while i < n:
        if f[i] > threshold:
            break
        hi = min(n, i + chunk)
        # Only points with f <= threshold may be skyline points.
        hi = i + int(np.searchsorted(f[i:hi], threshold, side="right"))
        chunk_rows = proj[i:hi]
        examined += hi - i
        block = index.block_view()
        if block.shape[0]:
            index.comparisons += block.shape[0] * chunk_rows.shape[0]
            dominated = batch_dominated_any(block, chunk_rows, strict=strict)
            candidates = np.nonzero(~dominated)[0]
        else:
            candidates = np.arange(chunk_rows.shape[0])
        if candidates.size:
            index.comparisons += candidates.size * candidates.size
            winners = candidates[undominated_among(chunk_rows[candidates], strict)]
            if winners.size:
                positions = i + winners
                can_evict = not key_is_scanned_min or (
                    not strict and float(f[positions[0]]) <= last_inserted_f
                )
                index.bulk_insert(
                    base + positions if base else positions,
                    chunk_rows[winners],
                    can_evict=can_evict,
                )
                last_inserted_f = float(f[positions[-1]])
                batch_min = float(dists[positions].min())
                if batch_min < threshold:
                    threshold = batch_min
        i = hi
    return examined, threshold
