"""Algorithm 1 — threshold-based local subspace skyline computation.

The store is scanned in ascending ``f(p)`` order.  Every examined point
is tested for dominance against the skyline found so far; survivors are
inserted (evicting any candidate they dominate) and the threshold is
lowered to ``min(threshold, dist_U(p))``.  The scan terminates as soon
as the next ``f(p)`` exceeds the threshold — by Observation 5 no later
point can be a skyline point.

The scan tests dominance only.  Section 5.3 pre-processing needs the
*extended* skyline, a set, which
:func:`repro.core.extended_skyline.ext_skyline_positions` computes as
one filter instead of a scan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import batch_dominated_any, undominated_among
from .indexes import BlockDominanceIndex
from .store import SortedByF

__all__ = [
    "SkylineComputation",
    "local_subspace_skyline",
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
        :meth:`replay` and :class:`repro.parallel.engine.ScanMemo`.
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

    Notes
    -----
    Ties with the threshold (``f(p) == t``) are *examined* rather than
    pruned; Observation 5 only licenses pruning for strictly larger
    ``f`` (see :func:`repro.core.mapping.can_prune`).
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    n = len(store)
    index = BlockDominanceIndex(len(cols))
    threshold = float(initial_threshold)
    f = store.f
    # The scan never reads past the last f(p) <= t, so only that prefix
    # is projected.
    proj, dists = store.projection(cols, rows=store.prefix(threshold))
    examined, threshold = _chunked_scan(
        index, proj, f, dists, threshold,
        key_is_scanned_min=len(cols) == store.dimensionality,
    )
    positions = np.asarray(index.positions(), dtype=np.int64)
    result = SortedByF(store.points.take(positions), f[positions])
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=n,
        positions=positions,
    )


#: Points pre-filtered per vectorized batch.  Chosen so the batch
#: dominance test amortizes numpy dispatch without growing the
#: batch-vs-candidates matrix beyond cache-friendly sizes — the
#: batch-size micro-benchmark under ``benchmarks/`` sweeps
#: alternatives (64 beats both 16, where dispatch overhead shows, and
#: 256+, where the quadratic intra-batch pass and the points examined
#: past tighter mid-batch thresholds start to dominate).  Every scan
#: reads it when it runs, so a test or a sweep patches the module
#: attribute.
_SCAN_CHUNK = 64


def _chunked_scan(
    index, proj, f, dists, threshold: float, key_is_scanned_min: bool = False
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

    ``key_is_scanned_min=True`` asserts that ``f`` — the key the rows
    ascend in — is the minimum over the scanned columns: the stored
    ``f = min_i p[i]`` on a full-space scan, ``g_U`` in an Algorithm-2
    merge on any subspace.  Then a dominator always satisfies
    ``f(q) <= f(p)`` (min is monotone), so a point inserted later in the
    ascending scan can evict an earlier candidate only on an exact key
    tie.  The insert below skips the eviction scan whenever that
    argument applies (the SFS property); a store scanned on a proper
    subspace in full-space ``f`` order has no such guarantee and the
    eviction scan always runs.
    """
    n = proj.shape[0]
    examined = 0
    i = 0
    last_inserted_f = -math.inf
    while i < n:
        if f[i] > threshold:
            break
        hi = min(n, i + _SCAN_CHUNK)
        # Only points with f <= threshold may be skyline points.
        hi = i + int(np.searchsorted(f[i:hi], threshold, side="right"))
        chunk_rows = proj[i:hi]
        examined += hi - i
        block = index.block_view()
        if block.shape[0]:
            index.comparisons += block.shape[0] * chunk_rows.shape[0]
            dominated = batch_dominated_any(block, chunk_rows)
            candidates = np.nonzero(~dominated)[0]
        else:
            candidates = np.arange(chunk_rows.shape[0])
        if candidates.size:
            index.comparisons += candidates.size * candidates.size
            winners = candidates[undominated_among(chunk_rows[candidates])]
            if winners.size:
                positions = i + winners
                can_evict = (
                    not key_is_scanned_min or float(f[positions[0]]) <= last_inserted_f
                )
                index.bulk_insert(positions, chunk_rows[winners], can_evict=can_evict)
                last_inserted_f = float(f[positions[-1]])
                batch_min = float(dists[positions].min())
                if batch_min < threshold:
                    threshold = batch_min
        i = hi
    return examined, threshold
