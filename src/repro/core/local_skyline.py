"""Algorithm 1 — threshold-based local subspace skyline computation.

The store is scanned in ascending ``f(p)`` order, the threshold lowered
to ``min(threshold, dist_U(p))`` by every skyline point found, and the
scan terminates as soon as the next ``f(p)`` exceeds the threshold — by
Observation 5 no later point can be a skyline point.

It runs as two passes.  :func:`_stop_point` finds where the scan stops
and its final threshold from ``f``, ``dist_U`` and ``t0`` alone: every
row examined lowers the threshold exactly as far as the skyline point
that dominates it would.  The examined rows are then cut at that final
threshold ``t`` on U's own minimum ``g_U(p) = min_{i in U} p[i]``
(Observation 5 with U in place of D), and the skyline of the rows kept
is one call of the skyline filter
(:func:`repro.core.dominance._skyline_filter`) in its dominance form —
the kernel Section 5.3 pre-processing runs in its ext-dominance form.

The cut makes a local result exactly ``SKY_U(store) ∩ {g_U <= t}``, in
store order: a row with ``g_U <= t`` has ``f <= t`` and was examined,
and whatever dominates it has ``g_U <= t`` too.  ``t`` is ``dist_U`` of
a real point (an examined row, or the one that set ``t0`` upstream), and
that point is below every queried coordinate of a cut row, so no cut row
is in the answer.  The paper's local result is the skyline of the whole
examined prefix; the two differ only in rows the received threshold
alone beats.  ``threshold`` and ``examined`` are those of the paper's
scan; ``comparisons`` counts the pairs the filter tested on the kept
rows.  ``docs/ALGORITHMS.md`` has the proof that both passes return
what the scan testing dominance row by row returns, cut the same way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import _skyline_filter
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
        :meth:`replay` and :class:`repro.p2p.network.ScanMemo`.
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
        duration: float,
    ) -> "SkylineComputation":
        """Reconstruct a cached scan outcome from its store positions.

        The rebuilt result takes its coordinates, ids and ``f`` values
        from the (shared, immutable) store itself, so it is
        byte-identical to the original computation's result; the work
        counters and the duration are replayed verbatim, keeping
        serial-vs-parallel metric totals and the model clocks exact
        even on cache hits.
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
    ``f`` (see :func:`repro.core.mapping.can_prune`).  The same holds
    for the cut on ``min_{i in U} p[i]``: a row equal to the final
    threshold there stays.
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    # The scan never reads past the last f(p) <= t, so only that prefix
    # is projected.
    proj, dists = store.projection(cols, rows=store.prefix(initial_threshold))
    examined, threshold = _stop_point(store.f, dists, initial_threshold)
    # Observation 5 on U's own minimum: a row whose every queried
    # coordinate exceeds the final threshold is beaten by the point that
    # set it, and so is everything it dominates; ties stay.
    kept = np.flatnonzero(proj[:examined].min(axis=1) <= threshold)
    positions, comparisons = _skyline_filter(proj[kept], ext=False)
    positions = kept[positions]
    result = SortedByF(store.points.take(positions), store.f[positions])
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=comparisons,
        duration=time.perf_counter() - started,
        input_size=len(store),
        positions=positions,
    )


#: Rows a scan examines between two looks at its threshold.  A scan may
#: stop only at a multiple of it (or where ``f`` passes the threshold
#: inside a chunk), so it fixes ``examined`` — the work clock of Figures
#: 3(f) and 4(b) — at the value every recorded count was taken at.  It
#: sizes no dominance test: the skyline of the examined prefix is one
#: filter call.  A test or a sweep patches the module attribute; every
#: scan reads it when it runs.
_SCAN_CHUNK = 64


def _stop_point(f: np.ndarray, dists: np.ndarray, threshold: float) -> tuple[int, float]:
    """``(examined, threshold)`` of a threshold scan over rows in
    ascending ``f``, with no dominance test.

    ``dists`` is ``dist_U`` per row (at least ``f``) and may cover only
    a prefix of ``f``; the scan never reads beyond it.  The scan looks
    at its threshold once per ``_SCAN_CHUNK`` rows: a chunk examines its
    rows up to the last ``f <= t`` for the ``t`` it started with, and
    the scan stops after a chunk it did not finish.  After each chunk
    the threshold is ``min(t0, dist_U over every row examined so far)``:
    a row whose dominator is examined has a ``dist_U`` no smaller than
    the dominator's, and a row examined past a tighter mid-chunk
    threshold has ``dist_U >= f > t`` (docs/ALGORITHMS.md).  So where a
    chunk ends depends only on the threshold at its start, and both
    numbers are those of the scan that tests dominance row by row.
    """
    threshold = float(threshold)
    n = len(dists)
    if n == 0:
        return 0, threshold
    starts = np.arange(0, n, _SCAN_CHUNK)
    ends = np.minimum(starts + _SCAN_CHUNK, n)
    # The threshold each chunk starts with, were every earlier one whole.
    lowest = np.minimum.accumulate(np.minimum.reduceat(dists, starts))
    start_threshold = np.minimum(threshold, np.concatenate(([np.inf], lowest[:-1])))
    short = np.flatnonzero(f[ends - 1] > start_threshold)
    if not short.size:
        return n, min(threshold, float(lowest[-1]))
    c = int(short[0])
    t = float(start_threshold[c])
    examined = int(starts[c]) + int(np.searchsorted(f[starts[c] : ends[c]], t, side="right"))
    if examined > starts[c]:
        t = min(t, float(dists[starts[c] : examined].min()))
    return examined, t
