"""Intra-query scan partitioning (Ciaccia & Martinenghi).

One Algorithm-1 threshold scan is split into ``parts`` disjoint slices
of the store, each slice scanned independently (possibly on different
workers — :meth:`repro.parallel.engine.ParallelEngine.run_partitioned_scan`),
and the per-slice local skylines merged back through the incremental
Algorithm-2 merger.  Exactness does not depend on how the store is
split: a slice scan with the query's initial threshold returns the
exact skyline of ``slice ∩ {f <= t}``, every global skyline point
survives the scan of whichever slice holds it, and the merge removes
exactly the cross-slice dominated ones — so the surviving *set* equals
the serial scan's, and re-sorting the surviving store positions
ascending reproduces the serial result byte for byte (the serial scan
emits survivors in ascending position order).

The *partitioner* decides the split and only affects work, not results:

* ``range``   — contiguous f-order chunks (the trivial split, the pool
  fan-out's default and what ``angular`` degrades to on 1-d
  projections);
* ``angular`` — equi-depth cuts on the first hyperspherical angle,
  which slices anti-correlated skylines evenly.  Dominance mostly
  happens between points of similar direction, so direction-coherent
  slices keep candidate blocks small and comparisons drop versus the
  serial scan even before any parallel speedup.

Slices are always scanned by the *sorted* substrate: a per-slice R-tree
or re-sort costs more than the slice scan saves (the measured matrix is
in docs/PERFORMANCE.md), so :func:`resolve_scan_cell` rejects a
partitioner combined with ``bbs`` or ``salsa``.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Sequence

import numpy as np

from ..core.indexes import BlockDominanceIndex
from ..core.local_skyline import (
    SkylineComputation,
    _chunked_scan,
    resolve_scan_chunk,
)
from ..core.merging import IncrementalMerger
from ..core.store import SortedByF
from ..core.substrates import resolve_scan_substrate

__all__ = [
    "PARTITION_ENV",
    "PARTITION_PARTS_ENV",
    "PARTITIONERS",
    "SCAN_CELLS",
    "merge_partition_scans",
    "partition_positions",
    "partition_skew",
    "partitioned_subspace_skyline",
    "resolve_partition_parts",
    "resolve_partitioner",
    "resolve_scan_cell",
    "scan_partition",
]

#: ``REPRO_PARTITION`` selects the intra-query partitioner globally
#: (``none``/``range``/``angular``); arguments win over it.
PARTITION_ENV = "REPRO_PARTITION"

#: ``REPRO_PARTITION_PARTS`` overrides the number of slices (defaults
#: to the scanning engine's worker count, or 4 in-process).
PARTITION_PARTS_ENV = "REPRO_PARTITION_PARTS"

PARTITIONERS = ("none", "range", "angular")

#: The ``substrate/partitioner`` cells a scan can run as.
SCAN_CELLS = ("sorted/none", "bbs/none", "salsa/none", "sorted/range", "sorted/angular")

_DEFAULT_PARTS = 4


def resolve_partitioner(partitioner: str | None = None) -> str:
    """The effective partitioner: argument, env var or ``none``."""
    if partitioner is None:
        partitioner = os.environ.get(PARTITION_ENV) or "none"
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; expected one of {PARTITIONERS}"
        )
    return partitioner


def resolve_scan_cell(
    substrate: str | None = None, partitioner: str | None = None
) -> tuple[str, str]:
    """The effective ``(substrate, partitioner)``, each from its argument
    or env var, checked to be one of :data:`SCAN_CELLS`."""
    substrate = resolve_scan_substrate(substrate)
    partitioner = resolve_partitioner(partitioner)
    if f"{substrate}/{partitioner}" not in SCAN_CELLS:
        raise ValueError(
            f"no scan cell {substrate}/{partitioner}: partitioners slice the "
            f"sorted scan only; expected one of {SCAN_CELLS}"
        )
    return substrate, partitioner


def resolve_partition_parts(parts: int | None = None, default: int | None = None) -> int:
    """The effective slice count: argument, env var or ``default``."""
    if parts is None:
        raw = os.environ.get(PARTITION_PARTS_ENV)
        parts = int(raw) if raw else (default or _DEFAULT_PARTS)
    if parts <= 0:
        raise ValueError(f"partition parts must be positive, got {parts}")
    return parts


def partition_positions(
    kind: str, proj: np.ndarray, parts: int
) -> list[np.ndarray]:
    """Split ``range(len(proj))`` into at most ``parts`` position arrays.

    Every returned array is sorted ascending and the arrays are disjoint
    and cover all positions, so each slice of an f-sorted store stays
    f-sorted and the union of slice scans sees every point exactly once.
    Empty slices are dropped (quantile cuts can collapse on duplicate
    values), so callers must not assume exactly ``parts`` entries.
    """
    n = proj.shape[0]
    if parts <= 1 or n == 0:
        return [np.arange(n, dtype=np.int64)] if n else []
    if kind == "range":
        return [
            chunk.astype(np.int64)
            for chunk in np.array_split(np.arange(n), parts)
            if chunk.size
        ]
    if kind == "angular":
        return _angular_positions(proj, parts)
    raise ValueError(f"unknown partitioner {kind!r}; expected one of {PARTITIONERS[1:]}")


def _angular_positions(proj: np.ndarray, parts: int) -> list[np.ndarray]:
    """Equi-depth slices of the first hyperspherical angle.

    ``atan2(|p[1:]|, p[0])`` maps each point to its angle off the first
    axis; quantile cuts make the slices equi-depth by construction.
    One-dimensional projections have no angle and fall back to range
    chunks.
    """
    n, k = proj.shape
    if k < 2:
        return partition_positions("range", proj, parts)
    angles = np.arctan2(np.linalg.norm(proj[:, 1:], axis=1), proj[:, 0])
    cuts = np.quantile(angles, np.linspace(0.0, 1.0, parts + 1)[1:-1])
    part_of = np.searchsorted(cuts, angles, side="right")
    slices = [np.nonzero(part_of == i)[0].astype(np.int64) for i in range(parts)]
    return [s for s in slices if s.size]


def partition_skew(slices: Sequence[np.ndarray]) -> dict[str, float]:
    """Size-balance summary of a split: ``max/mean`` near 1 is balanced."""
    sizes = [int(s.size) for s in slices] or [0]
    mean = sum(sizes) / len(sizes)
    return {
        "parts": len(sizes),
        "max_size": max(sizes),
        "mean_size": mean,
        "skew": (max(sizes) / mean) if mean else 1.0,
    }


def scan_partition(
    store: SortedByF,
    subspace: Sequence[int],
    positions: np.ndarray,
    initial_threshold: float = math.inf,
    strict: bool = False,
    scan_chunk: int | None = None,
) -> SkylineComputation:
    """Algorithm 1 (the sorted scan) over one slice of the store.

    ``positions`` must be ascending store positions, so the slice is
    itself f-sorted and the scan's early termination stays valid.  The
    returned computation reports *global* store positions, ready for
    :func:`merge_partition_scans`.
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    positions = np.asarray(positions, dtype=np.int64)
    # Contiguous copies: the slice is scanned chunk by chunk many times
    # against the candidate block, and fancy-indexed views would pay
    # the gather on every chunk.
    sub_proj, sub_dists = store.projection(cols, rows=positions)
    sub_proj = np.ascontiguousarray(sub_proj)
    sub_f = store.f[positions]
    index = BlockDominanceIndex(len(cols), strict=strict)
    # The SFS no-evict fast path needs f to be the minimum over the
    # scanned columns, which holds exactly when the scan covers the
    # full space; slicing does not disturb it (f values ride along).
    examined, threshold = _chunked_scan(
        index, sub_proj, sub_f, sub_dists, float(initial_threshold), strict,
        key_is_scanned_min=len(cols) == store.dimensionality,
        chunk=resolve_scan_chunk(scan_chunk),
    )
    local = np.asarray(index.positions(), dtype=np.int64)
    kept = positions[local] if local.size else np.zeros(0, dtype=np.int64)
    result = SortedByF(
        store.points.take(kept),
        store.f[kept] if kept.size else np.zeros(0),
    )
    return SkylineComputation(
        result=result,
        threshold=threshold,
        examined=examined,
        comparisons=index.comparisons,
        duration=time.perf_counter() - started,
        input_size=int(positions.size),
        positions=kept,
    )


def merge_partition_scans(
    store: SortedByF,
    subspace: Sequence[int],
    scans: Sequence[SkylineComputation],
    initial_threshold: float = math.inf,
    strict: bool = False,
    scan_chunk: int | None = None,
    input_size: int | None = None,
    started: float | None = None,
) -> SkylineComputation:
    """Merge per-slice scans into one serial-identical computation.

    The incremental merger removes cross-slice dominated survivors;
    its surviving origins are mapped back to global store positions
    and re-sorted ascending, which reproduces the serial scan's result
    (and its refined threshold — the merge inserts a superset of the
    final result, and an eviction never raises the minimum ``dist_U``).
    ``examined`` sums the points the slice scans actually read;
    ``comparisons`` adds the merge's dominance work on top of the
    slices' so the counter stays an honest total.
    """
    started = time.perf_counter() if started is None else started
    cols = tuple(subspace)
    merger = IncrementalMerger(
        cols,
        dimensionality=store.dimensionality,
        initial_threshold=float(initial_threshold),
        strict=strict,
        scan_chunk=scan_chunk,
    )
    for scan in scans:
        merger.feed(scan.result)
    kept = [
        int(scans[run].positions[row])
        for run, row in merger.survivor_origins()
    ]
    positions = np.sort(np.asarray(kept, dtype=np.int64))
    result = SortedByF(
        store.points.take(positions),
        store.f[positions] if positions.size else np.zeros(0),
    )
    return SkylineComputation(
        result=result,
        threshold=merger.threshold,
        examined=sum(scan.examined for scan in scans),
        comparisons=sum(scan.comparisons for scan in scans) + merger.comparisons,
        duration=time.perf_counter() - started,
        input_size=len(store) if input_size is None else input_size,
        positions=positions,
    )


def partitioned_subspace_skyline(
    store: SortedByF,
    subspace: Sequence[int],
    initial_threshold: float = math.inf,
    strict: bool = False,
    partitioner: str = "range",
    parts: int | None = None,
    scan_chunk: int | None = None,
    runner: Callable[[list[np.ndarray]], list[SkylineComputation]] | None = None,
) -> SkylineComputation:
    """Algorithm 1 split across slices, merged back serial-identically.

    ``runner`` executes the slice scans — in-process sequentially when
    ``None`` (the comparison savings of an angular split apply even
    without parallel hardware), or fanned out over the pool by
    :meth:`repro.parallel.engine.ParallelEngine.run_partitioned_scan`.
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    threshold = float(initial_threshold)
    # Only the f <= t prefix can contribute; points past it would never
    # be examined by any slice scan, so keep them out of the balance.
    proj, _dists = store.projection(cols, rows=store.prefix(threshold))
    slices = partition_positions(partitioner, proj, resolve_partition_parts(parts))
    if runner is None:
        scans = [
            scan_partition(
                store, cols, positions,
                initial_threshold=threshold, strict=strict, scan_chunk=scan_chunk,
            )
            for positions in slices
        ]
    else:
        scans = runner(slices)
    return merge_partition_scans(
        store, cols, scans,
        initial_threshold=threshold, strict=strict, scan_chunk=scan_chunk,
        input_size=len(store), started=started,
    )
