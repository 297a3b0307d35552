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

* ``range``   — contiguous f-order chunks (the trivial baseline);
* ``grid``    — median cuts on the leading subspace dimensions,
  cells greedily packed into balanced parts;
* ``angular`` — equi-depth cuts on the first hyperspherical angle,
  which slices anti-correlated skylines evenly where a grid
  concentrates them into few cells.

Grid and angular also *reduce total work*: dominance mostly happens
between points of similar direction, so direction- or cell-coherent
slices keep candidate blocks small and comparisons drop versus the
serial scan even before any parallel speedup.
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
from ..core.substrates import (
    bbs_subspace_skyline,
    resolve_scan_substrate,
    salsa_subspace_skyline,
)

__all__ = [
    "PARTITION_ENV",
    "PARTITION_PARTS_ENV",
    "PARTITIONERS",
    "merge_partition_scans",
    "partition_positions",
    "partition_skew",
    "partitioned_subspace_skyline",
    "resolve_partition_parts",
    "resolve_partitioner",
    "scan_partition",
]

#: ``REPRO_PARTITION`` selects the intra-query partitioner globally
#: (``none``/``range``/``grid``/``angular``); arguments win over it.
PARTITION_ENV = "REPRO_PARTITION"

#: ``REPRO_PARTITION_PARTS`` overrides the number of slices (defaults
#: to the scanning engine's worker count, or 4 in-process).
PARTITION_PARTS_ENV = "REPRO_PARTITION_PARTS"

PARTITIONERS = ("none", "range", "grid", "angular")

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
    if kind == "grid":
        return _grid_positions(proj, parts)
    if kind == "angular":
        return _angular_positions(proj, parts)
    raise ValueError(f"unknown partitioner {kind!r}; expected one of {PARTITIONERS[1:]}")


def _grid_positions(proj: np.ndarray, parts: int) -> list[np.ndarray]:
    """Median grid cells on the leading dimensions, packed into parts.

    ``ceil(log2(parts))`` median cuts give at least ``parts`` cells;
    the non-empty cells are then packed largest-first onto the least
    loaded part (LPT scheduling), which keeps the size skew small even
    when the medians split unevenly on duplicated values.
    """
    n, k = proj.shape
    cuts = max(1, math.ceil(math.log2(parts)))
    cell = np.zeros(n, dtype=np.int64)
    for j in range(cuts):
        column = proj[:, j % k]
        cell = cell * 2 + (column > np.median(column)).astype(np.int64)
    cells = [np.nonzero(cell == c)[0] for c in range(1 << cuts)]
    cells = [c for c in cells if c.size]
    packed: list[list[np.ndarray]] = [[] for _ in range(parts)]
    sizes = [0] * parts
    for c in sorted(cells, key=len, reverse=True):
        target = sizes.index(min(sizes))
        packed[target].append(c)
        sizes[target] += c.size
    return [
        np.sort(np.concatenate(group)).astype(np.int64)
        for group in packed
        if group
    ]


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
    substrate: str = "sorted",
    scan_chunk: int | None = None,
) -> SkylineComputation:
    """Algorithm 1 over one slice of the store.

    ``positions`` must be ascending store positions, so the slice is
    itself f-sorted and the scan's early termination stays valid.  The
    returned computation reports *global* store positions, ready for
    :func:`merge_partition_scans`.
    """
    substrate = resolve_scan_substrate(substrate)
    if substrate == "bbs":
        return bbs_subspace_skyline(
            store,
            subspace,
            initial_threshold=initial_threshold,
            strict=strict,
            positions=positions,
        )
    if substrate == "salsa":
        # The slice re-sorts by (minC, sum) and keeps its own
        # stop-point; the merge below re-validates across slices.
        return salsa_subspace_skyline(
            store,
            subspace,
            initial_threshold=initial_threshold,
            strict=strict,
            positions=positions,
            scan_chunk=scan_chunk,
        )
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
    full_space = len(cols) == store.dimensionality
    examined, threshold = _chunked_scan(
        index, sub_proj, sub_f, sub_dists, float(initial_threshold), strict,
        full_space=full_space, chunk=resolve_scan_chunk(scan_chunk),
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
    partitioner: str = "grid",
    parts: int | None = None,
    substrate: str = "sorted",
    scan_chunk: int | None = None,
    runner: Callable[[list[np.ndarray]], list[SkylineComputation]] | None = None,
) -> SkylineComputation:
    """Algorithm 1 split across slices, merged back serial-identically.

    ``runner`` executes the slice scans — in-process sequentially when
    ``None`` (the comparison-count savings of grid/angular splits apply
    even without parallel hardware), or fanned out by the engine
    (:meth:`repro.parallel.engine.ParallelEngine.run_partitioned_scan`).
    """
    started = time.perf_counter()
    cols = tuple(subspace)
    threshold = float(initial_threshold)
    n = len(store)
    # Only the f <= t prefix can contribute; points past it would never
    # be examined by any slice scan, so keep them out of the balance.
    proj, _dists = store.projection(cols, rows=store.prefix(threshold))
    slices = partition_positions(
        resolve_partitioner(partitioner) if partitioner != "none" else "range",
        proj,
        resolve_partition_parts(parts),
    )
    if runner is None:
        scans = [
            scan_partition(
                store, cols, positions,
                initial_threshold=threshold, strict=strict,
                substrate=substrate, scan_chunk=scan_chunk,
            )
            for positions in slices
        ]
    else:
        scans = runner(slices)
    return merge_partition_scans(
        store, cols, scans,
        initial_threshold=threshold, strict=strict, scan_chunk=scan_chunk,
        input_size=n, started=started,
    )
