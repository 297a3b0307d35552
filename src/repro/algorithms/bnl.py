"""Block Nested Loops (BNL) skyline algorithm [Borzsonyi et al., ICDE'01].

BNL keeps a window of incomparable points and streams the input past
it.  The original algorithm spills to disk when the window overflows;
an in-memory reproduction only needs the window logic, which is
retained faithfully: points dominated by a window point are dropped,
window points dominated by the incoming point are evicted, and
incomparable points join the window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.subspace import full_space, normalize_subspace

__all__ = ["block_nested_loops"]


def block_nested_loops(
    points: PointSet,
    subspace: Sequence[int] | None = None,
    stats: dict | None = None,
) -> PointSet:
    """Return the skyline of ``points`` on ``subspace``.

    When a ``stats`` dict is supplied, the number of pairwise dominance
    comparisons is accumulated under ``stats["comparisons"]`` — the
    machine-independent work measure the benchmarks report alongside
    wall-clock time.
    """
    d = points.dimensionality
    cols = list(full_space(d) if subspace is None else normalize_subspace(subspace, d))
    values = points.values[:, cols]
    n = values.shape[0]
    window: list[int] = []  # indices into `points`
    window_block = np.empty_like(values)
    count = 0
    comparisons = 0
    for i in range(n):
        row = values[i]
        block = window_block[:count]
        comparisons += 2 * count  # dominated-by test + eviction test
        if count and np.any(np.all(block <= row, axis=1) & np.any(block < row, axis=1)):
            continue
        if count:
            evict = np.all(row <= block, axis=1) & np.any(row < block, axis=1)
            if np.any(evict):
                keep = ~evict
                kept = int(np.count_nonzero(keep))
                window_block[:kept] = block[keep]
                window = [w for w, k in zip(window, keep) if k]
                count = kept
        window_block[count] = row
        window.append(i)
        count += 1
    if stats is not None:
        stats["comparisons"] = stats.get("comparisons", 0) + comparisons
    return points.take(window)
