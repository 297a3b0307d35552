"""Branch-and-Bound Skyline (BBS) [Papadias et al., TODS 2005].

The progressive, I/O-optimal skyline algorithm the paper cites [14] for
its window-query dominance test.  BBS traverses an R-tree best-first by
*mindist* (the L1 distance of an entry's lower corner from the origin):

* pop the entry with the smallest mindist;
* if its lower corner is dominated by a found skyline point, prune the
  whole subtree — nothing inside can be a skyline point;
* otherwise expand it (inner node) or report it (point): because
  entries are popped in mindist order, a reported point can never be
  dominated by anything still in the heap.

Points are emitted progressively in mindist order — handy for top-k
style consumption; :func:`branch_and_bound_skyline` materializes them.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.dominance import any_dominator, undominated_among
from ..core.subspace import full_space, normalize_subspace
from ..index.rtree import RTree, _Node

__all__ = ["branch_and_bound_skyline", "bbs_iter"]


def branch_and_bound_skyline(
    points: PointSet,
    subspace: Sequence[int] | None = None,
    strict: bool = False,
    max_entries: int = 16,
) -> PointSet:
    """Return the skyline of ``points`` on ``subspace`` via BBS.

    The R-tree is bulk-loaded over the projected coordinates (the paper
    sizes its dominance R-tree by the *query* dimensionality for the
    same reason: lower-dimensional trees prune better).
    """
    d = points.dimensionality
    cols = list(full_space(d) if subspace is None else normalize_subspace(subspace, d))
    kept = [
        i for i, _coords in bbs_iter(points, cols, strict=strict, max_entries=max_entries)
    ]
    kept.sort()
    return points.take(kept)


def bbs_iter(
    points: PointSet,
    cols: Sequence[int],
    strict: bool = False,
    max_entries: int = 16,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(position, projected coords)`` of skyline points
    progressively, in ascending mindist order."""
    proj = points.values[:, list(cols)]
    n = proj.shape[0]
    if n == 0:
        return
    tree = RTree.bulk_load(proj, ids=range(n), max_entries=max_entries)
    k = len(cols)

    skyline_block = np.empty((64, k), dtype=np.float64)
    count = 0

    # Heap entries: (mindist, seq, kind, payload); kind 0 = node, 1 = point.
    heap: list[tuple[float, int, int, object]] = []
    seq = 0

    def push_node(node: _Node) -> None:
        nonlocal seq
        for entry in node.entries:
            mindist = float(entry.lo.sum())
            if node.leaf:
                heapq.heappush(heap, (mindist, seq, 1, (entry.point_id, entry.lo)))
            else:
                heapq.heappush(heap, (mindist, seq, 0, (entry.lo, entry.child)))
            seq += 1

    # Points are popped in ascending mindist (L1) order, so a reported
    # point can never be dominated by anything still queued — except
    # that a dominance margin can underflow the float sum and produce an
    # exact mindist *tie* between dominator and dominated.  Points are
    # therefore buffered per mindist value and resolved pairwise before
    # being reported (cf. repro.core.dominance.sum_sorted_skyline_positions).
    pending: list[tuple[int, np.ndarray]] = []
    pending_key = 0.0

    def flush():
        nonlocal count, skyline_block
        if not pending:
            return
        rows = np.vstack([coords for _pid, coords in pending])
        winners = [
            entry for entry, ok in zip(pending, undominated_among(rows, strict)) if ok
        ]
        pending.clear()
        for point_id, coords in winners:
            if count == skyline_block.shape[0]:
                skyline_block = np.concatenate(
                    [skyline_block, np.empty_like(skyline_block)], axis=0
                )
            skyline_block[count] = coords
            count += 1
        return winners

    push_node(tree.root())
    while heap:
        mindist, _seq, kind, payload = heapq.heappop(heap)
        if pending and mindist > pending_key:
            yield from flush() or ()
        if kind == 0:
            lo, child = payload  # type: ignore[misc]
            if count and any_dominator(skyline_block[:count], lo, strict=strict):
                continue  # the whole subtree is dominated
            push_node(child)  # type: ignore[arg-type]
        else:
            point_id, coords = payload  # type: ignore[misc]
            if count and any_dominator(skyline_block[:count], coords, strict=strict):
                continue
            pending.append((int(point_id), coords))
            pending_key = mindist
    yield from flush() or ()
