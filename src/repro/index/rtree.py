"""A main-memory, bulk-loaded R-tree.

Section 5.2.1 of the paper speeds up the dominance test by issuing
window queries "in a way similar to traditional window queries [14]
using a main-memory R-tree with dimensionality equal to the query
dimensionality".  The skyline loops here test dominance against a
vectorized block of candidates instead
(:class:`repro.core.indexes.BlockDominanceIndex`); the tree is what the
two BBS traversals expand best-first from :meth:`RTree.root` — the
``bbs`` scan (:func:`repro.core.substrates.bbs_subspace_skyline`) and
the progressive skyline (:func:`repro.algorithms.bbs.bbs_iter`).  Both
build it once over static points, so it is built one way only: STR
(sort-tile-recursive) bulk loading.

Points are stored in leaves as ``(point_id, coords)`` entries; inner
nodes keep minimum bounding rectangles (MBRs) of their children.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["RTree"]


class _Entry:
    """A node entry: an MBR plus either a child node or a point payload.

    ``min_id`` is an optional subtree annotation (smallest ``point_id``
    beneath the entry) filled in by :meth:`RTree.annotate_min_ids` after
    a bulk load.  When the ids are store positions of an f-sorted store,
    ``min_id`` is a lower bound on ``f`` over the subtree, which lets a
    best-first scan skip whole subtrees past a threshold prefix.  It is
    ``None`` until annotated, and consumers must treat ``None`` as "no
    bound".
    """

    __slots__ = ("lo", "hi", "child", "point_id", "min_id")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        child: "_Node | None" = None,
        point_id: int | None = None,
    ):
        self.lo = lo
        self.hi = hi
        self.child = child
        self.point_id = point_id
        self.min_id: int | None = None


class _Node:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: list[_Entry] = []

    def mbr(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.minimum.reduce([e.lo for e in self.entries])
        hi = np.maximum.reduce([e.hi for e in self.entries])
        return lo, hi


class RTree:
    """Point R-tree built by STR bulk loading (:meth:`bulk_load`).

    Parameters
    ----------
    dimensionality:
        Number of coordinates per point.
    max_entries:
        Node capacity ``M`` (default 16).
    """

    def __init__(self, dimensionality: int, max_entries: int = 16):
        if dimensionality <= 0:
            raise ValueError("dimensionality must be positive")
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.dimensionality = dimensionality
        self.max_entries = max_entries
        self._root = _Node(leaf=True)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        values: np.ndarray,
        ids: Sequence[int] | None = None,
        max_entries: int = 16,
    ) -> "RTree":
        """Build an R-tree from ``(n, d)`` points via sort-tile-recursive.

        STR packs points into fully-filled leaves with good spatial
        locality.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("expected a (n, d) array")
        n, d = values.shape
        tree = cls(d if d else 1, max_entries=max_entries)
        if n == 0:
            return tree
        if ids is None:
            id_arr = np.arange(n, dtype=np.int64)
        else:
            id_arr = np.asarray(ids, dtype=np.int64)
        entries = [
            _Entry(values[i].copy(), values[i].copy(), point_id=int(id_arr[i]))
            for i in range(n)
        ]
        level = tree._str_pack(entries, leaf=True)
        while len(level) > 1:
            upper = [
                _Entry(*node.mbr(), child=node)
                for node in level
            ]
            level = tree._str_pack_nodes(upper)
        tree._root = level[0]
        return tree

    def _str_pack(self, entries: list[_Entry], leaf: bool) -> list[_Node]:
        """Pack entries into nodes by recursive sort-tile slicing."""
        groups = self._str_slices(entries, axis=0)
        nodes = []
        for group in groups:
            node = _Node(leaf=leaf)
            node.entries = group
            nodes.append(node)
        return nodes

    def _str_pack_nodes(self, entries: list[_Entry]) -> list[_Node]:
        return self._str_pack(entries, leaf=False)

    def _str_slices(self, entries: list[_Entry], axis: int) -> list[list[_Entry]]:
        capacity = self.max_entries
        n = len(entries)
        if n <= capacity:
            return [entries]
        entries = sorted(entries, key=lambda e: float(e.lo[axis]))
        leaf_count = math.ceil(n / capacity)
        if axis + 1 < self.dimensionality:
            slice_count = math.ceil(leaf_count ** (1.0 / (self.dimensionality - axis)))
            slice_size = math.ceil(n / slice_count) if slice_count else n
            groups: list[list[_Entry]] = []
            for start in range(0, n, slice_size):
                chunk = entries[start : start + slice_size]
                groups.extend(self._str_slices(chunk, axis + 1))
            return groups
        return [entries[start : start + capacity] for start in range(0, n, capacity)]

    def root(self) -> _Node:
        """The root node, for best-first traversals (e.g. BBS scans)."""
        return self._root

    def annotate_min_ids(self) -> None:
        """Fill every entry's ``min_id`` with the smallest id beneath it.

        One bottom-up pass over the (static) tree.
        """
        self._annotate_node(self._root)

    def _annotate_node(self, node: _Node) -> int | None:
        best: int | None = None
        for entry in node.entries:
            if node.leaf:
                entry.min_id = entry.point_id
            else:
                entry.min_id = self._annotate_node(entry.child)
            if entry.min_id is not None and (best is None or entry.min_id < best):
                best = entry.min_id
        return best
