"""A main-memory R-tree.

Section 5.2.1 of the paper speeds up the dominance test by issuing
window queries "in a way similar to traditional window queries [14]
using a main-memory R-tree with dimensionality equal to the query
dimensionality".  This module provides that substrate: a classic
Guttman R-tree (quadratic split) over points, with

* STR (sort-tile-recursive) bulk loading, which the BBS scan
  substrate traverses best-first (:meth:`RTree.root`),
* dynamic ``insert``, and
* axis-aligned ``window`` queries.

The skyline loops test dominance against a vectorized block of
candidates (:class:`repro.core.indexes.BlockDominanceIndex`), not with
window queries over this tree.

Points are stored in leaves as ``(point_id, coords)`` entries; inner
nodes keep minimum bounding rectangles (MBRs) of their children.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = ["RTree"]


class _Entry:
    """A node entry: an MBR plus either a child node or a point payload.

    ``min_id`` is an optional subtree annotation (smallest ``point_id``
    beneath the entry) filled in by :meth:`RTree.annotate_min_ids` after
    a bulk load.  When the ids are store positions of an f-sorted store,
    ``min_id`` is a lower bound on ``f`` over the subtree, which lets a
    best-first scan skip whole subtrees past a threshold prefix.  It is
    ``None`` on dynamically inserted entries (an insert does not
    maintain it) and consumers must treat ``None`` as "no bound".
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
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: list[_Entry] = []
        self.parent: "_Node | None" = None

    def mbr(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.minimum.reduce([e.lo for e in self.entries])
        hi = np.maximum.reduce([e.hi for e in self.entries])
        return lo, hi


def _area(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.prod(hi - lo))


def _enlargement(entry: _Entry, lo: np.ndarray, hi: np.ndarray) -> float:
    new_lo = np.minimum(entry.lo, lo)
    new_hi = np.maximum(entry.hi, hi)
    return _area(new_lo, new_hi) - _area(entry.lo, entry.hi)


class RTree:
    """Point R-tree with quadratic split and STR bulk loading.

    Parameters
    ----------
    dimensionality:
        Number of coordinates per point.
    max_entries:
        Node capacity ``M`` (default 16).
    min_entries:
        Minimum fill ``m`` (default ``ceil(M * 0.4)``).
    """

    def __init__(self, dimensionality: int, max_entries: int = 16, min_entries: int | None = None):
        if dimensionality <= 0:
            raise ValueError("dimensionality must be positive")
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.dimensionality = dimensionality
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else math.ceil(max_entries * 0.4)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._size = 0

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
        locality, producing a much better tree than repeated insertion.
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
        tree._size = n
        return tree

    def _str_pack(self, entries: list[_Entry], leaf: bool) -> list[_Node]:
        """Pack entries into nodes by recursive sort-tile slicing."""
        groups = self._str_slices(entries, axis=0)
        nodes = []
        for group in groups:
            node = _Node(leaf=leaf)
            node.entries = group
            for e in group:
                if e.child is not None:
                    e.child.parent = node
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

        One bottom-up pass, intended right after :meth:`bulk_load` while
        the tree is static.  A dynamic ``insert`` does not maintain the
        annotation; consumers see ``min_id is None`` on any
        entry touched afterwards and must fall back to "no bound".
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

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _Node) -> Iterator[tuple[int, np.ndarray]]:
        for entry in node.entries:
            if node.leaf:
                yield entry.point_id, entry.lo
            else:
                yield from self._iter_node(entry.child)

    def height(self) -> int:
        """Tree height (a single leaf root has height 1)."""
        h = 1
        node = self._root
        while not node.leaf:
            node = node.entries[0].child
            h += 1
        return h

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, point_id: int, coords: np.ndarray) -> None:
        """Insert a point with the given id."""
        coords = self._check_coords(coords)
        entry = _Entry(coords.copy(), coords.copy(), point_id=int(point_id))
        leaf = self._choose_leaf(self._root, entry)
        leaf.entries.append(entry)
        self._size += 1
        self._handle_overflow(leaf)
        self._adjust_upwards(leaf)

    def _check_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.dimensionality,):
            raise ValueError(
                f"expected {self.dimensionality} coordinates, got shape {coords.shape}"
            )
        return coords

    def _choose_leaf(self, node: _Node, entry: _Entry) -> _Node:
        while not node.leaf:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e, entry.lo, entry.hi), _area(e.lo, e.hi)),
            )
            node = best.child
        return node

    def _handle_overflow(self, node: _Node) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                for child in (node, sibling):
                    lo, hi = child.mbr()
                    new_root.entries.append(_Entry(lo, hi, child=child))
                    child.parent = new_root
                self._root = new_root
                return
            lo, hi = sibling.mbr()
            parent.entries.append(_Entry(lo, hi, child=sibling))
            sibling.parent = parent
            self._refresh_entry(parent, node)
            node = parent

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: move roughly half the entries to a new node."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while remaining:
            # Force assignment if one group must absorb the rest to meet m.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            lo_a = np.minimum.reduce([e.lo for e in group_a])
            hi_a = np.maximum.reduce([e.hi for e in group_a])
            lo_b = np.minimum.reduce([e.lo for e in group_b])
            hi_b = np.maximum.reduce([e.hi for e in group_b])
            area_a = _area(lo_a, hi_a)
            area_b = _area(lo_b, hi_b)
            best_idx = -1
            best_diff = -1.0
            best_growths = (0.0, 0.0)
            for i, e in enumerate(remaining):
                grow_a = _area(np.minimum(lo_a, e.lo), np.maximum(hi_a, e.hi)) - area_a
                grow_b = _area(np.minimum(lo_b, e.lo), np.maximum(hi_b, e.hi)) - area_b
                diff = abs(grow_a - grow_b)
                if diff > best_diff:
                    best_diff = diff
                    best_idx = i
                    best_growths = (grow_a, grow_b)
            entry = remaining.pop(best_idx)
            grow_a, grow_b = best_growths
            if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
                group_a.append(entry)
            else:
                group_b.append(entry)
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not node.leaf:
            for e in group_b:
                e.child.parent = sibling
        return sibling

    @staticmethod
    def _pick_seeds(entries: list[_Entry]) -> tuple[int, int]:
        worst = -1.0
        pair = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                lo = np.minimum(entries[i].lo, entries[j].lo)
                hi = np.maximum(entries[i].hi, entries[j].hi)
                waste = _area(lo, hi) - _area(entries[i].lo, entries[i].hi) - _area(
                    entries[j].lo, entries[j].hi
                )
                if waste > worst:
                    worst = waste
                    pair = (i, j)
        return pair

    def _refresh_entry(self, parent: _Node, child: _Node) -> None:
        for entry in parent.entries:
            if entry.child is child:
                entry.lo, entry.hi = child.mbr()
                # The subtree changed; its min-id bound may no longer
                # hold (an inserted point can carry a smaller id), so
                # drop it rather than risk an unsound prune.
                entry.min_id = None
                return
        raise RuntimeError("child entry missing from parent")  # pragma: no cover

    def _adjust_upwards(self, node: _Node) -> None:
        while node.parent is not None:
            self._refresh_entry(node.parent, node)
            node = node.parent

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def window(self, lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Return all ``(id, coords)`` with ``lo <= coords <= hi``."""
        lo = self._check_coords(lo)
        hi = self._check_coords(hi)
        out: list[tuple[int, np.ndarray]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if np.any(e.hi < lo) or np.any(e.lo > hi):
                    continue
                if node.leaf:
                    out.append((e.point_id, e.lo))
                else:
                    stack.append(e.child)
        return out
