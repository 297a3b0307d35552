"""Pluggable dominance indexes for the skyline loops.

Algorithm 1 repeatedly asks two questions about the set of skyline
candidates found so far:

1. is the next point dominated by any candidate? and
2. which candidates does the next point dominate (to be removed)?

The paper answers them with window queries over a main-memory R-tree
(section 5.2.1).  This module defines that interface plus three
implementations:

* ``ListDominanceIndex``  — straightforward linear scan (the BNL-style
  reference; always correct, used as the oracle in tests);
* ``BlockDominanceIndex`` — vectorized numpy comparisons over a growing
  block (the fast default in a CPython world);
* ``RTreeDominanceIndex`` — the paper-faithful R-tree variant.

All three maintain the running set and an operation counter so callers
can report abstract work alongside wall-clock time.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..index.rtree import RTree
from .dominance import any_dominator, batch_dominated_any, dominated_mask

__all__ = [
    "DominanceIndex",
    "ListDominanceIndex",
    "BlockDominanceIndex",
    "RTreeDominanceIndex",
    "make_index",
    "INDEX_FACTORIES",
]


class DominanceIndex(Protocol):
    """Maintains the current skyline candidates during a scan."""

    comparisons: int

    def __len__(self) -> int: ...

    def is_dominated(self, point: np.ndarray) -> bool:
        """True when an indexed point (ext-)dominates ``point``."""
        ...

    def insert_and_prune(self, position: int, point: np.ndarray) -> None:
        """Insert ``point`` (tagged with its scan ``position``) and remove
        every indexed point it (ext-)dominates."""
        ...

    def positions(self) -> list[int]:
        """Scan positions of the surviving points, in insertion order."""
        ...


class ListDominanceIndex:
    """Linear-scan index; O(n) per operation but zero overhead."""

    def __init__(self, dimensionality: int, strict: bool = False):
        self._strict = strict
        self._points: list[np.ndarray] = []
        self._positions: list[int] = []
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._points)

    def is_dominated(self, point: np.ndarray) -> bool:
        # Count only candidates actually examined: the scan stops at
        # the first dominator, and charging the full candidate set
        # would inflate the abstract-work metric the bench reports.
        examined = 0
        dominated = False
        for candidate in self._points:
            examined += 1
            if self._strict:
                if np.all(candidate < point):
                    dominated = True
                    break
            elif np.all(candidate <= point) and np.any(candidate < point):
                dominated = True
                break
        self.comparisons += examined
        return dominated

    def insert_and_prune(self, position: int, point: np.ndarray) -> None:
        self.comparisons += len(self._points)
        keep_points: list[np.ndarray] = []
        keep_positions: list[int] = []
        for candidate, pos in zip(self._points, self._positions):
            dominated = (
                np.all(point < candidate)
                if self._strict
                else np.all(point <= candidate) and np.any(point < candidate)
            )
            if not dominated:
                keep_points.append(candidate)
                keep_positions.append(pos)
        keep_points.append(np.asarray(point, dtype=np.float64))
        keep_positions.append(position)
        self._points = keep_points
        self._positions = keep_positions

    def positions(self) -> list[int]:
        return list(self._positions)


class BlockDominanceIndex:
    """Vectorized index over a growing numpy block.

    The candidate block doubles on demand so insertion is amortized
    O(1); dominance tests are single vectorized comparisons.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, dimensionality: int, strict: bool = False):
        self._strict = strict
        self._block = np.empty((self._INITIAL_CAPACITY, dimensionality), dtype=np.float64)
        self._positions = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._count = 0
        self.comparisons = 0

    def __len__(self) -> int:
        return self._count

    def is_dominated(self, point: np.ndarray) -> bool:
        if self._count == 0:
            return False
        self.comparisons += self._count
        return any_dominator(self._block[: self._count], point, strict=self._strict)

    def insert_and_prune(self, position: int, point: np.ndarray) -> None:
        point = np.asarray(point, dtype=np.float64)
        if self._count:
            self.comparisons += self._count
            doomed = dominated_mask(self._block[: self._count], point, strict=self._strict)
            if np.any(doomed):
                keep = ~doomed
                kept = int(np.count_nonzero(keep))
                self._block[:kept] = self._block[: self._count][keep]
                self._positions[:kept] = self._positions[: self._count][keep]
                self._count = kept
        if self._count == self._block.shape[0]:
            self._block = np.concatenate([self._block, np.empty_like(self._block)], axis=0)
            self._positions = np.concatenate(
                [self._positions, np.empty_like(self._positions)], axis=0
            )
        self._block[self._count] = point
        self._positions[self._count] = position
        self._count += 1

    def positions(self) -> list[int]:
        return [int(p) for p in self._positions[: self._count]]

    def block_view(self) -> np.ndarray:
        """Read-only view of the live candidate block (chunked scans)."""
        return self._block[: self._count]

    def bulk_insert(
        self, positions: np.ndarray, rows: np.ndarray, can_evict: bool = True
    ) -> None:
        """Insert several mutually non-dominated points at once.

        Evicts every current candidate dominated by any incoming row,
        then appends the rows in order.  Caller guarantees no incoming
        row is dominated by a current candidate or by another incoming
        row (the chunked scan establishes both).

        ``can_evict=False`` is the f-order insert fast path: a caller
        scanning in ascending ``f`` order over the space ``f`` is
        computed on may assert that no incoming row can dominate a
        current candidate (the SFS property — a dominator never has a
        larger ``f``), and the eviction scan is skipped entirely.
        """
        rows = np.asarray(rows, dtype=np.float64)
        incoming = rows.shape[0]
        if incoming == 0:
            return
        if self._count and can_evict:
            block = self._block[: self._count]
            self.comparisons += self._count * incoming
            doomed = batch_dominated_any(rows, block, strict=self._strict)
            if np.any(doomed):
                keep = ~doomed
                kept = int(np.count_nonzero(keep))
                self._block[:kept] = block[keep]
                self._positions[:kept] = self._positions[: self._count][keep]
                self._count = kept
        while self._count + incoming > self._block.shape[0]:
            self._block = np.concatenate([self._block, np.empty_like(self._block)], axis=0)
            self._positions = np.concatenate(
                [self._positions, np.empty_like(self._positions)], axis=0
            )
        self._block[self._count : self._count + incoming] = rows
        self._positions[self._count : self._count + incoming] = positions
        self._count += incoming


class RTreeDominanceIndex:
    """Paper-faithful index: dominance via R-tree window queries."""

    def __init__(self, dimensionality: int, strict: bool = False, max_entries: int = 16):
        self._strict = strict
        self._tree = RTree(dimensionality, max_entries=max_entries)
        self._order: list[int] = []
        self._alive: set[int] = set()
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._tree)

    def is_dominated(self, point: np.ndarray) -> bool:
        # The tree counts one comparison per leaf entry examined, so
        # subtrees pruned by their MBR are not charged (charging
        # ``len(self._tree)`` would erase exactly the work the R-tree
        # saves).
        before = self._tree.comparisons
        dominated = self._tree.exists_dominator(point, strict=self._strict)
        self.comparisons += self._tree.comparisons - before
        return dominated

    def insert_and_prune(self, position: int, point: np.ndarray) -> None:
        before = self._tree.comparisons
        for victim_pos, _coords in self._tree.pop_dominated(point, strict=self._strict):
            self._alive.discard(victim_pos)
        self.comparisons += self._tree.comparisons - before
        self._tree.insert(position, np.asarray(point, dtype=np.float64))
        self._order.append(position)
        self._alive.add(position)

    def positions(self) -> list[int]:
        return [pos for pos in self._order if pos in self._alive]


INDEX_FACTORIES: dict[str, Callable[..., DominanceIndex]] = {
    "list": ListDominanceIndex,
    "block": BlockDominanceIndex,
    "rtree": RTreeDominanceIndex,
}


def make_index(kind: str, dimensionality: int, strict: bool = False) -> DominanceIndex:
    """Instantiate a dominance index by name (``list``/``block``/``rtree``)."""
    try:
        factory = INDEX_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; expected one of {sorted(INDEX_FACTORIES)}"
        ) from None
    return factory(dimensionality, strict=strict)
