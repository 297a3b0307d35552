"""The dominance index of the skyline loops.

Algorithm 1 repeatedly asks two questions about the set of skyline
candidates found so far:

1. is the next point dominated by any candidate? and
2. which candidates does the next point dominate (to be removed)?

The paper answers them with window queries over a main-memory spatial
index (section 5.2.1).  Here both are vectorized numpy comparisons over
one growing block of candidates, asked a batch of points at a time by
:func:`repro.core.local_skyline._chunked_scan` through
:func:`~repro.core.dominance.batch_dominated_any`;
``docs/PERFORMANCE.md`` has the matrix in which this beat the per-point
list and spatial-index forms on every cell.  The index counts its
comparisons so callers can report abstract work alongside wall-clock
time.
"""

from __future__ import annotations

import numpy as np

from .dominance import batch_dominated_any

__all__ = ["BlockDominanceIndex"]


class BlockDominanceIndex:
    """Vectorized index over a growing numpy block.

    The candidate block doubles on demand so insertion is amortized
    O(1); dominance tests are single vectorized comparisons.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, dimensionality: int):
        self._block = np.empty((self._INITIAL_CAPACITY, dimensionality), dtype=np.float64)
        self._positions = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._count = 0
        self.comparisons = 0

    def __len__(self) -> int:
        return self._count

    def positions(self) -> list[int]:
        """Scan positions of the surviving points, in insertion order."""
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
            doomed = batch_dominated_any(rows, block)
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
