"""Bitmap skyline [Tan, Eng, Ooi — VLDB 2001].

The first *progressive* skyline technique.  Every distinct value on
every dimension gets a bit-slice; for a probe point ``p``:

* ``A`` = AND over dimensions of the slice "q[i] <= p[i]" — candidates
  at least as good as ``p`` everywhere;
* ``B`` = OR over dimensions of the slice "q[i] < p[i]" — candidates
  strictly better somewhere.

``p`` is a skyline point iff ``A AND B`` is empty: nobody is at least
as good everywhere *and* strictly better somewhere.  Each point's test
is independent, so results stream out in input order.

The bit-slices here are numpy boolean matrices — morally the compressed
bitmaps of the original paper, with the same asymptotics per test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.subspace import full_space, normalize_subspace

__all__ = ["bitmap_skyline", "BitmapIndex"]


class BitmapIndex:
    """Bit-slices for one dataset on one subspace, cut from its raw values."""

    def __init__(self, values: np.ndarray):
        if values.ndim != 2:
            raise ValueError("expected a (n, d) array")
        self._values = np.asarray(values, dtype=np.float64)

    def __len__(self) -> int:
        return self._values.shape[0]

    def leq_slice(self, dim: int, value: float) -> np.ndarray:
        """Bit-slice of points with ``q[dim] <= value``."""
        return self._values[:, dim] <= value

    def lt_slice(self, dim: int, value: float) -> np.ndarray:
        """Bit-slice of points with ``q[dim] < value``."""
        return self._values[:, dim] < value

    def is_skyline(self, row: np.ndarray, strict: bool = False) -> bool:
        """The A-and-B test for one probe point.

        ``strict=True`` switches to ext-domination: the dominator must
        be strictly better on *every* dimension, so the test reduces to
        "AND of the strict slices is empty".
        """
        n, d = self._values.shape
        if strict:
            a = np.ones(n, dtype=bool)
            for j in range(d):
                a &= self.lt_slice(j, row[j])
            return not bool(np.any(a))
        a = np.ones(n, dtype=bool)
        b = np.zeros(n, dtype=bool)
        for j in range(d):
            a &= self.leq_slice(j, row[j])
            b |= self.lt_slice(j, row[j])
        return not bool(np.any(a & b))


def bitmap_skyline(
    points: PointSet, subspace: Sequence[int] | None = None, strict: bool = False
) -> PointSet:
    """Return the (extended) skyline of ``points`` on ``subspace``."""
    d = points.dimensionality
    cols = list(full_space(d) if subspace is None else normalize_subspace(subspace, d))
    proj = points.values[:, cols]
    index = BitmapIndex(proj)
    keep = [i for i in range(len(points)) if index.is_skyline(proj[i], strict=strict)]
    return points.take(keep)
