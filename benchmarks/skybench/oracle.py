"""Reference skylines that share no code with ``repro.core``.

``skyline_ids`` is a plain sort-and-filter skyline in numpy over the raw
points: quadratic in the worst case, fast when few points survive.
``Dataset`` holds the raw points of a network and mirrors the inserts
and deletes the harness sends, so answers can be checked after updates.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def skyline_ids(values: np.ndarray, ids: np.ndarray, subspace: Sequence[int]) -> frozenset[int]:
    """Ids of the points no other point dominates on ``subspace``.

    ``p`` dominates ``q`` when ``p <= q`` on every dimension and ``p < q``
    on one, which makes its coordinate sum strictly smaller.  So the point
    of smallest sum among those left is dominated by none of them: it is
    kept and everything it dominates is dropped, until nothing is left.
    """
    rest = np.ascontiguousarray(np.asarray(values, dtype=np.float64)[:, list(subspace)].T)
    rest_ids = np.asarray(ids)
    sums = rest.sum(axis=0)
    keep: list[int] = []
    while len(sums):
        i = int(np.argmin(sums))
        p = rest[:, i : i + 1]
        keep.append(int(rest_ids[i]))
        drop = (p <= rest).all(axis=0)
        drop[drop] = (p < rest[:, drop]).any(axis=0)  # an equal point is not dominated
        drop[i] = True
        left = ~drop
        rest, rest_ids, sums = rest[:, left], rest_ids[left], sums[left]
    return frozenset(keep)


class Dataset:
    """The raw points of one network, with the harness's updates mirrored."""

    def __init__(self, values: np.ndarray, ids: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)

    def apply(self, op: dict[str, Any]) -> None:
        if op["kind"] == "insert":
            rows = np.asarray(op["points"]["values"], dtype=np.float64)
            self.values = np.vstack([self.values, rows])
            self.ids = np.concatenate([self.ids, np.asarray(op["points"]["ids"], dtype=np.int64)])
        else:
            keep = ~np.isin(self.ids, np.asarray(op["point_ids"], dtype=np.int64))
            self.values, self.ids = self.values[keep], self.ids[keep]

    def skyline(self, subspace: Sequence[int]) -> frozenset[int]:
        return skyline_ids(self.values, self.ids, subspace)
