"""The f-sorted point store kept by every super-peer.

Section 5.2.1: "each super-peer can access the stored ext-skyline
points in an ascending order of their f(p) values".  ``SortedByF``
bundles a :class:`~repro.core.dataset.PointSet` with its pre-computed
``f`` values, sorted ascending, which is the exact access path both
Algorithm 1 and Algorithm 2 need.

A store is immutable: store-changing operations (pre-processing,
churn, data updates) *replace* the store object and bump
``SuperPeerNetwork.epoch``.  The store caches nothing: the column
projection Algorithm 1 scans (:meth:`SortedByF.projection`) is derived
per call and never retained — it costs about 1 % of a cold scan, and a
scan reads only the ``f(p) <= t`` prefix of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs.runtime import active_metrics
from .dataset import PointSet
from .mapping import f_values

__all__ = ["SortedByF"]


class SortedByF:
    """A point set sorted ascending by ``f(p)`` with cached keys."""

    __slots__ = ("points", "f")

    def __init__(self, points: PointSet, f: np.ndarray):
        if len(points) != len(f):
            raise ValueError("one f value per point required")
        f = np.asarray(f, dtype=np.float64)
        # Neighbours are compared, not subtracted: ``inf - inf`` is NaN.
        if len(f) > 1 and np.any(f[1:] < f[:-1]):
            raise ValueError("points must be sorted ascending by f")
        self.points = points
        self.f = f
        self.f.setflags(write=False)

    @classmethod
    def from_points(cls, points: PointSet) -> "SortedByF":
        """Sort an arbitrary point set by ``f`` and cache the keys.

        This is the O(n log n) full re-sort; the update hot path must
        use :meth:`splice_insert`/:meth:`splice_delete` instead, and the
        ``store.from_points`` counter exists so tests can assert it
        stays off that path.
        """
        metrics = active_metrics()
        if metrics is not None:
            metrics.counter("store.from_points").inc()
        keys = f_values(points.values)
        order = np.argsort(keys, kind="stable")
        return cls(points.take(order), keys[order])

    @classmethod
    def empty(cls, dimensionality: int) -> "SortedByF":
        return cls(PointSet.empty(dimensionality), np.zeros(0, dtype=np.float64))

    @classmethod
    def from_trusted(cls, points: PointSet, f: np.ndarray) -> "SortedByF":
        """Wrap a pre-validated (points, f) pair without re-checking.

        Used by the shared-memory attach path
        (:mod:`repro.parallel.shm`): the arrays are byte-identical
        views of a store the parent already validated, so the length
        and sortedness scans of ``__init__`` are skipped.
        """
        self = object.__new__(cls)
        self.points = points
        self.f = f
        self.f.setflags(write=False)
        return self

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimensionality(self) -> int:
        return self.points.dimensionality

    @property
    def nbytes(self) -> int:
        """Bytes of the three arrays (what an shm publication copies)."""
        return self.points.values.nbytes + self.points.ids.nbytes + self.f.nbytes

    def prefix(self, threshold: float) -> slice:
        """The rows with ``f(p) <= threshold``: all a threshold scan may
        examine (Observation 5; ``f == t`` ties are kept)."""
        return slice(0, int(np.searchsorted(self.f, threshold, side="right")))

    def projection(
        self, subspace: Sequence[int], rows: slice | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(proj, dists)`` pair Algorithm 1 scans for ``subspace``.

        ``proj`` is the point array restricted to the subspace columns
        and ``dists`` is ``dist_U(p) = max_{i in U} p[i]`` per point.
        ``rows`` restricts both to a slice or an index array of store
        positions, so a threshold scan pays only for the prefix it can
        examine.  A pure function: both arrays are derived per call
        (read-only) and nothing is kept on the store.  The full-space
        projection is the stored value array itself — zero copies.
        """
        key = tuple(subspace)
        values = self.points.values if rows is None else self.points.values[rows]
        if key == tuple(range(self.dimensionality)):
            proj = values  # a view of (or the) read-only value array
        else:
            proj = values[:, list(key)]
        proj.setflags(write=False)
        dists = proj.max(axis=1) if proj.shape[0] else np.zeros(0)
        dists.setflags(write=False)
        return proj, dists

    # ------------------------------------------------------------------
    # sorted splices (incremental maintenance)
    # ------------------------------------------------------------------
    def splice_insert(self, points: PointSet) -> "SortedByF":
        """A new store with ``points`` spliced in at their f-positions.

        O(k log n) ``searchsorted`` plus one array splice — the f-order
        invariant is preserved without re-sorting the store
        (ties land after existing equal keys, matching the stable-sort
        order of :meth:`from_points` over ``[existing, new]``).  The
        caller guarantees the incoming ids are not already present.
        """
        if len(points) == 0:
            return self
        keys = f_values(points.values)
        order = np.argsort(keys, kind="stable")
        incoming = points.take(order)
        keys = keys[order]
        pos = np.searchsorted(self.f, keys, side="right")
        values = np.insert(self.points.values, pos, incoming.values, axis=0)
        ids = np.insert(self.points.ids, pos, incoming.ids)
        return SortedByF.from_trusted(
            PointSet.from_trusted(values, ids), np.insert(self.f, pos, keys)
        )

    def splice_delete(self, ids: np.ndarray | Sequence[int]) -> "SortedByF":
        """A new store with the given point ids spliced out.

        Ids not present are ignored.  The surviving rows keep their
        relative f-order, so no re-sort or re-validation is needed.
        """
        drop_ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
        if len(self) == 0 or drop_ids.size == 0:
            return self
        keep = ~np.isin(self.points.ids, drop_ids)
        if keep.all():
            return self
        return SortedByF.from_trusted(
            PointSet.from_trusted(self.points.values[keep], self.points.ids[keep]),
            self.f[keep],
        )

    # An unpickled array comes back writeable; keep ``f`` read-only on
    # the far side (the parallel engine ships stores between processes).
    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.f.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedByF(n={len(self)}, d={self.dimensionality})"
