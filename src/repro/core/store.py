"""The f-sorted point store kept by every super-peer.

Section 5.2.1: "each super-peer can access the stored ext-skyline
points in an ascending order of their f(p) values".  ``SortedByF``
bundles a :class:`~repro.core.dataset.PointSet` with its pre-computed
``f`` values, sorted ascending, which is the exact access path both
Algorithm 1 and Algorithm 2 need.

A store is immutable: store-changing operations (pre-processing,
churn, data updates) *replace* the store object and bump
``SuperPeerNetwork.epoch``.  The column projection Algorithm 1 scans
(:meth:`SortedByF.projection`) is derived per call and never retained —
it costs about 1 % of a cold scan, and a scan reads only the
``f(p) <= t`` prefix of it.  What *is* cached on the instance are the
position-dependent scan structures that are expensive to rebuild: the
R-tree (:meth:`SortedByF.rtree`) and the SaLSa visit order
(:meth:`SortedByF.salsa_order`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs.runtime import active_metrics
from .dataset import PointSet
from .mapping import f_values

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.rtree import RTree

__all__ = ["SortedByF"]


class SortedByF:
    """A point set sorted ascending by ``f(p)`` with cached keys."""

    __slots__ = ("points", "f", "_rtrees", "_salsa")

    #: Most distinct subspaces whose R-tree / SaLSa order is cached per
    #: store.  Workloads concentrate on a handful of subspaces (the
    #: query-cache motivation); the cap merely bounds memory under
    #: adversarial workloads.
    MAX_CACHED_SUBSPACES = 32

    def __init__(self, points: PointSet, f: np.ndarray):
        if len(points) != len(f):
            raise ValueError("one f value per point required")
        if len(f) > 1 and np.any(np.diff(f) < 0):
            raise ValueError("points must be sorted ascending by f")
        self.points = points
        self.f = np.asarray(f, dtype=np.float64)
        self.f.setflags(write=False)
        self._rtrees: dict[tuple[tuple[int, ...], int], "RTree"] | None = None
        self._salsa: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] | None = None

    @classmethod
    def from_points(cls, points: PointSet) -> "SortedByF":
        """Sort an arbitrary point set by ``f`` and cache the keys.

        This is the O(n log n) full re-sort; the update hot path must
        use :meth:`splice_insert`/:meth:`splice_delete` instead, and the
        ``store.from_points`` counter exists so tests and the bench can
        assert it stays off that path.
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
        self._rtrees = None
        self._salsa = None
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

    def rtree(self, subspace: Sequence[int], max_entries: int = 16) -> "RTree":
        """A bulk-loaded R-tree over the subspace projection, cached.

        Leaf ids are the store positions (f-ascending ranks), and the
        tree carries the ``min_id`` subtree annotations, so a best-first
        scan can bound ``f`` over a subtree by looking at its smallest
        position — the substrate the BBS scan
        (:mod:`repro.core.substrates`) expands.  Cached per
        ``(subspace, max_entries)`` under the FIFO cap
        ``MAX_CACHED_SUBSPACES``; the store is immutable, so entries
        never go stale.
        """
        from ..index.rtree import RTree

        key = (tuple(subspace), int(max_entries))
        cache = self._rtrees
        if cache is None:
            cache = self._rtrees = {}
        hit = cache.get(key)
        if hit is None:
            proj, _dists = self.projection(key[0])
            tree = RTree.bulk_load(proj, max_entries=max_entries)
            tree.annotate_min_ids()
            if len(cache) >= self.MAX_CACHED_SUBSPACES:
                cache.pop(next(iter(cache)))
            hit = cache[key] = tree
        return hit

    def salsa_order(self, subspace: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The SaLSa visit order for ``subspace``: ``(order, keys)``.

        ``order`` is the store positions sorted ascending by the
        monotone sorting function ``minC(p) = min_{i in U} p[i]`` with
        the coordinate sum as tiebreak (and, the sort being stable,
        store position beyond that), and ``keys`` is ``minC`` in that
        order.  A dominator's ``(minC, sum)`` pair never sorts after
        its victim's, which is what lets the SaLSa scan
        (:func:`repro.core.substrates.salsa_subspace_skyline`) stop
        early at the running stop-point.  Cached per subspace under the
        same cap as the R-trees; the store is immutable, so entries
        never go stale.
        """
        key = tuple(subspace)
        cache = self._salsa
        if cache is None:
            cache = self._salsa = {}
        hit = cache.get(key)
        if hit is None:
            proj, _dists = self.projection(key)
            if len(self):
                mins = proj.min(axis=1)
                order = np.ascontiguousarray(
                    np.lexsort((proj.sum(axis=1), mins)), dtype=np.int64
                )
                keys = np.ascontiguousarray(mins[order], dtype=np.float64)
            else:
                order = np.zeros(0, dtype=np.int64)
                keys = np.zeros(0, dtype=np.float64)
            order.setflags(write=False)
            keys.setflags(write=False)
            if len(cache) >= self.MAX_CACHED_SUBSPACES:
                cache.pop(next(iter(cache)))
            hit = cache[key] = (order, keys)
        return hit

    # ------------------------------------------------------------------
    # sorted splices (incremental maintenance)
    # ------------------------------------------------------------------
    def splice_insert(self, points: PointSet) -> "SortedByF":
        """A new store with ``points`` spliced in at their f-positions.

        O(k log n) ``searchsorted`` plus one array splice — the f-order
        invariant is preserved without re-sorting the store
        (ties land after existing equal keys, matching the stable-sort
        order of :meth:`from_points` over ``[existing, new]``).  The
        new store starts without R-tree and SaLSa caches (their layouts
        are position-dependent); they rebuild lazily.  The caller
        guarantees the incoming ids are not already present.
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
        relative f-order, so no re-sort or re-validation is needed
        (R-tree and SaLSa caches drop, as in :meth:`splice_insert`).
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

    # Slots would otherwise pickle the R-tree/SaLSa caches alongside the
    # data; rebuild lean on the far side (the parallel engine ships
    # stores between processes).
    def __getstate__(self) -> tuple[PointSet, np.ndarray]:
        return (self.points, self.f)

    def __setstate__(self, state: tuple[PointSet, np.ndarray]) -> None:
        self.points, self.f = state
        self.f.setflags(write=False)
        self._rtrees = None
        self._salsa = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedByF(n={len(self)}, d={self.dimensionality})"
