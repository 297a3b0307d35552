"""Point-set container used throughout the library.

The unit of data in SKYPEER is a set of ``d``-dimensional points with
non-negative coordinates.  ``PointSet`` wraps a ``(n, d)`` numpy array
together with stable integer point identifiers so that points keep their
identity while they travel between peers, super-peers and the query
initiator.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["PointSet"]


class PointSet:
    """An immutable set of ``d``-dimensional points with stable ids.

    Parameters
    ----------
    values:
        Array-like of shape ``(n, d)`` with non-negative coordinates.
    ids:
        Optional array-like of ``n`` unique integer identifiers.  When
        omitted, ids ``0..n-1`` are assigned.

    Notes
    -----
    The underlying arrays are stored read-only; all "mutating"
    operations (``take``, ``concat`` ...) return new instances.
    """

    __slots__ = ("_values", "_ids")

    def __init__(self, values: np.ndarray, ids: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-dimensional, got shape {values.shape}")
        # ``not >=`` rather than ``<``: a NaN minimum must fail too.
        if values.size and not np.min(values) >= 0:
            raise ValueError(
                "SKYPEER assumes non-negative (and not NaN) coordinates (paper, section 3.1)"
            )
        if ids is None:
            ids = np.arange(values.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (values.shape[0],):
                raise ValueError(
                    f"ids shape {ids.shape} does not match {values.shape[0]} points"
                )
        self._values = values
        self._ids = ids
        self._values.setflags(write=False)
        self._ids.setflags(write=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, dimensionality: int) -> "PointSet":
        """Return a point set with zero points of the given dimensionality."""
        return cls(np.empty((0, dimensionality), dtype=np.float64))

    @classmethod
    def from_trusted(cls, values: np.ndarray, ids: np.ndarray) -> "PointSet":
        """Wrap pre-validated arrays without copying or re-checking.

        The caller guarantees the constructor invariants (float64
        ``(n, d)`` values, non-negative, matching int64 ids).  This is
        the attach path of the shared-memory data plane
        (:mod:`repro.parallel.shm`), where the arrays are views over a
        segment the parent already validated; the per-attach
        ``O(n * d)`` scans of ``__init__`` would be pure overhead.
        """
        self = object.__new__(cls)
        self._values = values
        self._ids = ids
        self._values.setflags(write=False)
        self._ids.setflags(write=False)
        return self

    @classmethod
    def from_rows(
        cls, rows: Iterable[Sequence[float]], ids: Sequence[int] | None = None
    ) -> "PointSet":
        """Build a point set from an iterable of coordinate sequences."""
        values = np.asarray(list(rows), dtype=np.float64)
        if values.size == 0:
            values = values.reshape(0, 0)
        return cls(values, None if ids is None else np.asarray(ids))

    @classmethod
    def concat(cls, parts: Sequence["PointSet"]) -> "PointSet":
        """Concatenate point sets, preserving ids.

        All parts must share the same dimensionality.  Ids are assumed to
        be globally unique across parts (the data-partitioning layer
        guarantees this); duplicates are allowed but make ``by_id``
        ambiguous.
        """
        parts = [p for p in parts if len(p)]
        if not parts:
            raise ValueError("cannot concatenate zero non-empty point sets")
        dims = {p.dimensionality for p in parts}
        if len(dims) != 1:
            raise ValueError(f"mismatched dimensionalities: {sorted(dims)}")
        values = np.concatenate([p.values for p in parts], axis=0)
        ids = np.concatenate([p.ids for p in parts], axis=0)
        return cls(values, ids)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The ``(n, d)`` coordinate array (read-only)."""
        return self._values

    @property
    def ids(self) -> np.ndarray:
        """The ``(n,)`` id array (read-only)."""
        return self._ids

    @property
    def dimensionality(self) -> int:
        """Number of dimensions ``d``."""
        return self._values.shape[1]

    def __len__(self) -> int:
        return self._values.shape[0]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for i in range(len(self)):
            yield int(self._ids[i]), self._values[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointSet(n={len(self)}, d={self.dimensionality})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            self._values.shape == other._values.shape
            and np.array_equal(self._ids, other._ids)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:  # PointSets are not hashable (mutable-ish semantics)
        raise TypeError("PointSet is not hashable")

    # Explicit pickle support: slots classes pickle fine by default,
    # but the arrays would come back writable on the far side (the
    # parallel engine ships point sets between processes).
    def __getstate__(self) -> tuple[np.ndarray, np.ndarray]:
        return (self._values, self._ids)

    def __setstate__(self, state: tuple[np.ndarray, np.ndarray]) -> None:
        self._values, self._ids = state
        self._values.setflags(write=False)
        self._ids.setflags(write=False)

    # ------------------------------------------------------------------
    # derived sets
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray | Sequence[int]) -> "PointSet":
        """Return the subset of points at the given positional indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return PointSet(self._values[indices], self._ids[indices])

    def mask(self, keep: np.ndarray) -> "PointSet":
        """Return the subset of points selected by a boolean mask."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self),):
            raise ValueError(f"mask shape {keep.shape} does not match {len(self)} points")
        return PointSet(self._values[keep], self._ids[keep])

    def project(self, subspace: Sequence[int]) -> np.ndarray:
        """Return the coordinate array restricted to ``subspace`` columns.

        Projection intentionally returns a raw array rather than a
        ``PointSet``: projected coordinates are a computational view,
        while ids always refer to the full-space point.
        """
        return self._values[:, list(subspace)]

    def id_set(self) -> frozenset[int]:
        """Return the set of point ids (handy in tests and merging)."""
        return frozenset(int(i) for i in self._ids)

    def by_id(self, point_id: int) -> np.ndarray:
        """Return the coordinates of the point with the given id."""
        matches = np.nonzero(self._ids == point_id)[0]
        if len(matches) == 0:
            raise KeyError(f"no point with id {point_id}")
        return self._values[matches[0]]

    def sorted_by(self, keys: np.ndarray) -> "PointSet":
        """Return a copy sorted ascending by the given per-point keys.

        A stable sort is used so that equal keys preserve input order,
        which keeps distributed runs deterministic.
        """
        keys = np.asarray(keys)
        if keys.shape != (len(self),):
            raise ValueError("one key per point required")
        order = np.argsort(keys, kind="stable")
        return self.take(order)
