"""Constrained subspace skylines (extension, after Dellis et al. [6]).

A constrained subspace skyline restricts attention to the points inside
an axis-aligned range box before computing the skyline of a subspace —
"the generalization of all meaningful skyline queries over a given
dataset" per the related-work discussion.  SKYPEER's machinery carries
over unchanged: constraints are applied as a filter at each super-peer
before Algorithm 1 runs, and the threshold logic stays valid because
dominance within the box implies dominance overall.

One caveat the implementation honours: the *extended skyline is not a
sufficient pre-aggregate for constrained queries* (a point dominated
globally may be the best inside a box whose dominators fall outside),
so constrained queries must run against full local data — see
``requires_full_data``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PointSet
from .dominance import skyline_mask
from .subspace import Subspace, normalize_subspace

__all__ = ["RangeConstraint", "constrained_subspace_skyline"]


@dataclass(frozen=True)
class RangeConstraint:
    """An axis-aligned box constraint on a subset of dimensions.

    ``bounds`` maps a dimension index to an inclusive ``(low, high)``
    interval.  Dimensions not present are unconstrained.
    """

    bounds: tuple[tuple[int, float, float], ...]

    @classmethod
    def from_dict(cls, bounds: dict[int, tuple[float, float]]) -> "RangeConstraint":
        """Build from ``{dim: (low, high)}``; a negative dimension, a NaN
        bound or an empty interval raises :class:`ValueError`."""
        items = []
        for dim, (low, high) in sorted(bounds.items()):
            if dim < 0:
                raise ValueError(f"negative dimension {dim}")
            if math.isnan(low) or math.isnan(high):
                raise ValueError(f"NaN bound on dimension {dim}: ({low}, {high})")
            if low > high:
                raise ValueError(f"empty interval on dimension {dim}: ({low}, {high})")
            items.append((int(dim), float(low), float(high)))
        return cls(tuple(items))

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of rows inside the box."""
        keep = np.ones(values.shape[0], dtype=bool)
        for dim, low, high in self.bounds:
            column = values[:, dim]
            keep &= (column >= low) & (column <= high)
        return keep

    @property
    def requires_full_data(self) -> bool:
        """True when the query cannot be answered from ext-skylines.

        Any lower bound strictly above the domain minimum can exclude a
        dominator, so only unconstrained-from-below boxes are safe.
        """
        return any(low > 0.0 for _dim, low, _high in self.bounds)


def constrained_subspace_skyline(
    points: PointSet,
    subspace: Sequence[int],
    constraint: RangeConstraint,
) -> PointSet:
    """Skyline of ``subspace`` among the points satisfying ``constraint``."""
    cols: Subspace = normalize_subspace(subspace, points.dimensionality)
    inside = points.mask(constraint.mask(points.values))
    if not len(inside):
        return inside
    return inside.mask(skyline_mask(inside.values, cols))
