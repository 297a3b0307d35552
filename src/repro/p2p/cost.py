"""Network cost model.

The paper assumes "4KB/sec as the network transfer bandwidth on each
connection" and reports transferred volume in KB.  This module turns
point counts into bytes and bytes into per-hop transfer seconds.

A transmitted skyline point consists of its queried coordinates and its
identifier — the receiver recomputes the key Algorithm 2 orders on,
``min_{i in U} p[i]``, from those coordinates.  A result message sends
every id in one width, :func:`id_width` of the message's ids (the
fewest whole bytes that hold its largest id).  A query message carries
the subspace, the threshold and at most one point on the subspace (the
bound ``q(U, t, p)`` of ``docs/ALGORITHMS.md``).
The numbers are deliberately simple — only relative volume matters for
reproducing the figures — and every constant is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "id_width"]


def id_width(ids: Sequence[int] | np.ndarray) -> int:
    """Bytes per id of a result message carrying ``ids``.

    The fewest whole bytes that hold the largest id, at least 1 (an
    empty list is 1), and 8 if any id is negative: a negative id
    travels as its full two's-complement ``int64``.
    """
    column = np.asarray(ids, dtype=np.int64)
    if not column.size:
        return 1
    if column.min() < 0:
        return 8
    return max(1, (int(column.max()).bit_length() + 7) // 8)


@dataclass(frozen=True)
class CostModel:
    """Serialized sizes and link bandwidth."""

    bandwidth_bytes_per_sec: float = 4096.0
    message_header_bytes: int = 64
    coordinate_bytes: int = 8
    threshold_bytes: int = 8
    dimension_tag_bytes: int = 2

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")

    def point_bytes(self, k: int, id_width: int) -> int:
        """Bytes for one skyline point projected on a ``k``-dim subspace,
        its id ``id_width`` bytes wide."""
        return id_width + k * self.coordinate_bytes

    def query_bytes(self, k: int, points: int = 0) -> int:
        """Bytes of a forwarded query message ``q(U, t, p)`` whose bound
        carries ``points`` points on its ``k`` queried coordinates (a
        SKYPEER variant's carries one; the naive baseline's ``q(U, t)``
        none)."""
        return (
            self.message_header_bytes + self.threshold_bytes + k * self.dimension_tag_bytes
            + points * k * self.coordinate_bytes
        )

    def result_bytes(self, num_points: int, k: int, id_width: int) -> int:
        """Bytes of a result message carrying ``num_points`` points whose
        ids are ``id_width`` bytes wide (:func:`id_width` of its ids)."""
        if num_points < 0:
            raise ValueError("num_points must be non-negative")
        return self.message_header_bytes + num_points * self.point_bytes(k, id_width)

    def transfer_seconds(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` over one connection."""
        return nbytes / self.bandwidth_bytes_per_sec


DEFAULT_COST_MODEL = CostModel()
