"""Network cost model.

The paper assumes "4KB/sec as the network transfer bandwidth on each
connection" and reports transferred volume in KB.  This module turns
point counts into bytes and bytes into per-hop transfer seconds.

A transmitted skyline point consists of its queried coordinates and its
identifier — the receiver recomputes the key Algorithm 2 orders on,
``min_{i in U} p[i]``, from those coordinates.  A result message sends
every id in one width, :func:`id_width` of the message's ids (the
fewest whole bytes that hold its largest id), and every coordinate in
one width, :func:`coord_width` of its coordinate block (the low bytes
left once the high bytes all of them share are sent once).  A block
that mixes ``+0.0`` with other values marks its zeros in a bitmap and
sends, and sizes its width over, only the rest.  A query message carries
the subspace, the threshold and at most one point on the subspace (the
bound ``q(U, t, p)`` of ``docs/ALGORITHMS.md``).
The numbers are deliberately simple — only relative volume matters for
reproducing the figures — and every constant is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "coord_width", "id_width"]


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


def coord_width(values: Sequence[float] | np.ndarray) -> tuple[int, int]:
    """``(c, nz)`` of a result message's coordinate block ``values``.

    ``nz`` is how many coordinates the block sends and ``c`` their low
    bytes each: 8 minus the number of whole high bytes that every sent
    value's float64 bit pattern shares with every other's, which the
    message sends once.  A block that holds both ``+0.0`` (bit pattern
    0; ``-0.0`` is not one) and another value marks its zeros in a
    bitmap instead, so ``nz`` counts its other values and ``c`` is
    taken over them alone; any other block sends all of its values.
    ``(8, 0)`` for an empty block, ``c = 0`` when every value is
    bitwise equal.
    """
    bits = np.ascontiguousarray(values, dtype="<f8").reshape(-1).view("<u8")
    if not bits.size:
        return 8, 0
    sent = bits[bits != 0] if 0 < np.count_nonzero(bits) < bits.size else bits
    differ = np.bitwise_or.reduce(sent ^ sent[0])
    return (int(differ).bit_length() + 7) // 8, sent.size


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

    def point_bytes(self, k: int, id_width: int, coord_width: int) -> int:
        """Bytes for one skyline point projected on a ``k``-dim subspace,
        in a result message whose ids are ``id_width`` bytes wide and
        whose coordinates, all sent, share all but ``coord_width`` low
        bytes."""
        return id_width + k * (self.coordinate_bytes - self._shared_bytes(coord_width))

    def query_bytes(self, k: int, points: int = 0) -> int:
        """Bytes of a forwarded query message ``q(U, t, p)`` whose bound
        carries ``points`` points on its ``k`` queried coordinates (a
        SKYPEER variant's carries one; the naive baseline's ``q(U, t)``
        none)."""
        return (
            self.message_header_bytes + self.threshold_bytes + k * self.dimension_tag_bytes
            + points * k * self.coordinate_bytes
        )

    def result_bytes(
        self, num_points: int, k: int, id_width: int, coord_width: int, nonzero: int
    ) -> int:
        """Bytes of a result message carrying ``num_points`` points whose
        ids are ``id_width`` bytes wide (:func:`id_width` of its ids) and
        whose coordinate block is ``(coord_width, nonzero)``
        (:func:`coord_width` of it): the ``8 - coord_width`` high bytes
        the sent coordinates share travel once, then each of the
        ``nonzero`` sent coordinates' low bytes, and a block that sends
        fewer than its ``num_points * k`` coordinates adds its zero
        bitmap, one bit per coordinate."""
        if num_points < 0:
            raise ValueError("num_points must be non-negative")
        size = num_points * k
        if not 0 <= nonzero <= size:
            raise ValueError(f"{nonzero} sent coordinates is not 0..{size}")
        bitmap = (size + 7) // 8 if nonzero < size else 0
        shared = self._shared_bytes(coord_width)
        return (
            self.message_header_bytes
            + num_points * id_width
            + bitmap
            + shared
            + nonzero * (self.coordinate_bytes - shared)
        )

    def _shared_bytes(self, coord_width: int) -> int:
        """The high bytes of a coordinate a result message sends once
        (at most a whole ``coordinate_bytes``, so a model that sizes a
        coordinate below 8 bytes never charges a negative width)."""
        if not 0 <= coord_width <= 8:
            raise ValueError(f"coordinate width {coord_width} is not 0..8 bytes")
        return min(8 - coord_width, self.coordinate_bytes)

    def transfer_seconds(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` over one connection."""
        return nbytes / self.bandwidth_bytes_per_sec


DEFAULT_COST_MODEL = CostModel()
