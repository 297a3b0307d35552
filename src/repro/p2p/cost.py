"""Network cost model.

The paper assumes "4KB/sec as the network transfer bandwidth on each
connection" and reports transferred volume in KB.  This module turns
point counts into bytes and bytes into per-hop transfer seconds.

A transmitted skyline point consists of its queried coordinates and its
identifier — the receiver recomputes the key Algorithm 2 orders on,
``min_{i in U} p[i]``, from those coordinates; a query message carries
the subspace, the threshold and at most one point on the subspace (the
bound ``q(U, t, p)`` of ``docs/ALGORITHMS.md``).
The numbers are deliberately simple — only relative volume matters for
reproducing the figures — and every constant is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Serialized sizes and link bandwidth."""

    bandwidth_bytes_per_sec: float = 4096.0
    message_header_bytes: int = 64
    coordinate_bytes: int = 8
    id_bytes: int = 8
    threshold_bytes: int = 8
    dimension_tag_bytes: int = 2

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")

    def point_bytes(self, k: int) -> int:
        """Bytes for one skyline point projected on a ``k``-dim subspace."""
        return self.id_bytes + k * self.coordinate_bytes

    def query_bytes(self, k: int, points: int = 0) -> int:
        """Bytes of a forwarded query message ``q(U, t, p)`` whose bound
        carries ``points`` points on its ``k`` queried coordinates (a
        SKYPEER variant's carries one; the naive baseline's ``q(U, t)``
        none)."""
        return (
            self.message_header_bytes + self.threshold_bytes + k * self.dimension_tag_bytes
            + points * k * self.coordinate_bytes
        )

    def result_bytes(self, num_points: int, k: int) -> int:
        """Bytes of a result message carrying ``num_points`` points."""
        if num_points < 0:
            raise ValueError("num_points must be non-negative")
        return self.message_header_bytes + num_points * self.point_bytes(k)

    def transfer_seconds(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` over one connection."""
        return nbytes / self.bandwidth_bytes_per_sec


DEFAULT_COST_MODEL = CostModel()
