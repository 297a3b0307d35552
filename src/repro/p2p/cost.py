"""Network cost model.

The paper assumes "4KB/sec as the network transfer bandwidth on each
connection" and reports transferred volume in KB.  This module turns
point counts into bytes and bytes into per-hop transfer seconds.

A transmitted skyline point consists of its queried coordinates and its
identifier — the receiver recomputes the key Algorithm 2 orders on,
``min_{i in U} p[i]``, from those coordinates.  A result message sends
its ids in ascending order, :func:`id_bytes` of them: every id in one
width, :func:`id_width` of the message's ids (the fewest whole bytes
that hold its largest id), or, since wire version 8 and exactly when
that is strictly smaller, the smallest id and then each gap to the next
as variable-length integers (:func:`id_gaps`).  It sends every
coordinate in one width, :func:`coord_width` of its coordinate block
(the low bytes left once the high bytes all of them share are sent
once).  A block
that mixes ``+0.0`` with other values marks its zeros in a bitmap and
sends, and sizes its width over, only the rest.  Since wire version 7 a
block may instead give each of its ``k`` columns its own width, and send
each column's shared high bytes once, for ``k − 1`` more width bytes:
:func:`coord_width` takes that layout exactly when it is strictly
smaller than the one-block one, so the encoder and every charge agree on
it and no record grows; version 8's id layout follows the same rule, and
so does version 9's third coordinate layout, :class:`Quanta`: a block of
non-negative finite doubles sends each column as the integers its values
are of one power of two, less their minimum, bit-packed (:func:`quantize`).
A query message carries
the subspace, the threshold and at most one point on the subspace (the
bound ``q(U, t, p)`` of ``docs/ALGORITHMS.md``).
The numbers are deliberately simple — only relative volume matters for
reproducing the figures — and every constant is overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Quanta",
    "coord_width",
    "id_bytes",
    "id_gaps",
    "id_width",
    "quantize",
    "varint_lengths",
    "zigzag",
]


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


def id_gaps(ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """The ``uint64`` words the gap layout of an id block sends for
    ``ids``: the smallest id zigzag-coded (``2x`` for ``x >= 0``,
    ``-2x - 1`` below), then the gap from each id to the next in
    ascending order (0 for a repeated id)."""
    column = np.sort(np.asarray(ids, dtype=np.int64).reshape(-1))
    gaps = np.empty(column.size, dtype=np.uint64)
    if column.size:
        first = int(column[0])
        gaps[0] = (first << 1) ^ (first >> 63)
        # Each gap fits 64 bits unsigned; the subtraction wraps into it.
        words = column.view(np.uint64)
        np.subtract(words[1:], words[:-1], out=gaps[1:])
    return gaps


def varint_lengths(words: np.ndarray) -> np.ndarray:
    """The LEB128 length of each ``uint64`` word: 7 bits a byte, 1 to 10."""
    return 1 + np.searchsorted(_VARINT_LIMITS, words, side="right")


def id_bytes(ids: Sequence[int] | np.ndarray) -> int:
    """Bytes of the id block of a result message carrying ``ids``.

    The block is either the ``n·w`` fixed-width column, ``w`` the
    :func:`id_width` of ``ids``, or — exactly when that is strictly
    smaller — the LEB128 varints of :func:`id_gaps`; either way the ids
    go in ascending order.  0 for no ids.
    """
    column = np.asarray(ids, dtype=np.int64).reshape(-1)
    fixed = column.size * id_width(column)
    return min(fixed, int(varint_lengths(id_gaps(column)).sum()))


@dataclass(frozen=True)
class Quanta:
    """The binary-quantum layout of an ``n × k`` coordinate block (wire
    version 9), one entry per column.

    Every value of column ``j`` is an integer multiple of
    ``2**exponents[j]``; the column sends ``exponents[j]`` (zigzag
    LEB128), ``bases[j]``, its smallest such integer (LEB128), and
    ``bits[j]`` (1 byte), then each integer less ``bases[j]`` in
    ``bits[j]`` bits, packed little-endian into whole bytes.
    """

    exponents: tuple[int, ...]
    bases: tuple[int, ...]
    bits: tuple[int, ...]

    def nbytes(self, n: int) -> int:
        """Bytes of the block of ``n`` points this layout sends."""
        heads = sum(_varint_length(zigzag(q)) + 1 for q in self.exponents)
        heads += sum(map(_varint_length, self.bases))
        return heads + sum((n * width + 7) // 8 for width in self.bits)


def zigzag(value: int) -> int:
    """``value`` as an unsigned integer, small magnitudes small: ``2x``
    for ``x >= 0``, ``-2x - 1`` below."""
    return 2 * value if value >= 0 else -2 * value - 1


def quantize(values: Sequence[float] | np.ndarray) -> Quanta | None:
    """The :class:`Quanta` of the ``n × k`` block ``values``, or ``None``
    when it has none: when it is empty, not two-dimensional, holds a
    value that is not finite or has its sign bit set (``-0.0`` among
    them), or a column whose integers do not all fit 64 bits.

    Column ``j``'s exponent is the largest ``q`` with every value an
    integer multiple of ``2**q`` (0 for a column of ``+0.0`` alone, which
    has no largest), its base the smallest of those integers and its
    width the bits of the largest less the base.
    """
    bits = np.ascontiguousarray(values, dtype="<f8").view("<u8")
    if bits.ndim != 2 or not bits.size:
        return None
    columns = bits.T.copy()  # one row a column, so each reduction runs along a row
    tops = np.maximum.reduce(columns, axis=1)
    if np.maximum.reduce(tops) >= _INFINITY:
        return None
    # A value is its mantissa (with the implicit bit, which a normal one
    # has and a subnormal's lowest set bit is below) times 2**(e - 1075),
    # e its exponent field or 1 if that is 0; its lowest set bit is a
    # power of two, whose own exponent field is its log2 plus 1023.
    mantissa = (columns | _IMPLICIT).view(np.int64)
    fields = (columns >> _FIELD).view(np.int64)
    low = ((mantissa & -mantissa).astype("<f8").view(np.int64) >> 52) + np.maximum(fields, 1)
    low[columns == 0] = _NO_BIT
    exponents: list[int] = []
    bases: list[int] = []
    widths: list[int] = []
    # Doubles of one sign order as their bit patterns do.
    for lowest, least, most in zip(
        np.minimum.reduce(low, axis=1).tolist(),
        np.minimum.reduce(columns, axis=1).view("<f8").tolist(),
        tops.view("<f8").tolist(),
    ):
        q = lowest - (1023 + 1075) if lowest < _NO_BIT else 0
        try:
            base, top = int(math.ldexp(least, -q)), int(math.ldexp(most, -q))
        except OverflowError:  # an integer past 2**1023 is past 64 bits too
            return None
        if top >> 64:
            return None
        exponents.append(q)
        bases.append(base)
        widths.append((top - base).bit_length())
    return Quanta(tuple(exponents), tuple(bases), tuple(widths))


def coord_width(values: Sequence[float] | np.ndarray) -> tuple[Any, Any]:
    """``(c, nz)``: the layout a result message sends its coordinate
    block ``values`` in.

    ``nz`` is how many coordinates the block sends and ``c`` their low
    bytes each: 8 minus the number of whole high bytes that every sent
    value's float64 bit pattern shares with every other's, which the
    message sends once.  A block that holds both ``+0.0`` (bit pattern
    0; ``-0.0`` is not one) and another value marks its zeros in a
    bitmap instead, so ``nz`` counts its other values and ``c`` is
    taken over them alone; any other block sends all of its values.
    ``(8, 0)`` for an empty block, ``c = 0`` when every value is
    bitwise equal.

    An ``n × k`` block may instead give each column its own group (wire
    version 7): the bitmap stays the block's, column ``j`` sends
    ``nz_j`` values at ``c_j`` low bytes each and its shared high bytes
    once (``c_j = 8`` for a column the bitmap marks entirely), and the
    message carries ``k − 1`` more width bytes.  Exactly when that costs
    strictly fewer bytes than ``(8 − c) + nz·c``, ``c`` and ``nz`` are
    the k-tuples ``(c_j)`` and ``(nz_j)`` — so never for ``k = 1``, an
    empty block or a single point.

    Exactly when the block's :func:`quantize` layout costs strictly
    fewer bytes than the smaller of those two (wire version 9), ``c`` is
    that :class:`Quanta` and ``nz`` is ``n·k``: it sends every value, and
    no bitmap.
    """
    bits = np.ascontiguousarray(values, dtype="<f8").view("<u8")
    if not bits.size:
        return 8, 0
    layout, nbytes = _byte_layout(bits)
    quanta = quantize(bits.view("<f8"))
    if quanta is not None and quanta.nbytes(len(bits)) < nbytes:
        return quanta, bits.size
    return layout


def _byte_layout(bits: np.ndarray) -> tuple[tuple[Any, Any], int]:
    """The ``(c, nz)`` of :func:`coord_width` without quanta, for the
    bit patterns ``bits`` of a block that is not empty, and the bytes
    it costs: the bitmap, any column widths past the first, the shared
    high bytes and the low bytes of the sent values."""
    marked = bits.size - np.count_nonzero(bits)
    flagged = 0 < marked < bits.size
    bitmap = (bits.size + 7) // 8 if flagged else 0
    if bits.ndim != 2 or bits.shape[1] < 2:
        words = bits[bits != 0] if flagged else bits.reshape(-1)
        low = _byte_length(np.bitwise_or.reduce(words ^ words[0]))
        return (low, words.size), bitmap + 8 - low + words.size * low
    # Any sent value of a column serves as its reference: the highest
    # bit the column's sent values disagree on is the same against each.
    n, k = bits.shape
    if flagged:
        # A column with none (all marked) takes the block's, which
        # leaves the block's own disagreement unchanged.
        kept = bits != 0
        ref = bits.max(axis=0)
        top = ref.max()
        ref[ref == 0] = top
        differ = np.bitwise_or.reduce(np.where(kept, bits, ref) ^ ref, axis=0)
        counts = kept.sum(axis=0)
    else:
        ref, top = bits[0], bits[0, 0]
        differ = np.bitwise_or.reduce(bits ^ ref, axis=0)
        counts = np.int64(n)
    low = _byte_length(np.bitwise_or.reduce(differ | (ref ^ top)))
    widths = np.searchsorted(_BYTE_LIMITS, differ, side="right")
    if flagged:
        widths[counts == 0] = 8
    sent = bits.size - marked if flagged else bits.size
    # (k - 1) + sum(8 - c_j) + sum(nz_j c_j) against (8 - c) + nz c.
    columns = int(9 * k - 1 + ((counts - 1) * widths).sum())
    if columns < 8 - low + sent * low:
        layout = tuple(widths.tolist()), tuple(np.broadcast_to(counts, k).tolist())
        return layout, bitmap + columns
    return (low, sent), bitmap + 8 - low + sent * low


#: ``2**(8 i)`` for ``i < 8``: a word needs as many whole bytes as it is
#: at least of these.
_BYTE_LIMITS = np.array([1 << 8 * i for i in range(8)], dtype=np.uint64)
#: ``2**(7 i)`` for ``1 <= i <= 9``: a word's LEB128 takes one byte more
#: than it is at least of these.
_VARINT_LIMITS = np.array([1 << 7 * i for i in range(1, 10)], dtype=np.uint64)
#: A float64 bit pattern below this one is ``+0.0`` or a positive finite
#: value: the exponent field of an infinity or a NaN, sign bit clear.
_INFINITY = np.uint64(0x7FF0_0000_0000_0000)
_IMPLICIT = np.uint64(1 << 52)
_FIELD = np.uint64(52)
#: Above any exponent field a finite double's lowest set bit can have.
_NO_BIT = 1 << 20


def _varint_length(value: int) -> int:
    """The LEB128 length of the non-negative integer ``value``."""
    return max(1, (value.bit_length() + 6) // 7)


def _byte_length(word: np.uint64) -> int:
    """The whole bytes ``word`` needs (0 for 0)."""
    return (int(word).bit_length() + 7) // 8


def _per_group(value: Any) -> list[Any]:
    """A layout field of :func:`coord_width` as one entry per group."""
    return list(value) if isinstance(value, (tuple, list, np.ndarray)) else [value]


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
        self, num_points: int, k: int, id_bytes: int, coord_width: Any, nonzero: Any
    ) -> int:
        """Bytes of a result message carrying ``num_points`` points whose
        ids take an ``id_bytes``-byte block (:func:`id_bytes` of them) and
        whose coordinate block is laid out as ``(coord_width, nonzero)``
        (:func:`coord_width` of it): one width and sent count for the
        whole block, or one of each per column.  Each group's
        ``8 - coord_width`` shared high bytes travel once, then each of
        its ``nonzero`` sent coordinates' low bytes; a per-column block
        adds ``k - 1`` width bytes, and a block that sends fewer than
        its ``num_points * k`` coordinates adds its zero bitmap, one bit
        per coordinate.  A ``coord_width`` that is a :class:`Quanta`
        (with ``nonzero`` the whole ``num_points * k``) costs its
        :meth:`Quanta.nbytes`."""
        if num_points < 0 or id_bytes < 0:
            raise ValueError("num_points and id_bytes must be non-negative")
        size = num_points * k
        if isinstance(coord_width, Quanta):
            if len(coord_width.bits) != k or nonzero != size:
                raise ValueError(f"a quantum block has {k} columns and sends all {size} values")
            return self.message_header_bytes + id_bytes + coord_width.nbytes(num_points)
        widths, counts = _per_group(coord_width), _per_group(nonzero)
        if len(widths) not in (1, k) or len(counts) != len(widths):
            raise ValueError(f"a block of {k} columns has 1 or {k} widths and sent counts")
        most = size if len(widths) == 1 else num_points
        sent, coordinates = 0, len(widths) - 1
        for width, count in zip(widths, counts):
            if not 0 <= count <= most:
                raise ValueError(f"{count} sent coordinates is not 0..{most}")
            shared = self._shared_bytes(width)
            coordinates += shared + count * (self.coordinate_bytes - shared)
            sent += count
        bitmap = (size + 7) // 8 if sent < size else 0
        return self.message_header_bytes + id_bytes + bitmap + int(coordinates)

    def list_bytes(self, ids: np.ndarray, values: np.ndarray) -> int:
        """Bytes of the result message that sends ``ids`` and their
        ``n × k`` coordinate block ``values``, in the layouts
        :func:`id_bytes` and :func:`coord_width` pick for them."""
        return self.result_bytes(len(ids), values.shape[1], id_bytes(ids), *coord_width(values))

    def _shared_bytes(self, coord_width: int) -> int:
        """The high bytes of a coordinate a result message sends once
        per group of width ``coord_width`` (at most a whole
        ``coordinate_bytes``, so a model that sizes a coordinate below 8
        bytes never charges a negative width)."""
        if not 0 <= coord_width <= 8:
            raise ValueError(f"coordinate width {coord_width} is not 0..8 bytes")
        return min(8 - coord_width, self.coordinate_bytes)

    def transfer_seconds(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` over one connection."""
        return nbytes / self.bandwidth_bytes_per_sec


DEFAULT_COST_MODEL = CostModel()
