"""Wire format for SKYPEER messages.

The cost model (``repro.p2p.cost``) *estimates* message sizes; this
module actually serializes them, so the estimates are anchored to a
concrete byte layout and a real deployment could speak the protocol.
Encoding is explicit little-endian packing — ``struct`` for the fixed
fields, whole numpy columns for a result's records, no pickling — with a
fixed header:

    magic (2B) | version (1B) | kind (1B) | query id (8B) | payload length (4B)

Payloads:

* ``QueryMessage`` — subspace size k (2B), threshold (8B double),
  initiator (8B), point count (1B, 0 or 1), then the k dimensions (2B
  each) and, per point, its k coordinates on the subspace (8B doubles):
  the bound ``(t, p)`` of ``q(U, t, p)``.  Neither side lets a NaN
  threshold (``+inf`` is the naive baseline's) or a point coordinate
  that is not finite through.
* ``ResultMessage`` — sender (8B), point count n (4B), query
  dimensionality k (2B), id width w (1B, its ``0x80`` bit the gap
  flag), coordinate width c (1B, its ``0x80`` bit the zero-bitmap flag,
  its ``0x40`` bit the per-column flag, its ``0x10`` bit reserved and
  refused, and ``0x20``, alone, the quantum flag), then, in a per-column
  block, the widths of
  columns 1..k-1 (1B each, ``c`` being column 0's), then the n ids in
  ascending order — each little-endian in ``w`` bytes, or, gap-flagged,
  the smallest in zigzag LEB128 and then each gap to the next in
  LEB128 — then the coordinate block: when bitmap-flagged, a bitmap of
  ``ceil(n*k/8)`` bytes (``np.packbits(..., bitorder="little")`` of the
  row-major n x k block) whose set bits mark the coordinates that are
  ``+0.0``; then the sent coordinates.  A bitmap-flagged block sends
  the coordinates its bitmap does not mark, any other block all n x k.
  A one-block record sends the ``8 - c`` high bytes every sent
  coordinate shares, once, and each sent coordinate's ``c`` low bytes
  (little-endian, row-major); a per-column one does the same column by
  column, each with its own width (8 for a column its bitmap marks
  entirely, which sends nothing).  A quantum-flagged block has no
  bitmap: column by column it sends its exponent ``q`` (zigzag LEB128),
  its base (LEB128) and a width ``b`` (1B), then each value's integer
  ``value / 2**q`` less the base in ``b`` bits, packed lowest bit first
  into ``ceil(n*b/8)`` bytes.  ``w`` is
  :func:`repro.p2p.cost.id_width` of the ids — the fewest whole bytes
  that hold the largest one, 8 if any is negative — and the ids are
  gap-coded exactly when :func:`repro.p2p.cost.id_bytes` finds that
  strictly smaller than ``n·w``; the coordinate flags and widths come
  from :func:`repro.p2p.cost.coord_width` of the block —
  a block is bitmap-flagged when it holds ``+0.0`` and another value,
  a width is 8 less the whole high bytes the float64 bit patterns its
  group sends all share (8 when it sends none), and the per-column
  layout is taken only when it is strictly smaller than the one-block
  layout, and the quantum one (:func:`repro.p2p.cost.quantize`) only
  when it is strictly smaller than both — so the record costs what the
  cost model charges for it, and every double comes back bit for bit.
  The reader refuses every record the encoder would not write for the
  message it decodes to, so each message has one encoding.
  Its kind byte also says where the message stands on its link: a plain
  result, a *final* one (the last message the sender's subtree puts on
  this link), or a *decline* (no result will ever come over this link —
  the answer to a duplicate query, and a relay's last word when a
  decline was what completed its subtree; always final, never points).

``ResultMessage`` carries only the queried coordinates — the receiver
needs nothing else to run Algorithm 2, whose ordering key
``g_U(p) = min_{i in U} p[i]`` it recomputes from them — which is exactly
the per-point size the cost model charges.  Version 1 also shipped the
full-space ``f(p)`` per point, version 2's query carried the scalar
``t`` alone, version 3's record was a fixed 8-byte id plus the
coordinates, point by point, version 4's sent every coordinate as a
whole 8-byte double, version 5's had no zero bitmap, version 6's no
per-column layout, version 7's no gap-coded ids and version 8's no
quantum columns; none of them is decoded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.store import SortedByF
from .cost import (
    CostModel,
    Quanta,
    coord_width,
    id_bytes,
    id_gaps,
    id_width,
    varint_lengths,
    zigzag,
)

__all__ = [
    "HEADER_SIZE",
    "QueryMessage",
    "ResultMessage",
    "WireError",
    "cost_estimate",
    "decode",
    "decode_header",
]

_MAGIC = b"SP"
_VERSION = 9
_HEADER = struct.Struct("<2sBBqI")
_KIND_QUERY = 1
_KIND_RESULT = 2
_KIND_FINAL = 3
_KIND_DECLINE = 4
#: The coordinate width byte's flags: a zero bitmap leads the block,
#: each column has its own width, and the block is quantum-coded (the
#: byte is then this flag alone).
_ZERO_BITMAP = 0x80
_COLUMNS = 0x40
_QUANTA = 0x20
#: The id width byte's flag: the ids travel as LEB128 gaps.
_ID_GAPS = 0x80
#: The shift of each 7-bit group of a 10-byte LEB128 varint.
_SEVEN_BITS = np.arange(0, 70, 7, dtype=np.uint64)

HEADER_SIZE = _HEADER.size


class WireError(ValueError):
    """Raised for malformed or truncated messages."""


@dataclass(frozen=True)
class QueryMessage:
    """``q(U, t, p)`` plus enough routing context to answer it.

    ``point`` is ``p``, on the queried coordinates, or ``None`` (the
    naive baseline's query carries none).
    """

    query_id: int
    subspace: tuple[int, ...]
    threshold: float
    initiator: int
    point: tuple[float, ...] | None = None

    _BODY_HEAD = struct.Struct("<HdqB")

    def encode(self) -> bytes:
        if not self.subspace:
            raise WireError("a query must name at least one dimension")
        k = len(self.subspace)
        if k > 0xFFFF:
            raise WireError("subspace too large")
        point = () if self.point is None else tuple(self.point)
        if self.point is not None and len(point) != k:
            raise WireError(f"the query's point must have {k} coordinates")
        _check_bound(self.threshold, point)
        body = self._BODY_HEAD.pack(k, self.threshold, self.initiator, len(point) // k)
        body += struct.pack(f"<{k}H", *self.subspace)
        body += struct.pack(f"<{len(point)}d", *point)
        return _HEADER.pack(_MAGIC, _VERSION, _KIND_QUERY, self.query_id, len(body)) + body

    def model_bytes(self, model: CostModel) -> int:
        """The cost model's price of this message."""
        return model.query_bytes(len(self.subspace), 0 if self.point is None else 1)

    @classmethod
    def _decode_body(cls, query_id: int, body: bytes) -> "QueryMessage":
        if len(body) < cls._BODY_HEAD.size:
            raise WireError("query body truncated")
        k, threshold, initiator, points = cls._BODY_HEAD.unpack_from(body, 0)
        if points > 1:
            raise WireError(f"a query carries at most one point, not {points}")
        expected = cls._BODY_HEAD.size + 2 * k + 8 * k * points
        if len(body) != expected:
            raise WireError(f"query body has {len(body)} bytes, expected {expected}")
        subspace = struct.unpack_from(f"<{k}H", body, cls._BODY_HEAD.size)
        point = struct.unpack_from(f"<{k * points}d", body, cls._BODY_HEAD.size + 2 * k)
        _check_bound(threshold, point)
        return cls(
            query_id=query_id,
            subspace=tuple(int(d) for d in subspace),
            threshold=threshold,
            initiator=initiator,
            point=point if points else None,
        )


def _check_bound(threshold: float, point: Sequence[float]) -> None:
    """Refuse a NaN threshold (``+inf`` is the naive baseline's) and a
    point coordinate that is not finite: either would make a receiver's
    scan keep nothing and answer an empty list."""
    if math.isnan(threshold):
        raise WireError("a query's threshold is not a number")
    if not all(map(math.isfinite, point)):
        raise WireError("a query's point has a coordinate that is not finite")


@dataclass(frozen=True, eq=False)
class ResultMessage:
    """A local (or progressively merged) result list.

    Only the queried coordinates travel; the full-space points stay at
    their super-peers.  ``ids`` (``int64``, length n) and ``coords``
    (``float64``, n x k) are parallel numpy arrays — any array-like is
    taken at construction, and the rows are kept in ascending id order
    (a stable sort), the order the record sends them in; ``sender`` is
    the super-peer whose list this is (a relay passes it on unchanged).
    ``final`` and ``decline`` ride in the kind byte.  Equality compares
    by value.
    """

    query_id: int
    sender: int
    ids: np.ndarray
    coords: np.ndarray
    final: bool = False
    decline: bool = False

    _BODY_HEAD = struct.Struct("<qIHBB")

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        try:
            coords = np.asarray(self.coords, dtype=np.float64)
        except ValueError:
            raise WireError("ragged coordinate rows") from None
        if coords.ndim != 2:
            if coords.size:
                raise WireError("ragged coordinate rows")
            coords = coords.reshape(0, 0)
        if len(coords) == len(ids) and (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            ids, coords = ids[order], coords[order]
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_store(
        cls, query_id: int, sender: int, result: SortedByF, subspace: Sequence[int],
        final: bool = False,
    ) -> "ResultMessage":
        return cls(
            query_id=query_id,
            sender=sender,
            ids=result.points.ids,
            coords=result.points.values[:, list(subspace)],
            final=final,
        )

    @property
    def k(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultMessage):
            return NotImplemented
        head = (self.query_id, self.sender, self.final, self.decline)
        other_head = (other.query_id, other.sender, other.final, other.decline)
        return (
            head == other_head
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.coords, other.coords)
        )

    def model_bytes(self, model: CostModel) -> int:
        """The cost model's price of this message: of its ids and its
        coordinate block, in the layouts the encoder picks for them."""
        return model.list_bytes(self.ids, self.coords)

    def encode(self) -> bytes:
        n, k = len(self.ids), self.k
        if len(self.coords) != n:
            raise WireError("ids and coords must be parallel")
        if self.decline and n:
            raise WireError("a decline carries no points")
        kind = _KIND_DECLINE if self.decline else _KIND_FINAL if self.final else _KIND_RESULT
        ids = np.ascontiguousarray(self.ids, dtype="<i8")
        width = id_width(ids)
        if id_bytes(ids) < n * width:
            id_block, width = _leb128(id_gaps(ids)), width | _ID_GAPS
        else:
            id_block = _low_bytes(ids, width)
        words = np.ascontiguousarray(self.coords, dtype="<f8").view("<u8")
        layout = coord_width(words.view("<f8"))
        if isinstance(layout[0], Quanta):
            body = (
                self._BODY_HEAD.pack(self.sender, n, k, width, _QUANTA)
                + id_block
                + _quantum_block(words.view("<f8"), layout[0])
            )
            return _HEADER.pack(_MAGIC, _VERSION, kind, self.query_id, len(body)) + body
        widths, sent = np.atleast_1d(layout[0]), np.atleast_1d(layout[1])
        flags, bitmap = 0, b""
        zero: np.ndarray | None = None
        if sent.sum() < words.size:
            zero = words == 0
            flags, bitmap = _ZERO_BITMAP, np.packbits(zero, bitorder="little").tobytes()
        if len(widths) == 1:
            groups = [words.reshape(-1) if zero is None else words[~zero]]
        else:
            flags |= _COLUMNS
            groups = [
                np.ascontiguousarray(words[:, j] if zero is None else words[~zero[:, j], j])
                for j in range(self.k)
            ]
        # Each group's high ``8 - c`` bytes are the same in every value
        # it sends: its first value's go once.
        body = (
            self._BODY_HEAD.pack(self.sender, n, k, width, int(widths[0]) | flags)
            + bytes(widths[1:].tolist())
            + id_block
            + bitmap
            + b"".join(
                group[:1].tobytes()[low:] + _low_bytes(group, low)
                for group, low in zip(groups, widths.tolist())
            )
        )
        return _HEADER.pack(_MAGIC, _VERSION, kind, self.query_id, len(body)) + body

    @classmethod
    def _decode_body(cls, query_id: int, body: bytes, kind: int) -> "ResultMessage":
        head = cls._BODY_HEAD.size
        if len(body) < head:
            raise WireError("result body truncated")
        sender, n, k, id_byte, block = cls._BODY_HEAD.unpack_from(body, 0)
        if kind == _KIND_DECLINE and n:
            raise WireError("a decline carries no points")
        width = id_byte & ~_ID_GAPS
        if not 1 <= width <= 8:
            raise WireError(f"id width {id_byte} is not 1..8 bytes, or that plus {_ID_GAPS:#x}")
        widths: np.ndarray | None = None
        ids_at = head
        if block & _QUANTA:
            if block != _QUANTA:
                raise WireError(f"coordinate width {block} sets {_QUANTA:#x} beside other bits")
        else:
            widths, ids_at = _coord_widths(body, block, n, k)
        if id_byte & _ID_GAPS:
            ids, id_size = _gap_ids(body, ids_at, n, width)
        else:
            id_size = n * width
            if len(body) < ids_at + id_size:
                raise WireError("result ids truncated")
            # Zero-extend each id to 8 bytes; width 8 carries negatives as they are.
            ids = _words(body, ids_at, n, width, 0).view("<i8")
        if (ids[1:] < ids[:-1]).any():
            raise WireError("the ids are not in ascending order")
        _check_id_layout(ids, id_byte, id_size)
        start = ids_at + id_size
        if widths is None:
            coords = _quantum_values(body, start, n, k)
        else:
            coords = _byte_values(body, start, block, widths, n, k)
        return cls(
            query_id=query_id,
            sender=sender,
            ids=ids,
            coords=coords,
            final=kind != _KIND_RESULT,
            decline=kind == _KIND_DECLINE,
        )

    def to_store(self) -> SortedByF:
        """Rebuild a sorted store of the *projected* points.

        The reconstructed points live in the query subspace (the wire
        carries nothing else), so ``SortedByF.from_points`` keys them on
        ``g_U`` — the minimum over the queried coordinates, which is the
        key Algorithm 2 merges on — whatever order the sender had them in.
        """
        if not len(self.ids):
            return SortedByF.empty(self.k or 1)
        return SortedByF.from_points(PointSet(self.coords, self.ids))


def _byte_values(
    body: bytes, start: int, block: int, widths: np.ndarray, n: int, k: int
) -> np.ndarray:
    """The ``n x k`` doubles of the byte-grouped block (any layout but
    the quantum one) at ``start`` in ``body``, ``block`` its width byte
    and ``widths`` what :func:`_coord_widths` read."""
    size = n * k
    zero: np.ndarray | None = None
    if block & _ZERO_BITMAP:
        zero = _zero_bitmap(body, start, size)
        start += (size + 7) // 8
    sent = _sent_counts(zero, widths, n, k)
    _check_body_size(len(body), start, widths, sent)
    # Each group's shared high bytes, then each sent value's low bytes.
    groups: list[np.ndarray] = []
    for low, count in zip(widths.tolist(), sent.tolist()):
        shared = 8 - low
        high = int.from_bytes(bytes(low) + body[start : start + shared], "little")
        groups.append(_words(body, start + shared, count, low, high))
        start += shared + count * low
    if zero is None and len(widths) == 1:
        coords = groups[0].reshape(n, k)
    else:
        coords = np.zeros((n, k), dtype="<u8")
        sent_at = np.ones((n, k), bool) if zero is None else ~zero.reshape(n, k)
        if len(widths) == 1:
            coords[sent_at] = groups[0]
        else:
            coords.T[sent_at.T] = np.concatenate(groups)  # column by column
    _check_byte_layout(coords.view("<f8"), block, widths, sent)
    return coords.view("<f8")


def _check_byte_layout(
    coords: np.ndarray, block: int, widths: np.ndarray, sent: np.ndarray
) -> None:
    """Refuse a byte-grouped block the encoder would not write for the
    ``coords`` it holds: its flags, its widths and the values each group
    sends must be :func:`repro.p2p.cost.coord_width`'s, so a width wider
    than its group's shared bytes need, a ``+0.0`` sent beside a bitmap,
    and a layout that is not the smallest are all refused."""
    layout = coord_width(coords)
    if isinstance(layout[0], Quanta):
        raise WireError("a byte-coded block is not smaller than its quantum layout")
    own_widths, own_sent = np.atleast_1d(layout[0]), np.atleast_1d(layout[1])
    flags = _ZERO_BITMAP if own_sent.sum() < coords.size else 0
    if len(own_widths) > 1:
        flags |= _COLUMNS
    read = (block & (_ZERO_BITMAP | _COLUMNS), widths.tolist(), sent.tolist())
    own = (flags, own_widths.tolist(), own_sent.tolist())
    if read != own:
        raise WireError(f"coordinate layout {read} is not its values' own {own}")


def _check_id_layout(ids: np.ndarray, id_byte: int, size: int) -> None:
    """Refuse an id block of ``size`` bytes the encoder would not write
    for ``ids``: its width must be :func:`repro.p2p.cost.id_width`'s, and
    it must be gap-coded, in minimal varints, exactly when
    :func:`repro.p2p.cost.id_bytes` finds the gaps smaller."""
    width = id_byte & ~_ID_GAPS
    own = id_width(ids)
    if width != own:
        raise WireError(f"id width {width} is not the ids' own {own}")
    if size != id_bytes(ids):
        raise WireError(f"an id block of {size} bytes is not the ids' own {id_bytes(ids)}")


def _quantum_block(values: np.ndarray, quanta: Quanta) -> bytes:
    """The quantum-coded block of the ``n x k`` doubles ``values`` in the
    layout ``quanta`` (:func:`repro.p2p.cost.quantize` of them): per
    column its exponent, base and width, then its integers less the base,
    bit-packed."""
    exponents = np.array(quanta.exponents)[:, None]
    residues = np.ldexp(values.T, -exponents).astype("<u8", order="C")
    residues -= np.array(quanta.bases, dtype=np.uint64)[:, None]
    # Column j's residues bit by bit, lowest bit first: an n x 64 plane.
    planes = np.unpackbits(
        residues.view(np.uint8).reshape(*residues.shape, 8), axis=2, bitorder="little"
    )
    out: list[bytes] = []
    for q, base, width, plane in zip(quanta.exponents, quanta.bases, quanta.bits, planes):
        out += [_varint_bytes(zigzag(q)), _varint_bytes(base), bytes([width])]
        out.append(np.packbits(plane[:, :width], bitorder="little").tobytes())
    return b"".join(out)


def _quantum_values(body: bytes, offset: int, n: int, k: int) -> np.ndarray:
    """The ``n x k`` doubles of the quantum-coded block that runs from
    ``offset`` to the end of ``body``: column ``j``'s are
    ``ldexp(base_j + r, q_j)``, every one exact.

    Refuses every block :func:`_quantum_block` would not write: one cut
    short or running past its columns, a varint that is not minimal or
    passes 64 bits, a width above 64, a non-zero padding bit, an
    exponent outside -1074..1023, an integer past 64 bits or with more
    than 53 significant ones, a value that is not finite, and then any
    block whose exponents, bases and widths are not the
    :func:`repro.p2p.cost.coord_width` of the values it holds: an
    exponent that is not the largest, a base that is not the smallest
    integer, a width that is not the fewest bits, or a block that is
    not strictly smaller than its version 8 layout.
    """
    if not n * k:
        raise WireError("an empty block is never quantum-coded")
    exponents: list[int] = []
    bases: list[int] = []
    widths: list[int] = []
    planes = np.zeros((k, n, 64), np.uint8)
    for j in range(k):
        word, offset = _varint(body, offset)
        base, offset = _varint(body, offset)
        if len(body) <= offset:
            raise WireError("quantum column truncated")
        width = body[offset]
        if width > 64:
            raise WireError(f"a quantum column of {width} bits is past 64")
        size = n * width
        if len(body) < offset + 1 + (size + 7) // 8:
            raise WireError("quantum column truncated")
        packed = np.frombuffer(body, np.uint8, (size + 7) // 8, offset + 1)
        offset += 1 + len(packed)
        if size % 8 and packed[-1] >> size % 8:
            raise WireError("a quantum column sets a padding bit")
        planes[j, :, :width] = np.unpackbits(packed, count=size, bitorder="little").reshape(n, -1)
        exponents.append((word >> 1) ^ -(word & 1))
        bases.append(base)
        widths.append(width)
    if offset != len(body):
        raise WireError(f"result body has {len(body)} bytes, expected {offset}")
    if not -1074 <= min(exponents) <= max(exponents) <= 1023:
        raise WireError(f"a quantum exponent of {exponents} is not -1074..1023")
    residues = np.packbits(planes, axis=2, bitorder="little").view("<u8")[..., 0]
    if any((base + top) >> 64 for base, top in zip(bases, residues.max(axis=1).tolist())):
        raise WireError("a quantum integer is past 64 bits")
    integers = residues + np.array(bases, dtype=np.uint64)[:, None]
    doubles = integers.astype("<f8")
    with np.errstate(invalid="ignore"):  # one rounded up to 2**64 fails the test either way
        if (doubles.astype(np.uint64) != integers).any():
            raise WireError("a quantum integer has more than 53 significant bits")
    with np.errstate(over="ignore"):
        coords = np.ldexp(doubles, np.array(exponents)[:, None]).T.copy()
    if not np.isfinite(coords).all():
        raise WireError("a quantum column holds a value past the largest double")
    read = Quanta(tuple(exponents), tuple(bases), tuple(widths))
    layout = coord_width(coords)[0]
    if not isinstance(layout, Quanta):
        raise WireError("a quantum-coded block is not smaller than its version 8 layout")
    if layout != read:
        raise WireError(f"quantum columns {read} are not their values' own {layout}")
    return coords


def _varint(body: bytes, offset: int) -> tuple[int, int]:
    """The minimal LEB128 varint of at most 64 bits at ``offset`` in
    ``body``, and the offset past it."""
    value = 0
    for place in range(10):
        if len(body) <= offset + place:
            raise WireError("quantum varint truncated")
        byte = body[offset + place]
        value |= (byte & 0x7F) << 7 * place
        if byte < 0x80:
            if place and not byte:
                raise WireError("a quantum varint is not minimal")
            if value >> 64:
                raise WireError("a quantum varint overflows 64 bits")
            return value, offset + place + 1
    raise WireError("a quantum varint is longer than 10 bytes")


def _varint_bytes(value: int) -> bytes:
    """The LEB128 varint of the non-negative integer ``value``."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _gap_ids(body: bytes, offset: int, n: int, width: int) -> tuple[np.ndarray, int]:
    """The ``n`` ids of the gap-coded block at ``offset`` in ``body`` —
    the smallest in zigzag LEB128, then each ascending gap in LEB128 —
    and the block's length.

    Refuses a varint cut short or longer than 10 bytes, one that
    overflows 64 bits, and a block that is not strictly smaller than the
    ``n·width`` column the encoder would have sent instead.  The ids may
    still wrap past the largest ``int64``; the caller's ascending check
    refuses that.
    """
    window = np.frombuffer(body[offset : offset + 10 * n], np.uint8)
    ends = np.flatnonzero(window < 0x80)[:n]
    lengths = np.diff(ends, prepend=-1)
    tail = window.size - (int(ends[-1]) + 1 if ends.size else 0)
    if (lengths > 10).any() or (ends.size < n and tail >= 10):
        raise WireError("an id varint is longer than 10 bytes")
    if ends.size < n:
        raise WireError("id varints truncated")
    size = int(ends[-1]) + 1 if n else 0
    if size >= n * width:
        raise WireError(f"a gap-coded id block of {size} bytes is not smaller than {n} x {width}")
    if (window[ends[lengths == 10]] > 1).any():
        raise WireError("an id varint overflows 64 bits")
    starts = ends + 1 - lengths
    shifts = _SEVEN_BITS[np.arange(size) - np.repeat(starts, lengths)]
    words = np.bitwise_or.reduceat((window[:size] & 0x7F).astype(np.uint64) << shifts, starts)
    first = int(words[0])
    words[0] = ((first >> 1) ^ -(first & 1)) & 0xFFFF_FFFF_FFFF_FFFF
    # Each sum wraps modulo 2**64, as each gap was taken.
    return np.cumsum(words, dtype=np.uint64).view("<i8"), size


def _leb128(words: np.ndarray) -> bytes:
    """The LEB128 varints of the ``uint64`` ``words``, back to back."""
    lengths = varint_lengths(words)
    ends = np.cumsum(lengths) - 1
    # Each output byte: its word shifted by 7 bits a place, 0x80 on all
    # but a varint's last byte (whose group is below 0x80 already).
    place = np.arange(ends[-1] + 1 if words.size else 0) - np.repeat(ends + 1 - lengths, lengths)
    groups = (np.repeat(words, lengths) >> _SEVEN_BITS[place]).astype(np.uint8) | np.uint8(0x80)
    groups[ends] &= 0x7F
    return groups.tobytes()


def _coord_widths(body: bytes, block: int, n: int, k: int) -> tuple[np.ndarray, int]:
    """The coordinate widths a result body announces — its width byte
    ``block``'s, and the other ``k - 1`` columns' after the head when
    ``block`` is column-flagged — and the offset its ids start at.

    Refuses a width outside 0..8, a reserved bit, an empty block of a
    width other than 8, a per-column block of fewer than two columns or
    points (one group is never larger), and column widths cut short.
    """
    low = block & ~(_ZERO_BITMAP | _COLUMNS)
    if low > 8:
        raise WireError(
            f"coordinate width {block} is not 0..8 bytes, or that plus "
            f"{_ZERO_BITMAP:#x} and {_COLUMNS:#x}"
        )
    head = ResultMessage._BODY_HEAD.size
    if not block & _COLUMNS:
        if not n * k and low != 8:
            raise WireError(f"an empty coordinate block has width 8, not {low}")
        return np.array([low]), head
    if k < 2 or n < 2:
        raise WireError(f"a per-column block has two or more columns and points, not {k} and {n}")
    if len(body) < head + k - 1:
        raise WireError("column widths truncated")
    widths = np.array([low, *body[head : head + k - 1]])
    if widths.max() > 8:
        raise WireError(f"coordinate width {widths.max()} is not 0..8 bytes")
    return widths, head + k - 1


def _sent_counts(zero: np.ndarray | None, widths: np.ndarray, n: int, k: int) -> np.ndarray:
    """How many coordinates each group of an ``n x k`` block of
    ``widths`` sends, ``zero`` its bitmap (``None`` when it has none);
    refuses a column that sends nothing at a width other than 8."""
    if zero is None:
        return np.full(len(widths), n * k // len(widths))
    if len(widths) == 1:
        return np.array([n * k - int(np.count_nonzero(zero))])
    sent = n - np.count_nonzero(zero.reshape(n, k), axis=0)
    if (widths[sent == 0] != 8).any():
        raise WireError(f"a column the bitmap marks entirely has width 8, not {widths.tolist()}")
    return sent


def _check_body_size(size: int, start: int, widths: np.ndarray, sent: np.ndarray) -> None:
    """Refuse a result body of ``size`` bytes unless its groups, from
    ``start`` on, fill it: each group's shared high bytes, then the low
    bytes of the ``sent`` values it carries."""
    expected = start + int((8 - widths).sum()) + int(sent @ widths)
    if size != expected:
        raise WireError(f"result body has {size} bytes, expected {expected}")


def _zero_bitmap(body: bytes, offset: int, size: int) -> np.ndarray:
    """The ``+0.0`` mask (``bool``, row-major) of a flagged block of
    ``size`` coordinates whose bitmap starts at ``offset`` in ``body``;
    refuses a bitmap that is cut short, sets a padding bit, or marks
    none or all of the block (such a block is never flagged)."""
    nbytes = (size + 7) // 8
    if len(body) < offset + nbytes:
        raise WireError("zero bitmap truncated")
    packed = np.frombuffer(body, np.uint8, nbytes, offset)
    if size % 8 and packed[-1] >> (size % 8):
        raise WireError("zero bitmap sets a padding bit")
    zero = np.unpackbits(packed, count=size, bitorder="little").view(bool)
    if not 0 < np.count_nonzero(zero) < size:
        raise WireError("a zero bitmap marks some, not none or all, of its block")
    return zero


def _low_bytes(words: np.ndarray, width: int) -> bytes:
    """The low ``width`` bytes of each 8-byte little-endian word of the
    contiguous array ``words``, word after word."""
    if width == 8:
        return words.tobytes()
    if not width or not words.size:
        return b""
    # One ``width``-byte item every 8 bytes: a strided copy of whole items.
    return np.ndarray((words.size,), f"V{width}", words, strides=(8,)).tobytes()


def _words(body: bytes, offset: int, count: int, width: int, high: int) -> np.ndarray:
    """``count`` 8-byte little-endian words (``uint64``) whose low
    ``width`` bytes lie back to back at ``offset`` in ``body`` and whose
    high bytes are those of ``high``: the inverse of :func:`_low_bytes`."""
    words = np.full(count, high, dtype="<u8")
    if width and count:
        items = np.frombuffer(body, f"V{width}", count, offset)
        np.ndarray((count,), f"V{width}", words, strides=(8,))[...] = items
    return words


def decode_header(blob: bytes) -> tuple[int, int, int]:
    """Validate a message header; returns ``(kind, query_id, body length)``.

    Every check happens *before* any payload ``struct`` unpacking, so a
    partial TCP read (header present, payload short) surfaces as a
    :class:`WireError` — never a raw ``struct.error``.
    """
    if len(blob) < _HEADER.size:
        raise WireError(f"message shorter than header ({len(blob)} < {_HEADER.size} bytes)")
    magic, version, kind, query_id, length = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise WireError(f"unsupported version {version}")
    if kind not in (_KIND_QUERY, _KIND_RESULT, _KIND_FINAL, _KIND_DECLINE):
        raise WireError(f"unknown message kind {kind}")
    return kind, query_id, length


def decode(blob: bytes) -> QueryMessage | ResultMessage:
    """Decode one framed message (the inverse of ``encode``)."""
    kind, query_id, length = decode_header(blob)
    body = blob[_HEADER.size :]
    if len(body) < length:
        # Truncated payload: the length field promises more bytes than
        # arrived.  Hot on stream transports, where a short read can
        # split any field boundary — reject before unpacking anything.
        raise WireError(
            f"truncated payload: body has {len(body)} bytes, "
            f"header promises {length}"
        )
    if len(body) > length:
        raise WireError(
            f"trailing garbage: body has {len(body)} bytes, "
            f"header promises {length}"
        )
    if kind == _KIND_QUERY:
        return QueryMessage._decode_body(query_id, body)
    return ResultMessage._decode_body(query_id, body, kind)


def cost_estimate(blob: bytes, model: CostModel) -> int:
    """The cost model's byte estimate for one encoded message: its
    price of the message :func:`decode` reads from ``blob``
    (``model_bytes``), so it refuses what :func:`decode` refuses.  A
    sender that holds the message prices it without the decode.

    A transport tallies this *estimated* size next to the *measured*
    ``len(blob)`` it actually puts on the wire.  For every record the
    encoder writes the two differ by a constant per-message framing
    delta — see ``docs/TRANSPORT.md`` — because the model charges an
    abstract ``message_header_bytes`` envelope instead of this codec's
    packed header.
    """
    return decode(blob).model_bytes(model)
