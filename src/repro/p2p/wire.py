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
  the bound ``(t, p)`` of ``q(U, t, p)``.
* ``ResultMessage`` — sender (8B), point count n (4B), query
  dimensionality k (2B), id width w (1B), coordinate width c (1B, its
  ``0x80`` bit the zero-bitmap flag, its other high bits reserved and
  refused), then the n ids, each little-endian in ``w`` bytes, then the
  coordinate block: when flagged, a bitmap of ``ceil(n*k/8)`` bytes
  (``np.packbits(..., bitorder="little")`` of the row-major n x k
  block) whose set bits mark the coordinates that are ``+0.0``; then
  the ``8 - c`` high bytes every sent coordinate shares, once, and each
  sent coordinate's ``c`` low bytes (little-endian, row-major).  A
  flagged block sends the coordinates its bitmap does not mark, any
  other block all n x k.  ``w`` is :func:`repro.p2p.cost.id_width` of
  the ids — the fewest whole bytes that hold the largest one, 8 if any
  is negative — and ``c`` and the flag come from
  :func:`repro.p2p.cost.coord_width` of the block — a block is flagged
  when it holds ``+0.0`` and another value, and ``c`` is 8 less the
  whole high bytes the float64 bit patterns it sends all share, 8 when
  it is empty — so the record costs what the cost model charges for
  it, and every double comes back bit for bit.
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
whole 8-byte double, and version 5's had no zero bitmap; none of them
is decoded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.store import SortedByF
from .cost import CostModel, coord_width, id_width

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
_VERSION = 6
_HEADER = struct.Struct("<2sBBqI")
_KIND_QUERY = 1
_KIND_RESULT = 2
_KIND_FINAL = 3
_KIND_DECLINE = 4
#: The coordinate width byte's flag: a zero bitmap leads the block.
_ZERO_BITMAP = 0x80

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
        body = self._BODY_HEAD.pack(k, self.threshold, self.initiator, len(point) // k)
        body += struct.pack(f"<{k}H", *self.subspace)
        body += struct.pack(f"<{len(point)}d", *point)
        return _HEADER.pack(_MAGIC, _VERSION, _KIND_QUERY, self.query_id, len(body)) + body

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
        return cls(
            query_id=query_id,
            subspace=tuple(int(d) for d in subspace),
            threshold=threshold,
            initiator=initiator,
            point=point if points else None,
        )


@dataclass(frozen=True, eq=False)
class ResultMessage:
    """A local (or progressively merged) result list.

    Only the queried coordinates travel; the full-space points stay at
    their super-peers.  ``ids`` (``int64``, length n) and ``coords``
    (``float64``, n x k) are parallel numpy arrays — any array-like is
    taken at construction; ``sender`` is the super-peer whose list this
    is (a relay passes it on unchanged).  ``final`` and ``decline`` ride
    in the kind byte.  Equality compares by value.
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

    def encode(self) -> bytes:
        n, k = len(self.ids), self.k
        if len(self.coords) != n:
            raise WireError("ids and coords must be parallel")
        if self.decline and n:
            raise WireError("a decline carries no points")
        kind = _KIND_DECLINE if self.decline else _KIND_FINAL if self.final else _KIND_RESULT
        width = id_width(self.ids)
        words = np.ascontiguousarray(self.coords, dtype="<f8").reshape(-1).view("<u8")
        low, sent = coord_width(words.view("<f8"))
        flag, bitmap = 0, b""
        if sent < words.size:
            zero = words == 0
            flag, bitmap = _ZERO_BITMAP, np.packbits(zero, bitorder="little").tobytes()
            words = words[~zero]
        # The high ``8 - low`` bytes are the same in every sent coordinate:
        # the first one's go once.
        body = (
            self._BODY_HEAD.pack(self.sender, n, k, width, low | flag)
            + _low_bytes(np.ascontiguousarray(self.ids, dtype="<i8"), width)
            + bitmap
            + words[:1].tobytes()[low:]
            + _low_bytes(words, low)
        )
        return _HEADER.pack(_MAGIC, _VERSION, kind, self.query_id, len(body)) + body

    @classmethod
    def _decode_body(cls, query_id: int, body: bytes, kind: int) -> "ResultMessage":
        head = cls._BODY_HEAD.size
        if len(body) < head:
            raise WireError("result body truncated")
        sender, n, k, width, block = cls._BODY_HEAD.unpack_from(body, 0)
        if kind == _KIND_DECLINE and n:
            raise WireError("a decline carries no points")
        if not 1 <= width <= 8:
            raise WireError(f"id width {width} is not 1..8 bytes")
        low, size, start = _coord_width_byte(block), n * k, head + n * width
        if not size and low != 8:
            raise WireError(f"an empty coordinate block has width 8, not {low}")
        zero: np.ndarray | None = None
        marked = 0
        if block & _ZERO_BITMAP:
            zero, marked = _zero_bitmap(body, start, size)
            start += (size + 7) // 8
        sent = size - marked
        shared = 8 - low
        expected = start + shared + sent * low
        if len(body) != expected:
            raise WireError(f"result body has {len(body)} bytes, expected {expected}")
        # Zero-extend each id to 8 bytes; width 8 carries negatives as they are.
        ids = _words(body, head, n, width, 0)
        # The shared high bytes, then each sent coordinate's low bytes.
        high = int.from_bytes(bytes(low) + body[start : start + shared], "little")
        coords = _words(body, start + shared, sent, low, high)
        if zero is not None:
            words, coords = coords, np.zeros(size, dtype="<u8")
            coords[~zero] = words
        return cls(
            query_id=query_id,
            sender=sender,
            ids=ids.view("<i8"),
            coords=coords.view("<f8").reshape(n, k),
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


def _coord_width_byte(block: int) -> int:
    """The coordinate width ``c`` a body head's width byte carries,
    refusing one outside 0..8 or with a reserved bit set."""
    low = block & ~_ZERO_BITMAP
    if low > 8:
        raise WireError(f"coordinate width {block} is not 0..8 bytes, or that plus {_ZERO_BITMAP}")
    return low


def _zero_bitmap(body: bytes, offset: int, size: int) -> tuple[np.ndarray, int]:
    """The ``+0.0`` mask (``bool``, row-major) of a flagged block of
    ``size`` coordinates whose bitmap starts at ``offset`` in ``body``,
    and how many it marks; refuses a bitmap that is cut short, sets a
    padding bit, or marks none or all of the block (such a block is
    never flagged)."""
    nbytes = (size + 7) // 8
    if len(body) < offset + nbytes:
        raise WireError("zero bitmap truncated")
    packed = np.frombuffer(body, np.uint8, nbytes, offset)
    if size % 8 and packed[-1] >> (size % 8):
        raise WireError("zero bitmap sets a padding bit")
    zero = np.unpackbits(packed, count=size, bitorder="little").view(bool)
    marked = int(np.count_nonzero(zero))
    if not 0 < marked < size:
        raise WireError("a zero bitmap marks some, not none or all, of its block")
    return zero, marked


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
    """The cost model's byte estimate for one encoded message.

    Reads only the header, the fixed-size body head and a flagged
    block's zero bitmap (guarded, like :func:`decode`), so a transport
    can tally *estimated* bytes next to the *measured* ``len(blob)`` it
    actually puts on the wire.  The two differ by a constant
    per-message framing delta — see ``docs/TRANSPORT.md`` — because the
    model charges an abstract ``message_header_bytes`` envelope instead
    of this codec's packed header.
    """
    kind, _, length = decode_header(blob)
    body = blob[_HEADER.size :]
    if len(body) < length:
        raise WireError(
            f"truncated payload: body has {len(body)} bytes, "
            f"header promises {length}"
        )
    if kind == _KIND_QUERY:
        if len(body) < QueryMessage._BODY_HEAD.size:
            raise WireError("query body truncated")
        k, _, _, points = QueryMessage._BODY_HEAD.unpack_from(body, 0)
        return model.query_bytes(k, points)
    if len(body) < ResultMessage._BODY_HEAD.size:
        raise WireError("result body truncated")
    _, n, k, width, block = ResultMessage._BODY_HEAD.unpack_from(body, 0)
    low, size = _coord_width_byte(block), n * k
    sent = size
    if block & _ZERO_BITMAP:
        sent -= _zero_bitmap(body, ResultMessage._BODY_HEAD.size + n * width, size)[1]
    return model.result_bytes(n, k, width, low, sent)
