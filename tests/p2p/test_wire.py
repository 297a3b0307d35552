"""Unit tests for the wire format."""

import math
import struct

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.cost import DEFAULT_COST_MODEL, coord_width, id_width
from repro.p2p.wire import (
    HEADER_SIZE,
    QueryMessage,
    ResultMessage,
    WireError,
    cost_estimate,
    decode,
    decode_header,
)


class TestQueryMessage:
    def test_roundtrip(self):
        msg = QueryMessage(query_id=7, subspace=(0, 3, 6), threshold=0.25, initiator=42)
        assert decode(msg.encode()) == msg

    def test_roundtrip_with_and_without_a_point(self):
        """``q(U, t, p)``: the point count is 0 or 1, the point k doubles."""
        bare = QueryMessage(7, (0, 3, 6), 0.25, 42)
        pointed = QueryMessage(7, (0, 3, 6), 0.25, 42, point=(0.125, 0.5, 1e-300))
        for msg in (bare, pointed):
            back = decode(msg.encode())
            assert back == msg and back.point == msg.point
        assert len(pointed.encode()) - len(bare.encode()) == 3 * 8

    def test_point_must_have_k_coordinates(self):
        with pytest.raises(WireError, match="3 coordinates"):
            QueryMessage(1, (0, 1, 2), 1.0, 0, point=(0.5, 0.5)).encode()

    def test_more_than_one_point_rejected(self):
        blob = bytearray(QueryMessage(1, (0, 1), 1.0, 0, point=(0.5, 0.25)).encode())
        blob[HEADER_SIZE + 18] = 2  # the point count
        blob += struct.pack("<2d", 0.5, 0.25)
        struct.pack_into("<I", blob, 12, len(blob) - HEADER_SIZE)
        with pytest.raises(WireError, match="at most one point"):
            decode(bytes(blob))

    def test_infinite_threshold_roundtrips(self):
        msg = QueryMessage(query_id=1, subspace=(2,), threshold=math.inf, initiator=0)
        assert decode(msg.encode()).threshold == math.inf

    def test_empty_subspace_rejected(self):
        with pytest.raises(WireError, match="at least one"):
            QueryMessage(query_id=1, subspace=(), threshold=1.0, initiator=0).encode()

    def test_byte_size_matches_structure(self):
        """Size = header(16) + k*2 + threshold(8) + initiator(8) + count(1)."""
        k3 = len(QueryMessage(1, (0, 1, 2), 1.0, 0).encode())
        k5 = len(QueryMessage(1, (0, 1, 2, 3, 4), 1.0, 0).encode())
        assert k5 - k3 == 4  # two more 2-byte dimension tags


class TestResultMessage:
    def _store(self, rng, n=10, d=4) -> SortedByF:
        return SortedByF.from_points(PointSet(rng.random((n, d)), np.arange(100, 100 + n)))

    def test_roundtrip(self, rng):
        store = self._store(rng)
        msg = ResultMessage.from_store(9, sender=3, result=store, subspace=(0, 2))
        back = decode(msg.encode())
        assert back == msg
        assert back.k == 2
        assert len(back) == 10

    def test_to_store_keys_on_the_queried_coordinates(self, rng):
        """The record carries no key: the rebuilt list is sorted on the
        minimum over the coordinates that travelled (ties in wire order),
        whatever order the sender's full-space ``f`` had them in."""
        store = self._store(rng, n=40)
        msg = ResultMessage.from_store(9, sender=3, result=store, subspace=(1, 3))
        rebuilt = decode(msg.encode()).to_store()
        proj = store.points.values[:, [1, 3]]
        order = np.argsort(proj.min(axis=1), kind="stable")
        assert not np.array_equal(order, np.arange(40)), "fixture must reorder"
        assert np.array_equal(rebuilt.points.ids, store.points.ids[order])
        assert np.array_equal(rebuilt.points.values, proj[order])
        assert np.array_equal(rebuilt.f, proj.min(axis=1)[order])

    def test_empty_result(self):
        for final in (False, True):
            msg = ResultMessage(query_id=1, sender=2, ids=(), coords=(), final=final)
            back = decode(msg.encode())
            assert back == msg and back.final is final and not back.decline
            assert len(back) == 0
            assert len(back.to_store()) == 0

    def test_per_point_size_matches_cost_model_shape(self):
        """Growth per point is the message's id width + k coordinates at
        the message's coordinate width; ids 100 and 101 fit in one byte,
        and coordinates in [0.5, 1) share their top byte, 0x3F."""
        rows = [(0.5, 0.75, 0.625), (0.5625, 0.875, 0.5)]
        b1 = len(ResultMessage(1, 0, (100,), rows[:1]).encode())
        b2 = len(ResultMessage(1, 0, (100, 101), rows).encode())
        assert coord_width(rows[:1]) == coord_width(rows) == 7
        assert b2 - b1 == 1 + 3 * 7 == DEFAULT_COST_MODEL.point_bytes(3, 1, 7)

    @pytest.mark.parametrize(
        "largest,width", [(255, 1), (256, 2), (2**24, 4), (2**63 - 1, 8), (-1, 8)]
    )
    def test_the_id_column_is_as_wide_as_the_largest_id(self, largest, width):
        """The body is the head, then ``n * w`` id bytes, then the
        ``n x k`` coordinate block (whole doubles here: 0.0 shares no
        byte with 0.5); every id decodes to its own value."""
        ids = (0, 7, largest)
        coords = ((0.5, 0.25), (0.125, 1.0), (2.0, 0.0))
        blob = ResultMessage(1, 3, ids, coords).encode()
        head = HEADER_SIZE + 16
        assert (blob[head - 2], blob[head - 1]) == (width, 8)
        assert len(blob) == head + 3 * width + 3 * 2 * 8
        column = blob[head : head + 3 * width]
        assert column[:width] == bytes(width)  # id 0
        assert column[width : 2 * width] == (7).to_bytes(width, "little")
        assert blob[head + 3 * width :] == np.array(coords).astype("<f8").tobytes()
        back = decode(blob)
        assert back.ids.dtype == np.int64 and back.ids.tolist() == list(ids)
        assert back.coords.tolist() == [list(row) for row in coords]

    def test_equality_compares_by_value(self):
        a = ResultMessage(1, 2, (5, 6), ((0.5,), (0.25,)))
        assert a == ResultMessage(1, 2, np.array([5, 6]), np.array([[0.5], [0.25]]))
        assert a != ResultMessage(1, 2, (5, 7), ((0.5,), (0.25,)))
        assert a != ResultMessage(1, 2, (5, 6), ((0.5,), (0.5,)))
        assert a != ResultMessage(1, 2, (5, 6), ((0.5,), (0.25,)), final=True)
        assert a != ResultMessage(1, 2, (5, 6), ((0.5, 0.5), (0.25, 0.25)))

    def test_ragged_coords_rejected(self):
        with pytest.raises(WireError, match="ragged"):
            ResultMessage(query_id=1, sender=0, ids=(1, 2), coords=((1.0, 2.0), (1.0,)))

    def test_parallel_arrays_enforced(self):
        msg = ResultMessage(query_id=1, sender=0, ids=(1,), coords=())
        with pytest.raises(WireError, match="parallel"):
            msg.encode()

    def test_final_mark_rides_in_the_kind_byte(self, rng):
        """Marking a list final costs no byte, so the envelope deltas of
        docs/TRANSPORT.md do not move."""
        store = self._store(rng)
        plain = ResultMessage.from_store(9, sender=3, result=store, subspace=(0, 2))
        final = ResultMessage.from_store(9, sender=3, result=store, subspace=(0, 2), final=True)
        assert len(final.encode()) == len(plain.encode())
        assert decode(final.encode()) == final
        assert decode(final.encode()).final and not decode(plain.encode()).final

    def test_decline_is_an_empty_last_word(self):
        decline = ResultMessage(1, sender=2, ids=(), coords=(), final=True, decline=True)
        empty = ResultMessage(1, sender=2, ids=(), coords=())
        back = decode(decline.encode())
        assert back == decline and back.decline and back.final
        assert len(decline.encode()) == len(empty.encode())
        assert cost_estimate(decline.encode(), DEFAULT_COST_MODEL) == (
            DEFAULT_COST_MODEL.result_bytes(0, 0, 1, 8)
        )

    def test_decline_with_points_rejected(self, rng):
        store = self._store(rng, n=1)
        body = bytearray(ResultMessage.from_store(1, 0, store, (0,)).encode())
        body[3] = 4  # the decline kind
        with pytest.raises(WireError, match="decline"):
            decode(bytes(body))
        with pytest.raises(WireError, match="decline"):
            ResultMessage(1, 0, (5,), ((0.5,),), decline=True).encode()


class TestFraming:
    def test_bad_magic(self):
        blob = QueryMessage(1, (0,), 1.0, 0).encode()
        with pytest.raises(WireError, match="magic"):
            decode(b"XX" + blob[2:])

    def test_truncated_header(self):
        with pytest.raises(WireError, match="shorter than header"):
            decode(b"SP")

    def test_truncated_body(self):
        blob = QueryMessage(1, (0, 1), 1.0, 0).encode()
        with pytest.raises(WireError):
            decode(blob[:-2])

    def test_unknown_version(self):
        blob = bytearray(QueryMessage(1, (0,), 1.0, 0).encode())
        blob[2] = 99
        with pytest.raises(WireError, match="version"):
            decode(bytes(blob))

    def test_version_1_is_not_decoded(self, rng):
        """The record that carried f per point: refused by its version
        byte, for queries and results alike, before any body is read."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0,), 1.0, 0),
            ResultMessage.from_store(1, 0, store, (0, 2)),
        ):
            blob = bytearray(message.encode())
            assert blob[2] == 5
            blob[2] = 1
            with pytest.raises(WireError, match=r"^unsupported version 1$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 1$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_2_is_not_decoded(self, rng):
        """The query that carried the scalar ``t`` alone (and the result
        record of that version): refused by the version byte."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0),
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
        ):
            blob = bytearray(message.encode())
            blob[2] = 2
            with pytest.raises(WireError, match=r"^unsupported version 2$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 2$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_3_is_not_decoded(self, rng):
        """The record with a fixed 8-byte id per point, interleaved with
        its coordinates: refused by the version byte, with no selector
        and no version-3 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
        ):
            blob = bytearray(message.encode())
            blob[2] = 3
            with pytest.raises(WireError, match=r"^unsupported version 3$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 3$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_4_is_not_decoded(self, rng):
        """The record that sent every coordinate as a whole 8-byte
        double, with a 15-byte body head: refused by the version byte,
        with no selector and no version-4 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
            ResultMessage(1, 0, (), ()),
        ):
            blob = bytearray(message.encode())
            blob[2] = 4
            with pytest.raises(WireError, match=r"^unsupported version 4$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 4$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    @pytest.mark.parametrize("width", [0, 9, 255])
    def test_id_width_outside_one_to_eight_rejected(self, width):
        """The width byte is checked before any column is read, whatever
        the length fields say."""
        blob = bytearray(ResultMessage(1, 0, (1, 2), ((0.5,), (0.25,))).encode())
        low = blob[HEADER_SIZE + 15]
        blob[HEADER_SIZE + 14] = width
        with pytest.raises(WireError, match=f"id width {width}"):
            decode(bytes(blob))
        # The same, with a body as long as that width would need.
        body = blob[HEADER_SIZE : HEADER_SIZE + 16] + bytes(2 * width + (8 - low) + 2 * low)
        head = bytearray(blob[:HEADER_SIZE])
        struct.pack_into("<I", head, 12, len(body))
        with pytest.raises(WireError, match=f"id width {width}"):
            decode(bytes(head + body))

    @pytest.mark.parametrize("low", [9, 16, 255])
    def test_coordinate_width_above_eight_rejected(self, low):
        """The coordinate width byte is checked before the block is read,
        whatever the length fields say, and ``cost_estimate`` refuses it
        too."""
        blob = bytearray(ResultMessage(1, 0, (1, 2), ((0.5,), (0.25,))).encode())
        blob[HEADER_SIZE + 15] = low
        with pytest.raises(WireError, match=f"coordinate width {low}"):
            decode(bytes(blob))
        with pytest.raises(WireError, match=f"coordinate width {low}"):
            cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    @pytest.mark.parametrize("low", [0, 3, 7])
    def test_an_empty_block_has_width_eight(self, low):
        """An empty block shares no byte: any other width is refused,
        even with the length field rewritten to fit it."""
        blob = bytearray(ResultMessage(1, 0, (), ()).encode())
        assert blob[HEADER_SIZE + 15] == 8
        blob[HEADER_SIZE + 15] = low
        blob += bytes(8 - low)
        struct.pack_into("<I", blob, 12, len(blob) - HEADER_SIZE)
        with pytest.raises(WireError, match=f"has width 8, not {low}"):
            decode(bytes(blob))

    def test_unknown_kind(self):
        blob = bytearray(QueryMessage(1, (0,), 1.0, 0).encode())
        blob[3] = 77
        with pytest.raises(WireError, match="kind"):
            decode(bytes(blob))


class TestShortReads:
    """Every possible TCP short read must raise WireError, never a raw
    struct.error — the header length field is validated before any
    payload unpacking (satellite of the socket-transport PR)."""

    def _query_blob(self, point=(0.25, 0.5, 0.125)) -> bytes:
        return QueryMessage(
            query_id=5, subspace=(0, 2, 4), threshold=0.75, initiator=11, point=point
        ).encode()

    def _result_blob(self, rng) -> bytes:
        # Coordinates in [0.5, 1): the block shares its top byte.
        points = PointSet(0.5 + rng.random((3, 4)) / 2, np.arange(3))
        store = SortedByF.from_points(points)
        return ResultMessage.from_store(5, sender=2, result=store,
                                        subspace=(0, 2)).encode()

    def test_every_query_prefix_is_a_wire_error(self):
        for blob in (self._query_blob(), self._query_blob(point=None)):
            for cut in range(len(blob)):
                with pytest.raises(WireError):
                    decode(blob[:cut])

    def test_every_result_prefix_is_a_wire_error(self, rng):
        blob = self._result_blob(rng)
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                decode(blob[:cut])

    def test_field_boundary_cuts(self, rng):
        """Cuts landing exactly on each wire-field boundary."""
        query, result = self._query_blob(), self._result_blob(rng)
        boundaries = {
            "magic": 2, "version": 3, "kind": 4, "query_id": 12,
            "length": HEADER_SIZE,
            "query_body_head": HEADER_SIZE + 19,  # k + threshold + initiator + count
            "query_dims": HEADER_SIZE + 19 + 3 * 2,
            "query_point": HEADER_SIZE + 19 + 3 * 2 + 3 * 8,
            "result_count": HEADER_SIZE + 14,  # sender + n + k
            "result_id_width": HEADER_SIZE + 15,  # sender + n + k + w
            "result_body_head": HEADER_SIZE + 16,  # sender + n + k + w + c
            "result_ids": HEADER_SIZE + 16 + 3,  # ids 0..2 fit one byte each
            "result_shared": HEADER_SIZE + 16 + 3 + (8 - result[HEADER_SIZE + 15]),
            "result_coords": len(result) - 1,
        }
        for name, cut in boundaries.items():
            for blob in (query, result):
                if cut >= len(blob):
                    continue
                with pytest.raises(WireError):
                    decode(blob[:cut])

    def test_query_fields_cut_with_a_consistent_length(self):
        """A body cut at any query field boundary whose header length was
        rewritten to match: the body decoder itself refuses it."""
        blob = self._query_blob()
        for cut in (18, 19, 19 + 2, 19 + 3 * 2, 19 + 3 * 2 + 8, 19 + 3 * 2 + 3 * 8 - 1):
            short = bytearray(blob[: HEADER_SIZE + cut])
            struct.pack_into("<I", short, 12, cut)
            with pytest.raises(WireError):
                decode(bytes(short))

    def test_result_fields_cut_with_a_consistent_length(self, rng):
        """A RESULT body cut at each field boundary — the body head, the
        id width byte, the coordinate width byte, inside and at the end
        of the id column, inside and at the end of the shared high bytes,
        inside the coordinate block — whose header length was rewritten
        to match: the body decoder itself refuses it."""
        blob = self._result_blob(rng)
        n, k, width = 3, 2, 1
        low = blob[HEADER_SIZE + 15]
        assert blob[HEADER_SIZE + 14] == width and low <= 7
        ids_end = 16 + n * width
        shared_end = ids_end + 8 - low
        cuts = (
            0, 8, 12, 14, 15, 16, 16 + 1, ids_end, ids_end + 1, shared_end - 1, shared_end,
            shared_end + low, shared_end + n * k * low - 1,
        )
        for cut in cuts:
            short = bytearray(blob[: HEADER_SIZE + cut])
            struct.pack_into("<I", short, 12, cut)
            with pytest.raises(WireError):
                decode(bytes(short))
            with pytest.raises(WireError):
                decode(blob[: HEADER_SIZE + cut])

    def test_truncation_reported_before_struct_unpack(self):
        """A header promising more payload than arrived names the gap."""
        blob = self._query_blob()
        with pytest.raises(WireError, match="truncated payload"):
            decode(blob[: HEADER_SIZE + 3])

    def test_trailing_garbage_rejected(self):
        blob = self._query_blob()
        with pytest.raises(WireError, match="trailing garbage"):
            decode(blob + b"\x00")

    def test_decode_header_reads_only_the_header(self):
        kind, query_id, length = decode_header(self._query_blob()[:HEADER_SIZE])
        assert (kind, query_id) == (1, 5)
        assert length > 0


class TestCostEstimate:
    def test_query_estimate_matches_model(self):
        blob = QueryMessage(1, (0, 3, 6), 1.0, 0).encode()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.query_bytes(3)
        blob = QueryMessage(1, (0, 3, 6), 1.0, 0, point=(0.5, 0.5, 0.5)).encode()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.query_bytes(3, 1)

    def test_result_estimate_matches_model(self, rng):
        points = PointSet(rng.random((7, 5)), np.arange(7))
        store = SortedByF.from_points(points)
        blob = ResultMessage.from_store(1, 0, store, (0, 1, 4)).encode()
        low = coord_width(store.points.values[:, [0, 1, 4]])
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == (
            DEFAULT_COST_MODEL.result_bytes(7, 3, 1, low)
        )
        ids = np.array([70_000, 12, 99_999])
        store = SortedByF.from_points(PointSet(np.full((3, 5), 0.75), ids))
        blob = ResultMessage.from_store(1, 0, store, (0, 1, 4)).encode()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == (
            DEFAULT_COST_MODEL.result_bytes(3, 3, 3, 0)
        )

    def test_framing_delta_is_constant(self, rng):
        """``cost_estimate`` is the model's charge for the record, and the
        codec's own bytes differ from it by the same constant for every
        n, k, mark, id width and coordinate width (docs/TRANSPORT.md)."""
        deltas, widths = set(), set()
        cases = [(0, 1, False, 0), (1, 1, True, 0), (1, 4, False, 2**20), (6, 2, True, 2**40)]
        for n, k, final, first_id in cases:
            ids = np.arange(first_id, first_id + n)
            for values in (rng.random((n, 4)), 0.5 + rng.random((n, 4)) / 2, np.full((n, 4), 3.0)):
                store = SortedByF.from_points(PointSet(values, ids))
                blob = ResultMessage.from_store(1, 0, store, range(k), final=final).encode()
                estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
                low = coord_width(values[:, :k])
                assert estimate == DEFAULT_COST_MODEL.result_bytes(n, k, id_width(ids), low)
                deltas.add(estimate - len(blob))
                widths.add(low)
        assert deltas == {32}
        assert {0, 8} < widths

    def test_query_framing_delta_is_constant(self):
        """The same for queries, with and without the bound's point:
        the model charges ``64 + 8 + 2k + 8k·points``, the codec packs
        ``16 + 19 + 2k + 8k·points`` (docs/TRANSPORT.md)."""
        deltas = set()
        for k in (1, 2, 5, 8):
            for point in (None, (0.5,) * k):
                blob = QueryMessage(1, tuple(range(k)), 0.5, 0, point=point).encode()
                estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
                assert estimate == DEFAULT_COST_MODEL.query_bytes(k, 0 if point is None else 1)
                deltas.add(estimate - len(blob))
        assert deltas == {37}

    def test_truncated_blob_rejected(self):
        blob = QueryMessage(1, (0,), 1.0, 0).encode()
        with pytest.raises(WireError):
            cost_estimate(blob[:-1], DEFAULT_COST_MODEL)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Bit patterns the block must carry unchanged: signed zeros, the
#: extreme subnormals and normals, infinities and NaNs with payloads.
SPECIAL_BITS = [
    0x0000_0000_0000_0000,  # +0.0
    0x8000_0000_0000_0000,  # -0.0
    0x0000_0000_0000_0001,  # smallest subnormal
    0x000F_FFFF_FFFF_FFFF,  # largest subnormal
    0x8000_0000_0000_0001,  # negative subnormal
    0x0010_0000_0000_0000,  # smallest normal
    0x7FEF_FFFF_FFFF_FFFF,  # largest normal
    0x7FF0_0000_0000_0000,  # +inf
    0xFFF0_0000_0000_0000,  # -inf
    0x7FF8_0000_0000_0000,  # quiet NaN
    0x7FF0_0000_0000_0001,  # signalling NaN payload
    0xFFFF_FFFF_FFFF_FFFF,  # negative NaN, every payload bit set
]


def _block_sharing(shared: int, n: int, k: int) -> np.ndarray:
    """An ``n x k`` block whose bit patterns share exactly ``shared``
    high bytes (for ``n * k >= 2``; all equal when ``shared`` is 8)."""
    rng = np.random.default_rng(shared * 100 + n * 10 + k)
    base = 0x3FE1_2345_6789_ABCD
    bits = np.full(n * k, base, dtype=np.uint64)
    if shared < 8:
        low_bits = 8 * (8 - shared)
        noise = rng.integers(0, 2**63, size=n * k, dtype=np.uint64) >> np.uint64(64 - low_bits)
        bits ^= noise
        bits[1] = base ^ (1 << (low_bits - 1))  # differs in the first unshared byte
        bits[0] = base
    return bits.view("<f8").reshape(n, k)


class TestCoordinateBlock:
    """Wire version 5: the shared high bytes once, then each
    coordinate's low bytes; every double comes back bit for bit."""

    @staticmethod
    def _roundtrip(coords: np.ndarray) -> tuple[bytes, ResultMessage]:
        n = len(coords)
        msg = ResultMessage(3, 1, np.arange(n), coords)
        blob = msg.encode()
        back = decode(blob)
        assert back == msg or np.isnan(coords).any()
        assert back.ids.tolist() == list(range(n))
        assert back.coords.shape == coords.shape
        assert back.coords.view("<u8").tolist() == coords.view("<u8").tolist()
        return blob, back

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_special_values_roundtrip_bit_for_bit(self, n, k):
        bits = np.resize(np.array(SPECIAL_BITS, dtype=np.uint64), n * k)
        coords = bits.view("<f8").reshape(n, k)
        blob, _ = self._roundtrip(coords)
        assert blob[HEADER_SIZE + 15] == coord_width(coords)

    @pytest.mark.parametrize(
        "n,k,shared",
        [
            (n, k, shared)
            for n in (1, 2, 300) for k in range(1, 9) for shared in range(9)
            if n * k > 1 or shared == 8  # one value shares all eight bytes with itself
        ],
    )
    def test_blocks_sharing_exactly_each_count_of_high_bytes(self, n, k, shared):
        coords = _block_sharing(shared, n, k)
        blob, _ = self._roundtrip(coords)
        low = 8 - shared
        assert coord_width(coords) == low
        head = HEADER_SIZE + 16
        assert blob[head - 1] == low
        assert len(blob) == head + n * id_width(range(n)) + shared + n * k * low
        prefix = blob[head + n * id_width(range(n)) : head + n * id_width(range(n)) + shared]
        assert prefix == coords.astype("<f8").tobytes()[low:8]
        assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32

    def test_empty_blocks_carry_no_shared_bytes(self):
        for coords in (np.empty((0, 4)), np.empty((0, 1))):
            blob, back = self._roundtrip(coords)
            assert blob[HEADER_SIZE + 15] == 8
            assert len(blob) == HEADER_SIZE + 16
            assert back.k == coords.shape[1]

    def test_a_block_never_grows(self, rng):
        """``(8 − c) + nk·c ≤ 8nk``: no message is longer than whole doubles."""
        for values in (rng.random((50, 3)), rng.normal(size=(50, 3)), np.zeros((50, 3))):
            blob = ResultMessage(1, 0, np.arange(50), values).encode()
            assert len(blob) <= HEADER_SIZE + 16 + 50 * (1 + 3 * 8)

    def test_every_prefix_of_a_shared_block_is_a_wire_error(self):
        blob = ResultMessage(1, 0, (4, 5), _block_sharing(5, 2, 3)).encode()
        assert blob[HEADER_SIZE + 15] == 3
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                decode(blob[:cut])
            short = bytearray(blob[:cut])
            if cut >= HEADER_SIZE:
                struct.pack_into("<I", short, 12, cut - HEADER_SIZE)
                with pytest.raises(WireError):
                    decode(bytes(short))
