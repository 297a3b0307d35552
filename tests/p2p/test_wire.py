"""Unit tests for the wire format."""

import math
import struct

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.cost import DEFAULT_COST_MODEL, Quanta, coord_width, id_bytes, id_width, quantize
from repro.p2p.wire import (
    HEADER_SIZE,
    QueryMessage,
    ResultMessage,
    WireError,
    cost_estimate,
    decode,
    decode_header,
)
from tests.p2p.test_wire_properties import v6_bytes, width_byte


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

    @pytest.mark.parametrize(
        "threshold,point,match",
        [
            (math.nan, None, "threshold"),
            (0.5, (0.25, math.nan), "not finite"),
            (0.5, (math.inf, 0.25), "not finite"),
            (math.inf, (0.25, -math.inf), "not finite"),
        ],
    )
    def test_a_nan_bound_is_refused_both_ways(self, threshold, point, match):
        """A NaN threshold, or a point coordinate that is not finite,
        would make every receiver's scan keep nothing: neither side of
        the codec lets one through.  ``+inf`` stays a legal threshold."""
        with pytest.raises(WireError, match=match):
            QueryMessage(1, (0, 1), threshold, 0, point=point).encode()
        blob = bytearray(QueryMessage(1, (0, 1), 0.5, 0, point=(0.25, 0.75)).encode())
        struct.pack_into("<d", blob, HEADER_SIZE + 2, threshold)
        struct.pack_into("<2d", blob, HEADER_SIZE + 19 + 4, *(point or (0.25, 0.75)))
        with pytest.raises(WireError, match=match):
            decode(bytes(blob))
        with pytest.raises(WireError, match=match):
            cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

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
        """Growth per point is the message's id bytes + k coordinates at
        the message's coordinate width; ids 100 and 101 fit in one byte
        each (their gaps would take three), and coordinates in [0.5, 1)
        share their top byte, 0x3F (with 53 significant bits each, their
        quantum columns would be larger)."""
        rows = [(0.6, 0.7, 0.65), (0.55, 0.9, 0.8)]
        b1 = len(ResultMessage(1, 0, (100,), rows[:1]).encode())
        b2 = len(ResultMessage(1, 0, (100, 101), rows).encode())
        assert coord_width(rows[:1]) == (7, 3) and coord_width(rows) == (7, 6)
        assert b2 - b1 == 1 + 3 * 7 == id_bytes((100, 101)) - id_bytes((100,)) + 3 * 7

    @pytest.mark.parametrize(
        "largest,width", [(255, 1), (256, 2), (2**24, 4), (2**63 - 1, 8), (-1, 8)]
    )
    def test_the_id_column_is_as_wide_as_the_largest_id(self, largest, width):
        """The body is the head, then ``n * w`` id bytes, then the
        ``n x k`` coordinate block (whole doubles here: -0.0 shares no
        byte with 0.5); every id decodes to its own value.  The two ids
        lie far enough apart that their gaps would take no fewer bytes."""
        ids = (largest // 2, largest) if largest > 0 else (-(2**62), largest)
        assert id_bytes(ids) == 2 * width
        coords = ((0.5, 0.25), (2.0, -0.0))
        blob = ResultMessage(1, 3, ids, coords).encode()
        head = HEADER_SIZE + 16
        assert (blob[head - 2], blob[head - 1]) == (width, 8)
        assert len(blob) == head + 2 * width + 2 * 2 * 8
        column = blob[head : head + 2 * width]
        assert column == b"".join(i.to_bytes(8, "little", signed=True)[:width] for i in ids)
        assert blob[head + 2 * width :] == np.array(coords).astype("<f8").tobytes()
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
            DEFAULT_COST_MODEL.result_bytes(0, 0, 0, 8, 0)
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
            assert blob[2] == 9
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

    def test_version_5_is_not_decoded(self, rng):
        """The record without a zero bitmap, whose width byte had no
        flag: refused by the version byte, with no selector and no
        version-5 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
            ResultMessage(1, 0, (0, 1), ((0.0, 0.5), (0.25, 0.0))),
            ResultMessage(1, 0, (), ()),
        ):
            blob = bytearray(message.encode())
            blob[2] = 5
            with pytest.raises(WireError, match=r"^unsupported version 5$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 5$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_6_is_not_decoded(self, rng):
        """The record with one coordinate width per block, whose width
        byte had no per-column flag: refused by the version byte, with no
        selector and no version-6 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
            ResultMessage(1, 0, (0, 1), ((0.0, 0.5), (0.25, 0.0))),
            ResultMessage(1, 0, (0, 1, 2), ((3.0, 7.0),) * 3),
            ResultMessage(1, 0, (), ()),
        ):
            blob = bytearray(message.encode())
            blob[2] = 6
            with pytest.raises(WireError, match=r"^unsupported version 6$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 6$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_7_is_not_decoded(self, rng):
        """The record whose ids were always a fixed-width column in the
        sender's order: refused by the version byte, with no selector
        and no version-7 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
            ResultMessage(1, 0, range(0, 3000, 10), np.full((300, 2), 0.5)),
            ResultMessage(1, 0, (), ()),
        ):
            blob = bytearray(message.encode())
            blob[2] = 7
            with pytest.raises(WireError, match=r"^unsupported version 7$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 7$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_version_8_is_not_decoded(self, rng):
        """The record with no quantum-coded block: refused by the version
        byte, with no selector and no version-8 decoder."""
        store = SortedByF.from_points(PointSet(rng.random((3, 4)), np.arange(3)))
        for message in (
            QueryMessage(1, (0, 2), 1.0, 0, point=(0.5, 0.25)),
            ResultMessage.from_store(1, 0, store, (0, 2)),
            ResultMessage(1, 0, range(0, 3000, 10), np.full((300, 2), 0.5)),
            ResultMessage(1, 0, (), ()),
        ):
            blob = bytearray(message.encode())
            blob[2] = 8
            with pytest.raises(WireError, match=r"^unsupported version 8$"):
                decode(bytes(blob))
            with pytest.raises(WireError, match=r"^unsupported version 8$"):
                cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    @pytest.mark.parametrize("width", [0, 9, 255])
    def test_id_width_outside_one_to_eight_rejected(self, width):
        """The width byte is checked before any column is read, whatever
        the length fields say."""
        blob = bytearray(ResultMessage(1, 0, (1, 2), ((0.6,), (0.3,))).encode())
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

    @pytest.mark.parametrize("reserved", [0x10, 0x20, 0x40])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_a_reserved_bit_of_the_width_byte_is_refused(self, reserved, zeros):
        """Only ``0x80`` (the zero bitmap) may ride beside the width of
        these one-group blocks.  ``0x40`` (one width per column,
        :class:`TestColumnLayout`) is kept for a block laid out by
        column: set here, it makes both readers take an id byte for a
        column width, and the body no longer adds up.  ``0x20`` (a
        quantum-coded block, :class:`TestQuanta`) is only ever the whole
        byte."""
        coords = ((0.0, 0.6), (0.3, 0.0)) if zeros else ((0.6, 0.7), (0.3, 0.9))
        blob = bytearray(ResultMessage(1, 0, (1, 2), coords).encode())
        assert bool(blob[HEADER_SIZE + 15] & 0x80) is zeros
        assert not blob[HEADER_SIZE + 15] & 0x40
        blob[HEADER_SIZE + 15] |= reserved
        match = "coordinate width" if reserved != 0x40 else "result body has|zero bitmap"
        with pytest.raises(WireError, match=match):
            decode(bytes(blob))
        with pytest.raises(WireError, match=match):
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
        block = coord_width(store.points.values[:, [0, 1, 4]])
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == (
            DEFAULT_COST_MODEL.result_bytes(7, 3, 7, *block)
        )
        # Gaps: 12 zigzag-coded in one byte, 69 988 and 29 999 in three each.
        ids = np.array([70_000, 12, 99_999])
        assert id_bytes(ids) == 7 < 3 * id_width(ids)
        store = SortedByF.from_points(PointSet(np.full((3, 5), 0.75), ids))
        blob = ResultMessage.from_store(1, 0, store, (0, 1, 4)).encode()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == (
            DEFAULT_COST_MODEL.result_bytes(3, 3, 7, 0, 9)
        )

    def test_framing_delta_is_constant(self, rng):
        """``cost_estimate`` is the model's charge for the record, and the
        codec's own bytes differ from it by the same constant for every
        n, k, mark, id width, coordinate width and zero count
        (docs/TRANSPORT.md)."""
        deltas, widths, zeros = set(), set(), set()
        cases = [(0, 1, False, 0), (1, 1, True, 0), (1, 4, False, 2**20), (6, 2, True, 2**40)]
        for n, k, final, first_id in cases:
            ids = np.arange(first_id, first_id + n)
            clipped = np.where(rng.random((n, 4)) < 0.3, 0.0, 0.5 + rng.random((n, 4)) / 2)
            clipped[:1, :1] = 0.0
            for values in (
                rng.random((n, 4)), 0.5 + rng.random((n, 4)) / 2, np.full((n, 4), 3.0), clipped,
            ):
                store = SortedByF.from_points(PointSet(values, ids))
                blob = ResultMessage.from_store(1, 0, store, range(k), final=final).encode()
                estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
                low, sent = coord_width(values[:, :k])
                assert estimate == DEFAULT_COST_MODEL.result_bytes(n, k, id_bytes(ids), low, sent)
                deltas.add(estimate - len(blob))
                widths.add(low)
                zeros.add(n * k - sent)
        assert deltas == {32}
        assert {0, 8} < widths
        assert len(zeros) > 2

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
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match="truncated payload"):
                read(blob[:-1])


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
    high bytes (for ``n * k >= 2``; all equal when ``shared`` is 8).
    Its values are negative, so it has no quantum layout."""
    rng = np.random.default_rng(shared * 100 + n * 10 + k)
    base = 0xBFE1_2345_6789_ABCD
    bits = np.full(n * k, base, dtype=np.uint64)
    if shared < 8:
        low_bits = 8 * (8 - shared)
        noise = rng.integers(0, 2**63, size=n * k, dtype=np.uint64) >> np.uint64(64 - low_bits)
        bits ^= noise
        bits[1] = base ^ (1 << (low_bits - 1))  # differs in the first unshared byte
        bits[0] = base
    return bits.view("<f8").reshape(n, k)


class TestCoordinateBlock:
    """Wire version 6: a zero bitmap when the block mixes +0.0 with
    other values, the shared high bytes once, then each sent
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
        assert blob[HEADER_SIZE + 15] == width_byte(coords)
        assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32

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
        assert coord_width(coords) == (low, n * k)
        head = HEADER_SIZE + 16
        assert blob[head - 1] == low
        assert len(blob) == head + id_bytes(range(n)) + shared + n * k * low
        prefix = blob[head + id_bytes(range(n)) : head + id_bytes(range(n)) + shared]
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


class TestZeroBitmap:
    """Version 6's bitmap: a block that mixes +0.0 with other values
    marks its zeros and sends, and sizes its width over, only the rest."""

    #: Zeros at row-major positions 0, 2, 4, 5 and 8; the rest share 0x3F,
    #: and no column shares more, so the block stays one group (their 53
    #: significant bits make the quantum layout larger).
    HAND = np.array([[0.0, 0.6, 0.0], [0.7, 0.0, 0.0], [0.55, 0.65, 0.0]])

    def test_bit_order_on_a_hand_written_block(self):
        """Bit ``i % 8`` of bitmap byte ``i // 8`` marks coordinate ``i``
        (``np.packbits(..., bitorder="little")``), then the shared byte,
        then the sent coordinates' low bytes in row-major order."""
        blob = ResultMessage(1, 0, (0, 1, 2), self.HAND).encode()
        head = HEADER_SIZE + 16
        assert blob[head - 2 : head] == bytes([1, 0x80 | 7])
        assert blob[head : head + 3] == bytes([0, 1, 2])
        assert blob[head + 3 : head + 5] == bytes([0b0011_0101, 0b0000_0001])
        assert blob[head + 5 : head + 6] == b"\x3f"
        assert blob[head + 6 :] == b"".join(struct.pack("<d", v)[:7] for v in (0.6, 0.7, 0.55, 0.65))
        assert decode(blob).coords.tolist() == self.HAND.tolist()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(
            3, 3, 3, 7, 4
        ) == len(blob) + 32

    @pytest.mark.parametrize(
        "name,coords",
        [
            ("no zeros", np.array([[0.6, 0.7], [0.65, 0.55]])),
            ("some zeros", np.array([[0.0, 0.7], [0.65, 0.0], [0.0, 0.0]])),
            ("all zeros", np.zeros((4, 3))),
            ("signed zeros", np.array([[0.0, -0.0], [-0.0, 0.0]])),
            ("only -0.0", np.full((3, 2), -0.0)),
            ("nan payloads", np.array([[0.0, _double(0x7FF0_0000_0000_0001)],
                                       [_double(0xFFFF_FFFF_FFFF_FFFF), 0.0]])),
            ("subnormals", np.array([[0.0, 5e-324], [_double(0x000F_FFFF_FFFF_FFFF), 0.0]])),
            ("infinities", np.array([[np.inf, 0.0, -np.inf]])),
            ("one zero beside a value", np.array([[0.0], [-0.5]])),
            ("a zero among many", np.append(np.full(299, -0.5), 0.0).reshape(75, 4)),
        ],
    )
    def test_roundtrips_bit_for_bit(self, name, coords):
        blob, _ = TestCoordinateBlock._roundtrip(coords)
        bits = coords.reshape(-1).view("<u8")
        flagged = bool((bits == 0).any() and (bits != 0).any())
        assert bool(blob[HEADER_SIZE + 15] & 0x80) is flagged, name
        low, sent = coord_width(coords)
        assert sent == (int((bits != 0).sum()) if flagged else bits.size)
        n, k = coords.shape
        assert len(blob) == (
            HEADER_SIZE + 16 + n + ((n * k + 7) // 8 if flagged else 0) + 8 - low + sent * low
        )
        assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32

    def test_a_list_of_tied_zeros_keeps_its_eight_bytes(self):
        """An all-zero block is never flagged: 8 shared bytes in all, or,
        for one or two columns, 3 bytes of quantum column each."""
        for n, k in ((1, 1), (300, 1), (7, 2), (7, 3), (7, 4)):
            blob = ResultMessage(1, 0, np.arange(n), np.zeros((n, k))).encode()
            quantum = k < 3
            assert blob[HEADER_SIZE + 15] == (0x20 if quantum else 0)
            assert len(blob) == HEADER_SIZE + 16 + id_bytes(range(n)) + (3 * k if quantum else 8)

    def test_every_prefix_of_a_zero_bearing_message_is_a_wire_error(self):
        blob = ResultMessage(1, 0, (0, 1, 2), self.HAND).encode()
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                decode(blob[:cut])
            with pytest.raises(WireError):
                cost_estimate(blob[:cut], DEFAULT_COST_MODEL)
            if cut < HEADER_SIZE:
                continue
            short = bytearray(blob[:cut])
            struct.pack_into("<I", short, 12, cut - HEADER_SIZE)
            with pytest.raises(WireError):
                decode(bytes(short))
            # The estimate prices what decode reads, so it refuses every short body too.
            with pytest.raises(WireError):
                cost_estimate(bytes(short), DEFAULT_COST_MODEL)

    @pytest.mark.parametrize(
        "bitmap,match",
        [
            (b"\x00\x00", "marks some"),
            (b"\xff\x01", "marks some"),
            (b"\x35\x03", "padding bit"),
        ],
    )
    def test_a_bitmap_that_marks_none_all_or_padding_is_refused(self, bitmap, match):
        blob = bytearray(ResultMessage(1, 0, (0, 1, 2), self.HAND).encode())
        start = HEADER_SIZE + 16 + 3
        blob[start : start + 2] = bitmap
        with pytest.raises(WireError, match=match):
            decode(bytes(blob))
        with pytest.raises(WireError, match=match):
            cost_estimate(bytes(blob), DEFAULT_COST_MODEL)

    def test_the_flag_is_read_not_guessed(self):
        """Clearing the flag of a flagged block, or setting it on a block
        without one, leaves a body whose length no longer adds up."""
        flagged = bytearray(ResultMessage(1, 0, (0, 1, 2), self.HAND).encode())
        flagged[HEADER_SIZE + 15] &= 0x7F
        plain = bytearray(ResultMessage(1, 0, (0, 1), ((0.6, 0.7), (0.65, 0.55))).encode())
        plain[HEADER_SIZE + 15] |= 0x80
        for blob in (flagged, plain):
            with pytest.raises(WireError):
                decode(bytes(blob))

    def test_an_empty_block_is_never_flagged(self):
        blob = bytearray(ResultMessage(1, 0, (), ()).encode())
        blob[HEADER_SIZE + 15] |= 0x80
        with pytest.raises(WireError):
            decode(bytes(blob))
        with pytest.raises(WireError):
            cost_estimate(bytes(blob), DEFAULT_COST_MODEL)


class TestColumnLayout:
    """Wire version 7: a block may give each column its own width and
    send each column's shared high bytes once, for ``k − 1`` more width
    bytes, and does so only when that is strictly smaller than one
    group; the zero bitmap stays the block's."""

    #: Column 0 is +0.0 throughout, so the bitmap marks it whole and it
    #: sends nothing at width 8; columns 1 and 2 each share six high
    #: bytes, but not with each other.  Every case holds a negative value,
    #: a ``-0.0`` or an infinity, so none has a quantum layout.
    ZERO_COLUMN = np.array([[0.0, -1.0 - j * 2.0**-40, -1000.0 - j * 2.0**-30] for j in range(6)])

    CASES = {
        "a column of +0.0 in a flagged block": ZERO_COLUMN,
        "-0.0": np.array([[-0.0, -0.5 - j / 64] for j in range(4)]),
        "inf": np.array([[np.inf, -0.5 - j / 64, -np.inf] for j in range(5)]),
        "equal-valued columns": np.array([[-3.0, -7.0]] * 3),
        "equal columns": np.array([[-0.5 - j / 64, -0.5 - j / 64, -1e300] for j in range(4)]),
    }

    @staticmethod
    def _record(coords: np.ndarray) -> tuple[bytes, tuple]:
        blob, _ = TestCoordinateBlock._roundtrip(coords)
        assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32
        return blob, coord_width(coords)

    @pytest.mark.parametrize("name", list(CASES))
    def test_roundtrips_bit_for_bit_per_column(self, name):
        coords = self.CASES[name]
        n, k = coords.shape
        blob, (widths, sent) = self._record(coords)
        assert len(widths) == len(sent) == k, name
        assert blob[HEADER_SIZE + 15] & 0x40
        assert blob[HEADER_SIZE + 16 : HEADER_SIZE + 16 + k - 1] == bytes(widths[1:])
        bits = coords.reshape(-1).view("<u8")
        flagged = bool((bits == 0).any())
        assert bool(blob[HEADER_SIZE + 15] & 0x80) is flagged
        per_column = (
            ((n * k + 7) // 8 if flagged else 0) + k - 1
            + sum(8 - c for c in widths) + sum(c * m for c, m in zip(widths, sent))
        )
        assert per_column < v6_bytes(coords)
        assert len(blob) == HEADER_SIZE + 16 + n + per_column

    def test_an_all_zero_column_sends_nothing_at_width_eight(self):
        widths, sent = coord_width(self.ZERO_COLUMN)
        assert (widths[0], sent[0]) == (8, 0)
        assert widths[1:] == (2, 2) and sent[1:] == (6, 6)

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_row_is_one_group(self, name):
        coords = self.CASES[name][:1]
        blob, (low, sent) = self._record(coords)
        assert isinstance(low, int) and not blob[HEADER_SIZE + 15] & 0x40

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_column_is_one_group(self, name):
        """For ``k = 1`` the per-column layout costs exactly as much as
        the block's, so the block layout wins."""
        coords = self.CASES[name][:, 1:2]
        blob, (low, sent) = self._record(coords)
        assert isinstance(low, int) and not blob[HEADER_SIZE + 15] & 0x40

    def test_layout_on_a_hand_written_block(self):
        """The first width in the head with both flags, the other
        columns' widths, the ids, the bitmap, then column by column its
        shared high bytes and its sent values' low bytes."""
        coords = np.array([[0.0, -3.0], [-0.5, -3.0], [-0.75, -3.0]])
        blob = ResultMessage(1, 0, (0, 1, 2), coords).encode()
        head = HEADER_SIZE + 16
        assert blob[head - 2 : head + 1] == bytes([1, 0x80 | 0x40 | 7, 0])
        assert blob[head + 1 : head + 4] == bytes([0, 1, 2])
        assert blob[head + 4 : head + 5] == bytes([0b0000_0001])
        column_0 = b"\xbf" + struct.pack("<d", -0.5)[:7] + struct.pack("<d", -0.75)[:7]
        assert blob[head + 5 :] == column_0 + struct.pack("<d", -3.0)
        assert decode(blob).coords.tolist() == coords.tolist()

    def test_the_column_flag_is_read_not_guessed(self):
        """Setting ``0x40`` on a one-group record, or clearing it on a
        per-column one, leaves a body whose length no longer adds up."""
        plain = bytearray(ResultMessage(1, 0, (0, 1), ((0.5, 0.75), (0.625, 0.5))).encode())
        plain[HEADER_SIZE + 15] |= 0x40
        columns = bytearray(ResultMessage(1, 0, (0, 1, 2), self.CASES["-0.0"][:3]).encode())
        assert columns[HEADER_SIZE + 15] & 0x40
        columns[HEADER_SIZE + 15] &= ~0x40
        for blob in (plain, columns):
            with pytest.raises(WireError):
                decode(bytes(blob))

    @pytest.mark.parametrize("coords", [((0.5,), (0.25,)), ((0.5, 0.25),), ()])
    def test_a_per_column_flag_needs_two_columns_and_two_points(self, coords):
        blob = bytearray(ResultMessage(1, 0, range(len(coords)), coords).encode())
        blob[HEADER_SIZE + 15] |= 0x40
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError):
                read(bytes(blob))

    @pytest.mark.parametrize("reserved", [0x10, 0x20])
    def test_the_reserved_bits_stay_reserved(self, reserved):
        blob = bytearray(ResultMessage(1, 0, range(6), self.ZERO_COLUMN).encode())
        assert blob[HEADER_SIZE + 15] & 0xC0 == 0xC0
        blob[HEADER_SIZE + 15] |= reserved
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match="coordinate width"):
                read(bytes(blob))

    @pytest.mark.parametrize("width", [9, 0x40, 0x80 | 7])
    def test_a_column_width_outside_zero_to_eight_is_refused(self, width):
        blob = bytearray(ResultMessage(1, 0, range(6), self.ZERO_COLUMN).encode())
        blob[HEADER_SIZE + 16] = width
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match="coordinate width"):
                read(bytes(blob))

    def test_a_column_the_bitmap_marks_whole_has_width_eight(self):
        blob = bytearray(ResultMessage(1, 0, range(6), self.ZERO_COLUMN).encode())
        assert blob[HEADER_SIZE + 15] == 0xC0 | 8
        blob[HEADER_SIZE + 15] = 0xC0 | 7
        blob += b"\x00"
        struct.pack_into("<I", blob, 12, len(blob) - HEADER_SIZE)
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match="has width 8"):
                read(bytes(blob))

    @pytest.mark.parametrize("name", list(CASES))
    def test_every_prefix_of_a_per_column_message_is_a_wire_error(self, name):
        blob = ResultMessage(1, 0, range(len(self.CASES[name])), self.CASES[name]).encode()
        for cut in range(len(blob)):
            with pytest.raises(WireError):
                decode(blob[:cut])
            with pytest.raises(WireError):
                cost_estimate(blob[:cut], DEFAULT_COST_MODEL)
            if cut < HEADER_SIZE:
                continue
            short = bytearray(blob[:cut])
            struct.pack_into("<I", short, 12, cut - HEADER_SIZE)
            with pytest.raises(WireError):
                decode(bytes(short))



class TestIdGaps:
    """Wire version 8: a record sends its rows in ascending id order,
    and its id block is the ``n·w`` column or, flagged by ``0x80`` on
    the id width byte and only when strictly smaller, the zigzag LEB128
    smallest id then each gap in LEB128."""

    #: 300 ids ten apart: a 2-byte column, or one varint byte each.
    SPREAD = np.arange(0, 3000, 10)

    @staticmethod
    def _body(n: int, id_byte: int, id_block: bytes, k: int = 1) -> bytes:
        """A framed RESULT of ``n`` points behind a hand-written id
        block: one column of 0.5 (one group of width 0), or for ``k = 0``
        no coordinate byte at all."""
        coords = struct.pack("<d", 0.5) if k else b""
        body = struct.pack("<qIHBB", 0, n, k, id_byte, 0 if k else 8) + id_block + coords
        return struct.pack("<2sBBqI", b"SP", 9, 2, 1, len(body)) + body

    def test_rows_travel_in_ascending_id_order(self):
        ids = (40, 7, 1000, 7, -3)
        coords = np.arange(10.0).reshape(5, 2)
        msg = ResultMessage(1, 0, ids, coords)
        order = np.argsort(ids, kind="stable")
        assert msg.ids.tolist() == [-3, 7, 7, 40, 1000]
        assert msg.coords.tolist() == coords[order].tolist()
        assert msg == ResultMessage(1, 0, np.array(ids)[order], coords[order])
        back = decode(msg.encode())
        assert back == msg and back.ids.tolist() == msg.ids.tolist()

    def test_gap_layout_on_a_hand_written_record(self):
        """Ids 5, 300, 1000: zigzag(5) = 10, then the gaps 295 and 700
        in two LEB128 bytes each — 5 bytes against the 6 of a 2-byte
        column.  The column of 0.5 follows as a quantum column: exponent
        −1 (zigzag 1), base 1, width 0."""
        blob = ResultMessage(1, 0, (1000, 5, 300), np.full((3, 1), 0.5)).encode()
        head = HEADER_SIZE + 16
        assert blob[head - 2 : head] == bytes([0x80 | 2, 0x20])
        assert blob[head : head + 5] == bytes([10, 0xA7, 0x02, 0xBC, 0x05])
        assert blob[head + 5 :] == bytes([1, 1, 0])
        back = decode(blob)
        assert back.ids.tolist() == [5, 300, 1000]
        assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32

    def test_a_tie_keeps_the_column(self):
        """Ids 0, 1, 2 take three varint bytes, as many as the column:
        the column it is, unflagged."""
        blob = ResultMessage(1, 0, (0, 1, 2), np.full((3, 1), 0.5)).encode()
        assert blob[HEADER_SIZE + 14] == 1
        assert blob[HEADER_SIZE + 16 : HEADER_SIZE + 19] == bytes([0, 1, 2])

    def test_spread_ids_take_one_byte_each(self):
        msg = ResultMessage(1, 0, self.SPREAD, np.full((300, 2), 0.5))
        blob = msg.encode()
        assert blob[HEADER_SIZE + 14] == 0x80 | 2
        assert id_bytes(self.SPREAD) == 300 < 300 * id_width(self.SPREAD)
        assert len(blob) == HEADER_SIZE + 16 + 300 + 2 * 3
        assert decode(blob) == msg

    def test_every_prefix_of_a_gap_coded_record_is_a_wire_error(self):
        blob = ResultMessage(1, 0, (1000, 5, 300), np.full((3, 1), 0.5)).encode()
        for cut in range(len(blob)):
            short = bytearray(blob[:cut])
            if cut >= HEADER_SIZE:
                struct.pack_into("<I", short, 12, cut - HEADER_SIZE)
            for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
                with pytest.raises(WireError):
                    read(blob[:cut])
                with pytest.raises(WireError):
                    read(bytes(short))

    def test_a_truncated_varint_is_refused(self):
        # The second varint's continuation bit promises a byte the body lacks.
        blob = self._body(2, 0x80 | 8, bytes([10, 0xA7]), k=0)
        with pytest.raises(WireError, match="truncated"):
            decode(blob)

    def test_a_varint_longer_than_ten_bytes_is_refused(self):
        for block in (b"\x80" * 10 + b"\x00" + b"\x01", b"\x00" + b"\x80" * 11):
            with pytest.raises(WireError, match="longer than 10 bytes"):
                decode(self._body(2, 0x80 | 8, block))

    def test_a_varint_past_64_bits_is_refused(self):
        with pytest.raises(WireError, match="overflows 64 bits"):
            decode(self._body(2, 0x80 | 8, b"\xff" * 9 + b"\x02" + b"\x01"))

    @pytest.mark.parametrize("n,width,block", [(3, 1, bytes([0, 1, 1])), (2, 1, bytes([0, 0]))])
    def test_a_gap_block_no_smaller_than_the_column_is_refused(self, n, width, block):
        """Ids 0, 1, 2 as three varint bytes tie their 1-byte column;
        the encoder sends the column, so the reader refuses the gaps."""
        blob = self._body(n, 0x80 | width, block)
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match="not smaller than"):
                read(blob)

    def test_an_empty_record_is_never_gap_flagged(self):
        blob = bytearray(ResultMessage(1, 0, (), ()).encode())
        blob[HEADER_SIZE + 14] |= 0x80
        with pytest.raises(WireError, match="not smaller than"):
            decode(bytes(blob))

    def test_ids_out_of_order_are_refused(self):
        """A column whose ids descend, and gaps whose sum wraps past the
        largest ``int64``: neither is ascending."""
        column = self._body(3, 1, bytes([2, 1, 0]))
        wrapped = self._body(2, 0x80 | 8, b"\xfe" + b"\xff" * 8 + b"\x01" + b"\x01")
        for blob in (column, wrapped):
            with pytest.raises(WireError, match="ascending"):
                decode(blob)


def _column(q: int, base: int, width: int, residues) -> bytes:
    """One quantum column written by hand: zigzag-LEB128 ``q``, LEB128
    ``base``, the width byte, then ``residues`` packed ``width`` bits
    each, lowest bit first."""

    def leb128(word: int) -> bytes:
        out = bytearray()
        while word >= 0x80:
            out.append(word & 0x7F | 0x80)
            word >>= 7
        return bytes(out + bytes([word]))

    packed = sum(r << i * width for i, r in enumerate(residues))
    return (
        leb128(2 * q if q >= 0 else -2 * q - 1) + leb128(base) + bytes([width])
        + packed.to_bytes((len(residues) * width + 7) // 8, "little")
    )


class TestQuanta:
    """Wire version 9: a block of non-negative finite doubles may send
    each column as the integers its values are of one power of two,
    less their smallest, bit-packed — flagged by ``0x20`` alone in the
    coordinate width byte and taken only when strictly smaller than the
    version 8 layout; the reader refuses every block the encoder would
    not write."""

    #: Column 0 is 2, 3, 4 quarters (exponent −2, base 2, 2 bits: 0, 1,
    #: 2), column 1 the integers 3, 5, 3 (exponent 0, base 3, 2 bits: 0,
    #: 2, 0); version 8 would send them in 45 bytes, this in 8.
    HAND = np.array([[0.5, 3.0], [0.75, 5.0], [1.0, 3.0]])
    COLUMNS = (_column(-2, 2, 2, [0, 1, 2]), _column(0, 3, 2, [0, 2, 0]))

    @staticmethod
    def _record(n: int, k: int, block: bytes, width_byte: int = 0x20) -> bytes:
        """A framed RESULT of ids ``0..n-1`` in a 1-byte column and the
        hand-written coordinate ``block``."""
        body = struct.pack("<qIHBB", 0, n, k, 1, width_byte) + bytes(range(n)) + block
        return struct.pack("<2sBBqI", b"SP", 9, 2, 1, len(body)) + body

    def _refused(self, blob: bytes, match: str) -> None:
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match=match):
                read(blob)

    def test_layout_on_a_hand_written_block(self):
        blob = ResultMessage(1, 0, (0, 1, 2), self.HAND).encode()
        assert self.COLUMNS == (bytes([3, 2, 2, 0b0010_0100]), bytes([0, 3, 2, 0b0000_1000]))
        assert blob == self._record(3, 2, b"".join(self.COLUMNS))
        assert decode(blob).coords.tolist() == self.HAND.tolist()
        assert coord_width(self.HAND) == (Quanta((-2, 0), (2, 3), (2, 2)), 6)
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(
            3, 2, 3, *coord_width(self.HAND)
        ) == len(blob) + 32

    def test_uniform_doubles_save_their_unused_bits(self, rng):
        """``rng.random`` returns multiples of 2**-53: every column takes
        exponent −53 and at most 53 bits a value, against version 8's 56."""
        coords = rng.random((60, 3))
        quanta, sent = coord_width(coords)
        assert quanta.exponents == (-53,) * 3 and max(quanta.bits) <= 53 and sent == 180
        blob = ResultMessage(1, 0, range(60), coords).encode()
        assert blob[HEADER_SIZE + 15] == 0x20
        assert len(blob) < HEADER_SIZE + 16 + 60 + 1 + 180 * 7
        assert decode(blob).coords.view("<u8").tolist() == coords.view("<u8").tolist()

    @pytest.mark.parametrize(
        "name,coords",
        [
            ("a negative value", np.array([[0.5, 3.0], [-0.75, 5.0]])),
            ("-0.0", np.array([[0.5, 3.0], [-0.0, 5.0]])),
            ("nan", np.array([[0.5, 3.0], [np.nan, 5.0]])),
            ("inf", np.array([[0.5, 3.0], [np.inf, 5.0]])),
            ("integers past 64 bits", np.array([[1.0, 3.0], [2.0**64, 5.0]])),
        ],
    )
    def test_blocks_without_a_quantum_layout_keep_version_8(self, name, coords):
        assert quantize(coords) is None, name
        blob = ResultMessage(1, 0, (0, 1), coords).encode()
        assert not blob[HEADER_SIZE + 15] & 0x20
        assert decode(blob).coords.view("<u8").tolist() == coords.view("<u8").tolist()

    def test_a_larger_quantum_block_keeps_version_8(self):
        """One value of 53 significant bits: 8 bytes as version 8 sends
        it, 10 (exponent, an 8-byte base, width) quantum-coded."""
        coords = np.array([[0.6]])
        assert quantize(coords).nbytes(1) == 10
        assert coord_width(coords) == (0, 1)

    @pytest.mark.parametrize(
        "name,column_0",
        [
            ("exponent not the largest", _column(-3, 4, 3, [0, 2, 4])),
            ("base not the smallest", _column(-2, 1, 2, [1, 2, 3])),
            ("width not the fewest bits", _column(-2, 2, 3, [0, 1, 2])),
        ],
    )
    def test_a_column_the_encoder_would_not_write_is_refused(self, name, column_0):
        """Each of these holds the same three values as the hand block."""
        blob = self._record(3, 2, column_0 + self.COLUMNS[1])
        self._refused(blob, "not their values' own")

    def test_a_column_of_zeros_has_exponent_zero(self):
        block = _column(1, 0, 0, [0, 0, 0]) + self.COLUMNS[1]
        self._refused(self._record(3, 2, block), "not their values' own")
        assert decode(self._record(3, 2, _column(0, 0, 0, [0, 0, 0]) + self.COLUMNS[1]))

    def test_a_block_no_smaller_than_version_8_is_refused(self):
        coords = np.array([[0.6]])
        base = int(0.6 * 2.0**53)
        blob = self._record(1, 1, _column(-53, base, 0, [0]))
        self._refused(blob, "not smaller than its version 8 layout")
        assert ResultMessage(1, 0, (0,), coords).encode() != blob

    @pytest.mark.parametrize(
        "name,block,match",
        [
            ("width past 64", _column(0, 0, 65, [0, 0, 0]), "past 64"),
            ("53 significant bits", _column(0, 2**53 + 1, 0, [0, 0, 0]), "53 significant"),
            ("an integer past 64 bits", _column(0, 2**64 - 1, 1, [0, 1, 0]), "past 64 bits"),
            ("exponent below -1074", _column(-1075, 1, 1, [0, 1, 0]), "-1074..1023"),
            ("exponent above 1023", _column(1024, 1, 1, [0, 1, 0]), "-1074..1023"),
            ("a value past the largest double", _column(1023, 2, 1, [0, 1, 0]), "largest double"),
            ("padding bit", _column(-2, 2, 2, [0, 1, 2])[:3] + b"\xa4", "padding bit"),
            ("varint not minimal", b"\x83\x00" + _column(-2, 2, 2, [0, 1, 2])[1:], "not minimal"),
            ("varint past 64 bits", b"\x03" + b"\xff" * 9 + b"\x02" + b"\x00", "overflows 64 bits"),
            ("varint longer than 10 bytes", b"\x03" + b"\x80" * 10 + b"\x00", "longer than 10"),
        ],
    )
    def test_a_malformed_column_is_refused(self, name, block, match):
        self._refused(self._record(3, 2, block + self.COLUMNS[1]), match)

    @pytest.mark.parametrize("flags", [0x80, 0x40, 0x10, 0x07, 0x08])
    def test_the_flag_is_the_whole_width_byte(self, flags):
        blob = self._record(3, 2, b"".join(self.COLUMNS), width_byte=0x20 | flags)
        self._refused(blob, "coordinate width")

    def test_an_empty_block_is_never_quantum_coded(self):
        self._refused(self._record(0, 2, b""), "never quantum-coded")

    def test_a_byte_past_the_columns_is_refused(self):
        self._refused(self._record(3, 2, b"".join(self.COLUMNS) + b"\x00"), "result body has")

    def test_every_prefix_of_a_quantum_record_is_a_wire_error(self):
        blob = ResultMessage(1, 0, (0, 1, 2), self.HAND).encode()
        for cut in range(len(blob)):
            short = bytearray(blob[:cut])
            if cut >= HEADER_SIZE:
                struct.pack_into("<I", short, 12, cut - HEADER_SIZE)
            for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
                with pytest.raises(WireError):
                    read(blob[:cut])
                with pytest.raises(WireError):
                    read(bytes(short))


def _group(values, low: int) -> bytes:
    """One byte-coded group of ``values`` at width ``low``: the high
    ``8 - low`` bytes of its first value once, then each value's low
    ``low`` bytes."""
    words = [struct.pack("<d", v) for v in values]
    return (words[0][low:] if words else b"") + b"".join(w[:low] for w in words)


def _framed(n: int, k: int, id_byte: int, width_byte: int, rest: bytes) -> bytes:
    body = struct.pack("<qIHBB", 0, n, k, id_byte, width_byte) + rest
    return struct.pack("<2sBBqI", b"SP", 9, 2, 1, len(body)) + body


class TestCanonicalForm:
    """The reader refuses every record the encoder would not write, even
    one that decodes to a well-formed message: each id and coordinate
    width is the fewest bytes its values need, and each layout is the
    one the cost model charges for them."""

    #: Negative values, so no quantum layout: each shares the six high
    #: bytes of -1.0 and no seventh, one group of width 2.
    NEGATIVE = -1.0 - np.array([[0, 1], [3, 5], [7, 11]]) * 2.0**-40

    def _refused(self, blob: bytes, match: str) -> None:
        for read in (decode, lambda b: cost_estimate(b, DEFAULT_COST_MODEL)):
            with pytest.raises(WireError, match=match):
                read(blob)

    def test_a_plain_id_column_wider_than_its_ids_is_refused(self):
        """Ids 1, 5, 9 go in one byte each; the same ids in two bytes
        each decode to the same message, and are refused."""
        coords = np.array([[-0.5], [-0.25], [-0.75]])
        blob = ResultMessage(1, 0, (1, 5, 9), coords).encode()
        assert blob[HEADER_SIZE + 14] == 1 == id_width((1, 5, 9))
        block = blob[HEADER_SIZE + 19 :]
        assert decode(_framed(3, 1, 1, blob[HEADER_SIZE + 15], bytes([1, 5, 9]) + block))
        wide = _framed(3, 1, 2, blob[HEADER_SIZE + 15], bytes([1, 0, 5, 0, 9, 0]) + block)
        self._refused(wide, "id width 2 is not the ids' own 1")

    def test_a_gap_coded_id_byte_of_another_width_is_refused(self):
        """Ids 5, 300, 1000 are gap-coded beside a 2-byte width; the same
        gaps beside width 3 (still smaller than a 3-byte column) are
        refused."""
        msg = ResultMessage(1, 0, (1000, 5, 300), np.full((3, 1), -0.5))
        blob = bytearray(msg.encode())
        assert blob[HEADER_SIZE + 14] == 0x80 | 2
        assert decode(bytes(blob)) == msg
        blob[HEADER_SIZE + 14] = 0x80 | 3
        self._refused(bytes(blob), "id width 3 is not the ids' own 2")

    def test_a_one_group_width_one_byte_wider_is_refused(self):
        """The 3 x 2 negative block goes as one group at ``c = 2``; at
        ``c = 3``, one shared byte fewer, it decodes to the same values
        and is refused."""
        coords = self.NEGATIVE
        assert coord_width(coords) == (2, 6)
        values = coords.reshape(-1).tolist()
        ids = bytes([0, 1, 2])
        blob = ResultMessage(1, 0, range(3), coords).encode()
        assert blob == _framed(3, 2, 1, 2, ids + _group(values, 2))
        wide = _framed(3, 2, 1, 3, ids + _group(values, 3))
        assert len(wide) == len(blob) + 6 - 1  # a byte more per value, one shared fewer
        self._refused(wide, "coordinate layout")

    def test_a_column_width_one_byte_wider_is_refused(self):
        """The same for a per-column block: column 1 of ``ZERO_COLUMN``
        sent one byte wider than its shared high bytes allow."""
        coords = TestColumnLayout.ZERO_COLUMN
        (widths, sent) = coord_width(coords)
        assert len(widths) == 3 and widths[0] == 8 and sent == (0, 6, 6)
        blob = ResultMessage(1, 0, range(6), coords).encode()
        bitmap = np.packbits(coords.reshape(-1) == 0, bitorder="little").tobytes()

        def record(width_1: int) -> bytes:
            groups = _group(coords[:, 1], width_1) + _group(coords[:, 2], widths[2])
            rest = bytes([width_1, widths[2]]) + bytes(range(6)) + bitmap + groups
            return _framed(6, 3, 1, 0xC0 | 8, rest)

        assert blob == record(widths[1])
        self._refused(record(widths[1] + 1), "coordinate layout")

    #: Ids whose gaps (5 bytes: zigzag 5, then 1, 1, 293) beat a 2-byte
    #: column (8 bytes), so there is room for a gap block a byte longer.
    GAPPED = (5, 6, 7, 300)

    def _gapped(self, id_byte: int, id_block: bytes) -> bytes:
        group = struct.pack("<d", -0.5)  # width 0: the shared value once
        return _framed(len(self.GAPPED), 1, id_byte, 0, id_block + group)

    def test_a_gap_varint_that_is_not_minimal_is_refused(self):
        """``5`` padded to two varint bytes still decodes to the same
        ids, in a block still smaller than the column, and is refused."""
        assert id_bytes(self.GAPPED) == 5
        msg = ResultMessage(1, 0, self.GAPPED, np.full((4, 1), -0.5))
        assert msg.encode() == self._gapped(0x80 | 2, bytes([0x0A, 1, 1, 0xA5, 0x02]))
        padded = self._gapped(0x80 | 2, bytes([0x8A, 0x00, 1, 1, 0xA5, 0x02]))
        self._refused(padded, "an id block of 6 bytes is not the ids' own 5")

    def test_a_plain_id_column_whose_gaps_are_smaller_is_refused(self):
        """The same ids in a plain 2-byte column decode to the same
        message; the encoder sends the smaller gap block, so the column
        is refused."""
        column = b"".join(i.to_bytes(2, "little") for i in self.GAPPED)
        self._refused(self._gapped(2, column), "an id block of 8 bytes is not the ids' own 5")

    def test_a_byte_group_that_a_quantum_block_beats_is_refused(self):
        """0.5, 0.25 and 0.75 share one high byte, so they fit a group
        of width 7, but as multiples of 2**-2 they go in a 4-byte quantum
        block; the byte group is refused."""
        values = [0.5, 0.25, 0.75]
        coords = np.array(values)[:, None]
        assert isinstance(coord_width(coords)[0], Quanta)
        group = _framed(3, 1, 1, 7, bytes([0, 1, 2]) + _group(values, 7))
        self._refused(group, "not smaller than its quantum layout")
