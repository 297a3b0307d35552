"""Unit tests for the wire format."""

import math
import struct

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.cost import DEFAULT_COST_MODEL, id_width
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

    def test_per_point_size_matches_cost_model_shape(self, rng):
        """Growth per point is the message's id width + k coordinates
        (8 bytes each); ids 100 and 101 fit in one byte."""
        s1 = self._store(rng, n=1)
        s2 = self._store(rng, n=2)
        b1 = len(ResultMessage.from_store(1, 0, s1, (0, 1, 2)).encode())
        b2 = len(ResultMessage.from_store(1, 0, s2, (0, 1, 2)).encode())
        assert b2 - b1 == 1 + 3 * 8 == DEFAULT_COST_MODEL.point_bytes(3, 1)

    @pytest.mark.parametrize(
        "largest,width", [(255, 1), (256, 2), (2**24, 4), (2**63 - 1, 8), (-1, 8)]
    )
    def test_the_id_column_is_as_wide_as_the_largest_id(self, largest, width):
        """The body is the head, then ``n * w`` id bytes, then the
        ``n x k`` coordinate block; every id decodes to its own value."""
        ids = (0, 7, largest)
        coords = ((0.5, 0.25), (0.125, 1.0), (2.0, 0.0))
        blob = ResultMessage(1, 3, ids, coords).encode()
        head = HEADER_SIZE + 15
        assert blob[head - 1] == width
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
            DEFAULT_COST_MODEL.result_bytes(0, 0, 1)
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
            assert blob[2] == 4
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

    @pytest.mark.parametrize("width", [0, 9, 255])
    def test_id_width_outside_one_to_eight_rejected(self, width):
        """The width byte is checked before any column is read, whatever
        the length fields say."""
        blob = bytearray(ResultMessage(1, 0, (1, 2), ((0.5,), (0.25,))).encode())
        blob[HEADER_SIZE + 14] = width
        with pytest.raises(WireError, match=f"id width {width}"):
            decode(bytes(blob))
        # The same, with a body as long as that width would need.
        body = blob[HEADER_SIZE : HEADER_SIZE + 15] + bytes(2 * width + 2 * 8)
        head = bytearray(blob[:HEADER_SIZE])
        struct.pack_into("<I", head, 12, len(body))
        with pytest.raises(WireError, match=f"id width {width}"):
            decode(bytes(head + body))

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
        points = PointSet(rng.random((3, 4)), np.arange(3))
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
            "result_body_head": HEADER_SIZE + 15,  # sender + n + k + w
            "result_ids": HEADER_SIZE + 15 + 3,  # ids 0..2 fit one byte each
            "result_coords": HEADER_SIZE + 15 + 3 + 3 * 2 * 8 - 1,
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
        width byte, inside and at the end of the id column, inside the
        coordinate block — whose header length was rewritten to match:
        the body decoder itself refuses it."""
        blob = self._result_blob(rng)
        n, k, width = 3, 2, 1
        assert blob[HEADER_SIZE + 14] == width
        ids_end = 15 + n * width
        for cut in (0, 8, 12, 14, 15, 15 + 1, ids_end, ids_end + 8, ids_end + n * k * 8 - 1):
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
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(7, 3, 1)
        ids = np.array([70_000, 12, 99_999])
        store = SortedByF.from_points(PointSet(rng.random((3, 5)), ids))
        blob = ResultMessage.from_store(1, 0, store, (0, 1, 4)).encode()
        assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(3, 3, 3)

    def test_framing_delta_is_constant(self, rng):
        """``cost_estimate`` is the model's charge for the record, and the
        codec's own bytes differ from it by the same constant for every
        n, k and mark (docs/TRANSPORT.md)."""
        deltas = set()
        cases = [(0, 1, False, 0), (1, 1, True, 0), (1, 4, False, 2**20), (6, 2, True, 2**40)]
        for n, k, final, first_id in cases:
            ids = np.arange(first_id, first_id + n)
            store = SortedByF.from_points(PointSet(rng.random((n, 4)), ids))
            blob = ResultMessage.from_store(1, 0, store, range(k), final=final).encode()
            estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
            assert estimate == DEFAULT_COST_MODEL.result_bytes(n, k, id_width(ids))
            deltas.add(estimate - len(blob))
        assert deltas == {33}

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
