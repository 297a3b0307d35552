"""Property-based tests (hypothesis) for the wire format."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.cost import DEFAULT_COST_MODEL, CostModel, coord_width, id_width
from repro.p2p.wire import QueryMessage, ResultMessage, WireError, cost_estimate, decode

finite_floats = st.floats(0, 1e9, allow_nan=False)

# The wire frame is a 16-byte header (magic 2B, version 1B, kind 1B,
# query id 8B, length 4B) followed by the body.  The cost model's
# ``message_header_bytes`` is a single knob covering "everything that
# is not payload", so anchoring the estimate to the concrete layout
# needs one calibration per message kind: a query's non-payload bytes
# are frame + dimension-count/threshold/initiator/point-count fields
# minus the threshold the model charges separately (16 + 19 - 8 = 27),
# a result's are frame + sender/count/dimensionality/id-width/
# coordinate-width fields (16 + 16 = 32).
QUERY_COST = CostModel(message_header_bytes=27)
RESULT_COST = CostModel(message_header_bytes=32)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Ids on both sides of every width step, the extremes and negatives.
EDGE_IDS = [0, 255, 256, 2**16 - 1, 2**16, 2**24, 2**32, 2**56, INT64_MAX, -1, INT64_MIN]
ids_strategy = st.sampled_from(EDGE_IDS) | st.integers(INT64_MIN, INT64_MAX)


@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.integers(0, 1000), min_size=1, max_size=16, unique=True),
    st.floats(0, 1e12, allow_nan=False) | st.just(float("inf")),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_query_roundtrip(query_id, dims, threshold, initiator, pointed, data):
    point = None
    if pointed:
        point = tuple(data.draw(st.lists(finite_floats, min_size=len(dims), max_size=len(dims))))
    msg = QueryMessage(
        query_id=query_id,
        subspace=tuple(sorted(dims)),
        threshold=threshold,
        initiator=initiator,
        point=point,
    )
    blob = msg.encode()
    assert decode(blob) == msg
    # The envelope is one constant for every k, with or without a point.
    assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 37


@given(
    st.integers(0, 2**31 - 1),
    st.integers(-(2**40), 2**40),
    st.integers(1, 8),
    st.lists(ids_strategy, max_size=25),
    st.sampled_from(["plain", "final", "decline"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_result_roundtrip(query_id, sender, k, ids, mark, data):
    if mark == "decline":
        ids = []
    rows = [data.draw(st.lists(finite_floats, min_size=k, max_size=k)) for _ in ids]
    coords = np.array(rows).reshape(len(ids), k)
    msg = ResultMessage(
        query_id=query_id,
        sender=sender,
        ids=ids,
        coords=coords,
        final=mark != "plain",
        decline=mark == "decline",
    )
    blob = msg.encode()
    back = decode(blob)
    assert back == msg
    assert back.ids.tolist() == ids and back.k == k
    assert (back.final, back.decline) == (mark != "plain", mark == "decline")
    # The column is as wide as the largest id needs, each coordinate as
    # wide as the block's unshared low bytes; the estimate charges both.
    width, low = id_width(ids), coord_width(coords)
    assert (blob[16 + 14], blob[16 + 15]) == (width, low)
    assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(
        len(ids), k, width, low
    )
    # The envelope is one constant for every n, k, width and mark.
    assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32
    # The key the receiver merges on is recomputed, ascending, from the record.
    rebuilt = back.to_store()
    assert sorted(rebuilt.points.ids.tolist()) == sorted(ids)
    assert rebuilt.f.tolist() == sorted(min(row) for row in msg.coords.tolist())


@given(
    st.integers(0, 40),
    st.integers(1, 8),
    st.integers(0, 8),
    st.integers(0, 2**64 - 1),
    st.sampled_from(["plain", "final"]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_coordinate_block_roundtrips_bit_for_bit(n, k, shared, base, mark, data):
    """Blocks whose bit patterns agree on at least ``shared`` high bytes
    — NaN payloads, infinities, signed zeros and subnormals included —
    come back bit for bit, at the width ``coord_width`` picks, and the
    estimate stays one constant above the measured bytes."""
    unshared = (1 << 8 * (8 - shared)) - 1
    rows = data.draw(
        st.lists(st.integers(0, unshared), min_size=n * k, max_size=n * k), label="low bits"
    )
    bits = np.array([base & ~unshared | low for low in rows], dtype=np.uint64).reshape(n, k)
    coords = bits.view("<f8")
    msg = ResultMessage(query_id=2, sender=5, ids=range(n), coords=coords, final=mark == "final")
    blob = msg.encode()
    back = decode(blob)
    assert back.coords.view("<u8").tolist() == bits.tolist()
    assert back.ids.tolist() == list(range(n)) and back.final is (mark == "final")
    low = coord_width(coords)
    assert blob[16 + 15] == low
    assert low <= 8 - shared if n * k else low == 8
    estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
    assert estimate == DEFAULT_COST_MODEL.result_bytes(n, k, id_width(range(n)), low)
    assert estimate - len(blob) == 32
    assert len(blob) == RESULT_COST.result_bytes(n, k, id_width(range(n)), low)
    assert len(blob) <= RESULT_COST.result_bytes(n, k, id_width(range(n)), 8)


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_random_blobs_never_crash(blob):
    """Garbage must raise WireError, never anything else."""
    try:
        decode(blob)
    except WireError:
        pass


@given(st.data(), st.sampled_from(["query", "pointed query", "result", "shared result"]))
@settings(max_examples=100, deadline=None)
def test_truncation_always_detected(data, which):
    if which.endswith("query"):
        msg = QueryMessage(
            query_id=1, subspace=(0, 2, 5), threshold=0.5, initiator=3,
            point=(0.25, 0.5, 0.75) if which == "pointed query" else None,
        )
    else:
        # 0.0 shares no byte with the others; without it the block's
        # width byte is 7 and the top byte 0x3F travels once.
        rows = [(0.25, 0.5, 0.75), (0.5, 0.125, 0.0 if which == "result" else 1.5)]
        msg = ResultMessage(query_id=1, sender=3, ids=(7, 300), coords=rows)
    blob = msg.encode()
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        decoded = decode(blob[:cut])
    except WireError:
        return
    raise AssertionError(f"truncated blob decoded to {decoded}")


# ----------------------------------------------------------------------
# encoded size matches the cost-model estimate
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=16, unique=True),
    st.floats(0, 1e12, allow_nan=False) | st.just(float("inf")),
    st.integers(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_query_size_matches_cost_model(dims, threshold, points):
    msg = QueryMessage(
        query_id=7, subspace=tuple(sorted(dims)), threshold=threshold, initiator=2,
        point=(0.5,) * len(dims) if points else None,
    )
    assert len(msg.encode()) == QUERY_COST.query_bytes(len(dims), points)


@given(
    st.integers(1, 8),
    st.integers(0, 30),
    st.sampled_from(EDGE_IDS),
)
@settings(max_examples=100, deadline=None)
def test_result_size_matches_cost_model(k, n, largest):
    rng = np.random.default_rng(n * 31 + k)
    ids = [largest] + list(range(n - 1)) if n else []
    coords = rng.random((n, k))
    msg = ResultMessage(
        query_id=3,
        sender=1,
        ids=ids,
        coords=coords,
    )
    assert len(msg.encode()) == RESULT_COST.result_bytes(n, k, id_width(ids), coord_width(coords))


def test_empty_result_roundtrips_at_header_cost():
    msg = ResultMessage(query_id=9, sender=4, ids=(), coords=())
    blob = msg.encode()
    assert decode(blob) == msg
    # k and the id width are irrelevant at n=0; an empty block is width 8.
    assert blob[16 + 15] == 8
    assert len(blob) == RESULT_COST.result_bytes(0, 5, 8, 8)


def test_single_dimension_subspace_roundtrips():
    msg = QueryMessage(query_id=11, subspace=(4,), threshold=0.25, initiator=0)
    blob = msg.encode()
    assert decode(blob) == msg
    assert len(blob) == QUERY_COST.query_bytes(1)


# ----------------------------------------------------------------------
# header corruption is always detected
# ----------------------------------------------------------------------
def _sample_messages():
    return [
        QueryMessage(query_id=5, subspace=(1, 3), threshold=0.75, initiator=2),
        QueryMessage(query_id=5, subspace=(1, 3), threshold=0.75, initiator=2, point=(0.5, 0.25)),
        ResultMessage(
            query_id=6, sender=1, ids=(10, 11),
            coords=((0.1, 0.5), (0.2, 0.4)),
        ),
    ]


@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 255))
@settings(max_examples=100, deadline=None)
def test_magic_or_version_corruption_raises(msg_idx, byte_idx, delta):
    """Flipping any magic/version byte must fail decoding."""
    blob = bytearray(_sample_messages()[msg_idx].encode())
    blob[byte_idx] = (blob[byte_idx] + delta) % 256
    try:
        decode(bytes(blob))
    except WireError:
        return
    raise AssertionError("corrupted magic/version decoded")


@given(st.integers(0, 2), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_unknown_kind_raises(msg_idx, kind):
    """Any kind byte outside the known kinds (query; result, final
    result, decline) must fail decoding."""
    if kind in (1, 2, 3, 4):
        return
    blob = bytearray(_sample_messages()[msg_idx].encode())
    blob[3] = kind
    try:
        decode(bytes(blob))
    except WireError:
        return
    raise AssertionError(f"unknown kind {kind} decoded")


@given(st.integers(0, 2), st.integers(-16, 16).filter(lambda d: d != 0))
@settings(max_examples=100, deadline=None)
def test_length_field_corruption_raises(msg_idx, delta):
    """A header length disagreeing with the body must fail decoding."""
    import struct

    blob = bytearray(_sample_messages()[msg_idx].encode())
    (length,) = struct.unpack_from("<I", blob, 12)
    if length + delta < 0:
        return
    struct.pack_into("<I", blob, 12, length + delta)
    try:
        decode(bytes(blob))
    except WireError:
        return
    raise AssertionError("length-corrupted frame decoded")
