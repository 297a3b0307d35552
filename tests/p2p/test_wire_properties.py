"""Property-based tests (hypothesis) for the wire format."""

from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.cost import (
    DEFAULT_COST_MODEL, CostModel, Quanta, coord_width, id_bytes, id_width, quantize,
)
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
# coordinate-width fields (16 + 16 = 32); a zero bitmap is payload,
# charged by both sides alike.
QUERY_COST = CostModel(message_header_bytes=27)
RESULT_COST = CostModel(message_header_bytes=32)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def width_byte(coords) -> int:
    """The coordinate width byte a record of ``coords`` carries: the
    (first) width, ``0x80`` for a zero bitmap, ``0x40`` per column, or
    ``0x20`` alone for a quantum-coded block."""
    if isinstance(coord_width(coords)[0], Quanta):
        return 0x20
    low, sent = map(np.atleast_1d, coord_width(coords))
    bitmap = 0x80 if sent.sum() < np.size(coords) else 0
    return int(low[0]) | bitmap | (0x40 if len(low) > 1 else 0)


def v6_bytes(coords) -> int:
    """The coordinate bytes of version 6's one-block layout: the
    bitmap of a block that mixes +0.0 with other values, the shared high
    bytes once and ``c`` low bytes per sent value."""
    bits = np.ascontiguousarray(coords, dtype="<f8").reshape(-1).view("<u8")
    if not bits.size:
        return 8
    flagged = 0 < np.count_nonzero(bits) < bits.size
    sent = bits[bits != 0] if flagged else bits
    low = (int(np.bitwise_or.reduce(sent ^ sent[0])).bit_length() + 7) // 8
    return ((bits.size + 7) // 8 if flagged else 0) + 8 - low + sent.size * low
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
    assert back.ids.tolist() == sorted(ids) and back.k == k
    assert (back.final, back.decline) == (mark != "plain", mark == "decline")
    # The column is as wide as the largest id needs, or the ids travel
    # as gaps when that is smaller; each sent coordinate is as wide as
    # the sent values' unshared low bytes; the estimate charges both,
    # and the zero bitmap of a block that has one.
    width, (low, sent) = id_width(ids), coord_width(coords)
    gaps = 0x80 if id_bytes(ids) < len(ids) * width else 0
    assert (blob[16 + 14], blob[16 + 15]) == (width | gaps, width_byte(coords))
    assert cost_estimate(blob, DEFAULT_COST_MODEL) == DEFAULT_COST_MODEL.result_bytes(
        len(ids), k, id_bytes(ids), low, sent
    )
    # The envelope is one constant for every n, k, width, zero count and mark.
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
    low, sent = coord_width(coords)
    assert blob[16 + 15] == width_byte(coords)
    if not isinstance(low, Quanta):
        assert max(np.atleast_1d(low)) <= 8 - shared if n * k else low == 8
    estimate = cost_estimate(blob, DEFAULT_COST_MODEL)
    assert estimate == DEFAULT_COST_MODEL.result_bytes(n, k, id_bytes(range(n)), low, sent)
    assert estimate - len(blob) == 32
    assert len(blob) == RESULT_COST.result_bytes(n, k, id_bytes(range(n)), low, sent)
    if sum(np.atleast_1d(sent)) == n * k:  # a bitmap can outweigh the one zero it drops (docs/TRANSPORT.md)
        assert len(blob) <= RESULT_COST.result_bytes(n, k, id_bytes(range(n)), 8, n * k)


#: The generators' unit cube: every value in [2**-15, 1] shares the top
#: byte 0x3F, and a value clipped to the cube's floor is +0.0.
cube_values = st.just(0.0) | st.floats(2.0**-15, 1.0)


@given(st.integers(1, 40), st.integers(1, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_zero_bearing_block_roundtrips_at_the_constant_envelope(n, k, data):
    """Blocks of +0.0 mixed with -0.0 and other values come back bit for
    bit, and the estimate, which reads the bitmap, is 32 B above the
    measured bytes."""
    values = data.draw(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324]) | cube_values, min_size=n * k,
                 max_size=n * k)
    )
    coords = np.array(values).reshape(n, k)
    blob = ResultMessage(query_id=2, sender=5, ids=range(n), coords=coords).encode()
    assert decode(blob).coords.view("<u8").tolist() == coords.view("<u8").tolist()
    assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32


@given(st.integers(1, 300), st.integers(1, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_a_unit_cube_block_is_never_larger_than_version_5(n, k, data):
    """The v6 record of a block drawn from ``{+0.0} ∪ [2**-15, 1]`` is
    never longer than version 5's: ``32 + n·w + (8 − c) + nk·c``, ``c``
    taken over every value, +0.0 included.  Nor is the v7 record longer
    than v6's one-block layout of the same block."""
    values = data.draw(st.lists(cube_values, min_size=n * k, max_size=n * k))
    coords = np.array(values).reshape(n, k)
    bits = coords.reshape(-1).view("<u8")
    v5_low = (int(np.bitwise_or.reduce(bits ^ bits[0])).bit_length() + 7) // 8
    v5 = 32 + n * id_width(range(n)) + (8 - v5_low) + n * k * v5_low
    blob = ResultMessage(1, 0, range(n), coords).encode()
    assert len(blob) <= v5
    assert len(blob) <= 32 + n * id_width(range(n)) + v6_bytes(coords)


#: Id lists of every shape a record meets: sparse, negative, repeated,
#: one, none, and a skybench list (about 60 of a super-peer's 5 000).
id_lists = st.one_of(
    st.lists(st.integers(0, 2**40), max_size=30),
    st.lists(ids_strategy, max_size=30),
    st.lists(st.sampled_from([-5, 0, 3, 3, 2**20]), max_size=30),
    st.lists(ids_strategy, min_size=1, max_size=1),
    st.just([]),
    st.lists(st.integers(0, 4999), min_size=40, max_size=80, unique=True),
)


def gap_block(ids) -> bytes:
    """The gap layout of ``ids``, written out with Python integers: the
    smallest id zigzag-coded, then each ascending gap, each in LEB128."""
    ordered = sorted(ids)
    words = [(ordered[0] << 1) ^ (ordered[0] >> 63)] if ordered else []
    words += [b - a for a, b in zip(ordered, ordered[1:])]
    out = bytearray()
    for word in words:
        while word >= 0x80:
            out.append(word & 0x7F | 0x80)
            word >>= 7
        out.append(word)
    return bytes(out)


@given(id_lists, st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_a_v8_record_is_never_longer_than_v7(ids, k, data):
    """Version 7 sent every id in the ``n·w`` column; version 8 sends
    the gaps instead exactly when they are strictly smaller, so no
    record grows, and one that does not shrink is v7's byte for byte
    but for the version byte and the row order."""
    coords = np.array(
        [data.draw(st.lists(finite_floats, min_size=k, max_size=k)) for _ in ids]
    ).reshape(len(ids), k)
    blob = ResultMessage(1, 0, ids, coords).encode()
    n, width = len(ids), id_width(ids)
    v7 = RESULT_COST.result_bytes(n, k, n * width, *coord_width(coords))
    assert len(blob) == v7 - n * width + id_bytes(ids) <= v7
    assert bool(blob[16 + 14] & 0x80) is (len(blob) < v7)
    if len(blob) < v7:  # the gaps, as the plain loop writes them, after any column widths
        start = 32 + (k - 1 if blob[16 + 15] & 0x40 else 0)
        assert blob[start : start + id_bytes(ids)] == gap_block(ids)


@given(id_lists, st.integers(1, 4), st.integers(0, 2**64 - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_ids_and_doubles_roundtrip_bit_for_bit_in_ascending_id_order(ids, k, base, data):
    """Whatever the ids, every id and every double (NaN payloads and
    signed zeros among them) comes back bit for bit, each row with its
    own id, and the rows come back in ascending id order (ties as
    given)."""
    low_bits = data.draw(
        st.lists(st.integers(0, 2**16 - 1), min_size=len(ids) * k, max_size=len(ids) * k)
    )
    bits = np.array([base ^ b for b in low_bits], dtype=np.uint64).reshape(len(ids), k)
    back = decode(ResultMessage(1, 0, ids, bits.view("<f8")).encode())
    order = np.argsort(np.array(ids, dtype=np.int64), kind="stable")
    assert back.ids.tolist() == [ids[i] for i in order] == sorted(ids)
    assert back.coords.view("<u8").tolist() == bits[order].tolist()


def quanta_by_hand(coords):
    """``(exponents, bases, widths)`` of the quantum layout of the
    ``n x k`` block ``coords``, worked out with Python fractions, or
    ``None`` when a value is negative, ``-0.0`` or not finite, or an
    integer of a column does not fit 64 bits."""
    columns = list(zip(*np.asarray(coords).tolist()))
    if not columns or not columns[0]:
        return None
    quanta: tuple[list, list, list] = ([], [], [])
    for column in columns:
        if any(math.copysign(1.0, v) < 0 or not math.isfinite(v) for v in column):
            return None
        lowest = []
        for value in filter(None, column):
            num, den = value.as_integer_ratio()  # den a power of two, num odd unless den is 1
            lowest.append((num & -num).bit_length() - den.bit_length())
        q = min(lowest, default=0)
        integers = [int(Fraction(v) / Fraction(2) ** q) for v in column]
        if max(integers) >> 64:
            return None
        for field, value in zip(quanta, (q, min(integers), (max(integers) - min(integers)).bit_length())):
            field.append(value)
    return tuple(map(tuple, quanta))


def quantum_block(coords) -> bytes:
    """The quantum-coded block of ``coords``, written out with Python
    integers: per column its exponent (zigzag LEB128), base (LEB128) and
    width (1 byte), then its integers less the base, ``width`` bits each,
    lowest bit first."""

    def leb128(word: int) -> bytes:
        out = bytearray()
        while word >= 0x80:
            out.append(word & 0x7F | 0x80)
            word >>= 7
        return bytes(out + bytes([word]))

    out = b""
    for j, (q, base, width) in enumerate(zip(*quanta_by_hand(coords))):
        packed = 0
        for i, value in enumerate(np.asarray(coords)[:, j].tolist()):
            packed |= (int(Fraction(value) / Fraction(2) ** q) - base) << i * width
        n = len(coords)
        out += leb128(2 * q if q >= 0 else -2 * q - 1) + leb128(base) + bytes([width])
        out += packed.to_bytes((n * width + 7) // 8, "little")
    return out


def v8_encode(message: ResultMessage) -> bytes:
    """``message`` laid out as version 8 would, with no quantum layout
    (but the version byte of the codec)."""
    with mock.patch("repro.p2p.cost.quantize", lambda block: None):
        return message.encode()


@st.composite
def quantum_blocks(draw):
    """``n x k`` blocks of the kinds a record meets: dyadic columns,
    integer values, uniform doubles of 53 bits (what ``rng.random``
    returns) clipped to the unit cube, subnormals, mixed exponents, and
    blocks holding a negative value, a ``-0.0`` or all zeros."""
    n, k = draw(st.integers(0, 30)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(
        ["dyadic", "integer", "clipped", "subnormal", "mixed", "negative", "-0.0", "zeros"]
    ))

    def ints(low: int, high: int) -> np.ndarray:
        return np.array(draw(st.lists(st.integers(low, high), min_size=n * k, max_size=n * k)),
                        dtype=np.float64).reshape(n, k)

    if kind == "dyadic":
        scale = np.array(draw(st.lists(st.integers(-70, 20), min_size=k, max_size=k)))
        return np.ldexp(ints(0, 2**20), scale)
    if kind == "integer":
        return ints(0, 10**6)
    if kind == "clipped":
        return np.clip(np.ldexp(ints(0, 2**53 - 1), -53) * 1.5 - 0.25, 0.0, 1.0)
    if kind == "subnormal":
        return np.ldexp(ints(0, 2**52 - 1), -1074)
    if kind == "mixed":
        return np.array(draw(st.lists(st.floats(0, 1e300, allow_subnormal=True),
                                      min_size=n * k, max_size=n * k))).reshape(n, k)
    if kind == "zeros":
        return np.zeros((n, k))
    block = np.ldexp(ints(0, 2**53 - 1), -53)
    if n * k:
        block.reshape(-1)[draw(st.integers(0, n * k - 1))] = -0.0 if kind == "-0.0" else -0.5
    return block


@given(quantum_blocks(), st.data())
@settings(max_examples=400, deadline=None)
def test_a_v9_record_is_never_longer_than_v8(coords, data):
    """Version 9 sends a block quantum-coded exactly when that is
    strictly smaller than version 8's layout of it, and is version 8's
    record byte for byte otherwise; the quantum block is the one a
    plain-integer writer gives, at the ids' end."""
    ids = data.draw(st.lists(st.integers(0, 4999) | ids_strategy, min_size=len(coords),
                             max_size=len(coords)))
    message = ResultMessage(1, 0, ids, coords)
    blob, v8 = message.encode(), v8_encode(message)
    assert len(blob) <= len(v8)
    layout = coord_width(coords)[0]
    assert isinstance(layout, Quanta) is (len(blob) < len(v8)) is (blob[16 + 15] == 0x20)
    if isinstance(layout, Quanta):
        assert (layout.exponents, layout.bases, layout.bits) == quanta_by_hand(coords)
        # The rows in ascending id order, as the record sends them.
        assert blob.endswith(quantum_block(message.coords))
        assert len(blob) == 32 + id_bytes(ids) + len(quantum_block(coords))
    else:
        assert blob == v8
    assert cost_estimate(blob, DEFAULT_COST_MODEL) - len(blob) == 32


@given(quantum_blocks(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_every_double_roundtrips_bit_for_bit_in_either_layout(coords, single):
    """Dyadic, integer-valued, clipped, subnormal, mixed-exponent,
    negative, ``-0.0`` and all-zero blocks — and their first point alone
    — come back bit for bit, and ``quantize`` agrees with the plain
    fractions wherever it finds a layout."""
    coords = coords[:1] if single else coords
    back = decode(ResultMessage(1, 0, range(len(coords)), coords).encode())
    assert back.coords.shape == coords.shape
    assert back.coords.view("<u8").tolist() == coords.view("<u8").tolist()
    quanta = quantize(coords)
    assert quanta_by_hand(coords) == (
        None if quanta is None else (quanta.exponents, quanta.bases, quanta.bits)
    )


@st.composite
def column_blocks(draw):
    """``n x k`` negative blocks whose columns each share high bytes but
    not with each other (so they go per column), at times with a column
    of ``+0.0`` (so beside a zero bitmap)."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    offsets = draw(st.lists(st.integers(0, 2**16), min_size=n * k, max_size=n * k))
    scales = draw(st.lists(st.integers(-10, 10), min_size=k, max_size=k))
    block = -np.ldexp(1.0 + np.array(offsets).reshape(n, k) * 2.0**-40, scales)
    if draw(st.booleans()):
        block[:, 0] = 0.0
    return block


@given(st.one_of(quantum_blocks(), column_blocks()), st.data())
@settings(max_examples=500, deadline=None)
def test_a_record_decode_accepts_after_byte_flips_re_encodes_to_itself(coords, data):
    """Flip one to three bytes of an encoded record: whatever ``decode``
    still accepts is a record the encoder writes, byte for byte, so no
    message has two encodings on the wire."""
    ids = data.draw(st.lists(st.integers(0, 4999) | ids_strategy, min_size=len(coords),
                             max_size=len(coords)))
    blob = bytearray(ResultMessage(1, 0, ids, coords).encode())
    flips = data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3))
    for at in flips:
        blob[at] ^= data.draw(st.integers(1, 255))
    try:
        message = decode(bytes(blob))
    except WireError:
        return
    assert message.encode() == bytes(blob)


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
        # 0.0 is marked in a bitmap; without it the block's width byte
        # is 7 and the top byte 0x3F travels once, with it the 0x80 flag
        # rides beside the 7.
        rows = [(0.25, 0.5, 0.75), (0.5, 0.125, 0.0 if which == "result" else 1.5)]
        msg = ResultMessage(query_id=1, sender=3, ids=(7, 300), coords=rows)
    blob = msg.encode()
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        cost_estimate(blob[:cut], DEFAULT_COST_MODEL)
    except WireError:
        pass
    else:
        raise AssertionError("a truncated blob was estimated")
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
    assert len(msg.encode()) == RESULT_COST.result_bytes(n, k, id_bytes(ids), *coord_width(coords))


def test_empty_result_roundtrips_at_header_cost():
    msg = ResultMessage(query_id=9, sender=4, ids=(), coords=())
    blob = msg.encode()
    assert decode(blob) == msg
    # k and the id width are irrelevant at n=0; an empty block is width 8.
    assert blob[16 + 15] == 8
    assert len(blob) == RESULT_COST.result_bytes(0, 5, 0, 8, 0)


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
