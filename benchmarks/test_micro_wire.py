"""Micro-benchmark: encode + decode of one RESULT message.

A 300-point list on a k = 4 subspace — the size of a ``wide_skyline``
answer — with ids below 100 000, so an id column would be 3 bytes wide
and the ids travel as LEB128 gaps instead, and coordinates drawn by
``rng.random``, multiples of 2**-53, so the coordinate block travels
quantum-coded: each column's integers at most 53 bits a value.  The
``zeros`` block clips every value below 0.108 to +0.0, as the
anticorrelated generator's clipping leaves about 10.8 % of
``wide_skyline``'s shipped coordinates: its zeros would cost the
quantum columns 53 bits each, so it carries a zero bitmap instead and
sends the rest at 7 low bytes, their shared top byte once.  The
round trip rebuilds the receiver's sorted store, as a socket endpoint
does for every list it merges; encode and decode are also timed alone.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_wire.py --benchmark-only
"""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.cost import Quanta, coord_width, id_bytes
from repro.p2p.wire import ResultMessage, decode


@pytest.fixture(scope="module", params=["plain", "zeros"])
def message(request) -> ResultMessage:
    rng = np.random.default_rng(36)
    ids = rng.choice(100_000, size=300, replace=False)
    values = rng.random((300, 8))
    if request.param == "zeros":
        values[values < 0.108] = 0.0
    store = SortedByF.from_points(PointSet(values, ids))
    return ResultMessage.from_store(1, 0, store, (0, 2, 5, 7))


def test_encode_decode_300_points_k4(benchmark, message):
    def roundtrip():
        back = decode(message.encode())
        return back, back.to_store()

    back, store = benchmark(roundtrip)
    assert back == message
    low, sent = coord_width(message.coords)
    zeros = int((message.coords == 0.0).sum())
    # 300 ids of 100 000 have gaps near 333: mostly two varint bytes, not a 3-byte column.
    assert id_bytes(message.ids) < 300 * 3
    if zeros:
        assert (low, sent) == (7, 1200 - zeros)
        block = 1200 // 8 + 1 + sent * 7
    else:
        assert isinstance(low, Quanta) and low.exponents == (-53,) * 4 and sent == 1200
        block = low.nbytes(300)
        assert block < 1 + sent * 7
    assert len(message.encode()) == 16 + 16 + id_bytes(message.ids) + block
    assert sorted(store.points.ids.tolist()) == sorted(message.ids.tolist())


def test_encode_300_points_k4(benchmark, message):
    blob = benchmark(message.encode)
    assert decode(blob) == message


def test_decode_300_points_k4(benchmark, message):
    blob = message.encode()
    back = benchmark(decode, blob)
    assert back == message
    assert back.coords.view("<u8").tolist() == message.coords.view("<u8").tolist()
