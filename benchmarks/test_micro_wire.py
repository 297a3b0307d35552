"""Micro-benchmark: encode + decode of one RESULT message.

A 300-point list on a k = 4 subspace — the size of a ``wide_skyline``
answer — with ids below 100 000, so the id column is 3 bytes wide.  The
round trip rebuilds the receiver's sorted store, as a socket endpoint
does for every list it merges.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_wire.py --benchmark-only
"""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.wire import ResultMessage, decode


@pytest.fixture(scope="module")
def message() -> ResultMessage:
    rng = np.random.default_rng(36)
    ids = rng.choice(100_000, size=300, replace=False)
    store = SortedByF.from_points(PointSet(rng.random((300, 8)), ids))
    return ResultMessage.from_store(1, 0, store, (0, 2, 5, 7))


def test_encode_decode_300_points_k4(benchmark, message):
    def roundtrip():
        back = decode(message.encode())
        return back, back.to_store()

    back, store = benchmark(roundtrip)
    assert back == message
    assert len(message.encode()) == 16 + 15 + 300 * (3 + 4 * 8)
    assert sorted(store.points.ids.tolist()) == sorted(message.ids.tolist())
