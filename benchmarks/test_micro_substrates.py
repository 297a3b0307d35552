"""Micro-benchmarks for the substrates.

Not a paper figure — these pin the costs of the building blocks every
experiment rests on: wire encode/decode, Algorithm 2 merges, and the
pre-processing primitives.
"""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.extended_skyline import extended_skyline
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF
from repro.p2p.wire import ResultMessage, decode


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(2)
    return rng.random((5000, 4))


class TestWireMicro:
    def test_encode_decode_roundtrip(self, benchmark, cloud):
        store = SortedByF.from_points(PointSet(cloud[:200]))
        msg = ResultMessage.from_store(1, 0, store, (0, 1, 2))

        def roundtrip():
            return decode(msg.encode())

        back = benchmark(roundtrip)
        assert len(back) == 200


class TestCoreMicro:
    def test_extended_skyline_5000(self, benchmark, cloud):
        points = PointSet(cloud)
        result = benchmark.pedantic(extended_skyline, args=(points,), rounds=3)
        assert len(result.result) > 0

    def test_merge_of_many_lists(self, benchmark, cloud):
        rng = np.random.default_rng(5)
        lists = [
            SortedByF.from_points(PointSet(rng.random((40, 4)), np.arange(i * 40, (i + 1) * 40)))
            for i in range(50)
        ]
        result = benchmark(merge_sorted_skylines, lists, (0, 1, 2))
        assert len(result.result) > 0
