"""Micro-benchmark: the vectorized scan's batch size (``_SCAN_CHUNK``).

Sweeps chunk sizes over a store large enough that the threshold does
not terminate the scan immediately, for a proper subspace (eviction
scans run) and the full space (the SFS fast path skips them).  The
committed default of 64 sits at the bottom of the curve: small chunks
pay per-batch numpy dispatch, huge chunks pay the quadratic
intra-batch dominance pass and waste work past tighter mid-batch
thresholds.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_scan_chunk.py --benchmark-only
"""

import importlib
from unittest import mock

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF

alg1 = importlib.import_module("repro.core.local_skyline")

CHUNKS = [16, 64, 256, 1024, 4096]


@pytest.fixture(scope="module")
def anticorrelated_store() -> SortedByF:
    """8k anticorrelated points in d=6 — a large, slow-terminating scan."""
    rng = np.random.default_rng(42)
    base = rng.random(8000)
    jitter = rng.normal(0.0, 0.08, size=(8000, 6))
    values = np.clip((1.0 - base)[:, None] * 0.5 + 0.25 + jitter, 0.0, 1.0)
    return SortedByF.from_points(PointSet(values))


class TestScanChunkSweep:
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_subspace_scan(self, benchmark, anticorrelated_store, chunk):
        with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
            result = benchmark(local_subspace_skyline, anticorrelated_store, (0, 2, 4))
        assert len(result.result) > 0

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_full_space_scan(self, benchmark, anticorrelated_store, chunk):
        with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
            result = benchmark(
                local_subspace_skyline, anticorrelated_store, (0, 1, 2, 3, 4, 5)
            )
        assert len(result.result) > 0
