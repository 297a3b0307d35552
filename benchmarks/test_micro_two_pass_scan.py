"""Micro-benchmark: the two passes of Algorithm 1.

One store large enough that the threshold does not end the scan at
once (8k anticorrelated points in d = 6), scanned on a proper subspace
and on the full space.  ``scan`` times ``local_subspace_skyline`` whole;
``stop_point`` times pass one alone (``f``, ``dist_U`` and ``t0`` only,
no dominance test) and ``filter`` pass two alone (the skyline filter
over the examined prefix), so the share of each shows.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_two_pass_scan.py --benchmark-only
"""

import importlib

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.dominance import _skyline_filter
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF

alg1 = importlib.import_module("repro.core.local_skyline")

SPACES = {"subspace": (0, 2, 4), "full": (0, 1, 2, 3, 4, 5)}


@pytest.fixture(scope="module")
def anticorrelated_store() -> SortedByF:
    """8k anticorrelated points in d=6 — a large, slow-terminating scan."""
    rng = np.random.default_rng(42)
    base = rng.random(8000)
    jitter = rng.normal(0.0, 0.08, size=(8000, 6))
    values = np.clip((1.0 - base)[:, None] * 0.5 + 0.25 + jitter, 0.0, 1.0)
    return SortedByF.from_points(PointSet(values))


@pytest.mark.parametrize("space", sorted(SPACES))
class TestTwoPassScan:
    def test_scan(self, benchmark, anticorrelated_store, space):
        result = benchmark(local_subspace_skyline, anticorrelated_store, SPACES[space])
        assert 0 < len(result.result) <= result.examined

    def test_stop_point(self, benchmark, anticorrelated_store, space):
        _, dists = anticorrelated_store.projection(SPACES[space])
        examined, threshold = benchmark(alg1._stop_point, anticorrelated_store.f, dists, np.inf)
        scan = local_subspace_skyline(anticorrelated_store, SPACES[space])
        assert (examined, threshold) == (scan.examined, scan.threshold)

    def test_filter(self, benchmark, anticorrelated_store, space):
        scan = local_subspace_skyline(anticorrelated_store, SPACES[space])
        proj, _ = anticorrelated_store.projection(SPACES[space], rows=slice(0, scan.examined))
        positions, _ = benchmark(_skyline_filter, proj, False)
        assert positions.tolist() == scan.positions.tolist()
