"""Algorithm 1 on the bench's crossover datasets.

Eighteen cells: three distributions × d ∈ {3, 5, 7}, each on the full
space and on the pivot subspace ``(0, 1)``.  On every cell the sorted
scan (what :meth:`SuperPeerNetwork.scan` runs for every query) must
return exactly the skyline of the quadratic oracle.  On the full-space
cells its work accounting must also equal ``CROSSOVER``: the result
sizes the smoke bench's committed baseline recorded under
``kernels.crossover`` until its schema 13 dropped that section (the
bench is retired since), and the pairs the skyline filter
tests (re-recorded when the filter replaced the block scan).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.data.generators import make_generator
from repro.data.workload import Query
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.conftest import brute_force_skyline_ids

N = 1200
DISTRIBUTIONS = ("uniform", "correlated", "anticorrelated")
DIMS = (3, 5, 7)
PIVOT = (0, 1)
#: (distribution, d) -> (comparisons, result size) of the full-space
#: sorted scan over ``crossover_store(distribution, d)``; ``comparisons``
#: are the pairs its skyline filter tested.
CROSSOVER = {
    ("uniform", 3): (55696, 26),
    ("uniform", 5): (445446, 173),
    ("uniform", 7): (503394, 469),
    ("correlated", 3): (26569, 5),
    ("correlated", 5): (58564, 11),
    ("correlated", 7): (108241, 55),
    ("anticorrelated", 3): (523488, 135),
    ("anticorrelated", 5): (648707, 717),
    ("anticorrelated", 7): (757032, 1081),
}


@functools.lru_cache(maxsize=None)
def crossover_store(distribution: str, d: int) -> SortedByF:
    """The crossover dataset as one store (the seeds the smoke bench
    used for it)."""
    rng = np.random.default_rng(20070415 + 1000 * DISTRIBUTIONS.index(distribution) + d)
    return SortedByF.from_points(PointSet(make_generator(distribution)(N, d, rng)))


@pytest.mark.parametrize("space", ["full", "pivot"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_sorted_scan_on_the_crossover_cells(distribution, d, space):
    store = crossover_store(distribution, d)
    subspace = tuple(range(d)) if space == "full" else PIVOT
    scan = local_subspace_skyline(store, subspace)
    assert scan.points.id_set() == brute_force_skyline_ids(store.points, subspace)
    assert scan.input_size == N
    if space == "full":
        assert (scan.comparisons, len(scan.result)) == CROSSOVER[(distribution, d)]


def test_naive_ignores_kernel_knobs(small_network, monkeypatch):
    query = Query(subspace=(1, 3), initiator=next(iter(small_network.superpeers)))
    baseline = execute_query(small_network, query, Variant.NAIVE)
    calls = []
    scan = small_network.scan

    def recording_scan(sp, subspace, threshold):
        calls.append((sp, subspace, threshold))
        return scan(sp, subspace, threshold)

    monkeypatch.setattr(small_network, "scan", recording_scan)
    run = execute_query(small_network, query, Variant.NAIVE)
    assert calls == []
    assert run.result_ids == baseline.result_ids
    assert run.comparisons == baseline.comparisons
    # The recorder is wired: a SKYPEER variant does call it.
    execute_query(small_network, query, Variant.FTPM)
    assert calls
