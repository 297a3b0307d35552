"""The five scan cells on the bench's crossover datasets.

Every cell, picked by :func:`make_local_compute` exactly as a query
picks it, must return the ``sorted/none`` scan byte for byte; on the
full-space datasets its work accounting must also equal the committed
``kernels.crossover`` column of the same name in ``BENCH_baseline.json``
— so neither the one remaining dominance kernel nor the cut from twelve
cells to five moved a single comparison.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.smoke import _single_store_network
from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.data.generators import make_generator
from repro.parallel.partition import SCAN_CELLS
from repro.skypeer.executor import make_local_compute

N = 1200
DISTRIBUTIONS = ("uniform", "correlated", "anticorrelated")
DIMS = (3, 5, 7)
PIVOT = (0, 1)


@functools.lru_cache(maxsize=None)
def crossover_network(distribution: str, d: int):
    """The bench's crossover dataset as a one-super-peer network whose
    store is the dataset itself (same seeds as ``bench --smoke``)."""
    rng = np.random.default_rng(20070415 + 1000 * DISTRIBUTIONS.index(distribution) + d)
    points = PointSet(make_generator(distribution)(N, d, rng))
    return _single_store_network(points, SortedByF.from_points(points))


@functools.lru_cache(maxsize=None)
def committed_crossover() -> dict:
    path = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"
    cells = json.loads(path.read_text(encoding="utf-8"))["kernels"]["crossover"]
    return {(cell["distribution"], cell["d"]): cell for cell in cells}


def run_cell(cell: str, distribution: str, d: int, subspace):
    network, sp = crossover_network(distribution, d)
    substrate, partitioner = cell.split("/")
    compute = make_local_compute(
        network, scan_substrate=substrate, partitioner=partitioner, partition_parts=4
    )
    return compute(sp, subspace, float("inf"))


@pytest.mark.parametrize("space", ["full", "pivot"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("cell", SCAN_CELLS)
def test_cell_is_identical_to_the_sorted_scan(cell, distribution, d, space):
    subspace = tuple(range(d)) if space == "full" else PIVOT
    reference = run_cell("sorted/none", distribution, d, subspace)
    scan = run_cell(cell, distribution, d, subspace)
    assert scan.threshold == reference.threshold
    assert np.array_equal(scan.positions, reference.positions)
    assert scan.result.points.values.tobytes() == reference.result.points.values.tobytes()
    assert scan.result.points.ids.tobytes() == reference.result.points.ids.tobytes()
    assert scan.result.f.tobytes() == reference.result.f.tobytes()
    assert scan.input_size == N
    if space == "full":
        committed = committed_crossover()[(distribution, d)]
        assert committed["result_size"] == len(scan.result)
        assert scan.comparisons / N == committed["comparisons_per_point"][cell]


def test_committed_crossover_carries_exactly_the_surviving_cells():
    for cell in committed_crossover().values():
        assert set(cell["comparisons_per_point"]) == set(SCAN_CELLS)
