"""Ablation: the centralized skyline paths the package keeps, head-to-head.

BNL (the naive baseline's kernel), ``skyline_mask`` (the skyline
filter's dominance form over the whole input) and Algorithm 1 on
uniform and anticorrelated data.  Anticorrelated data blows the skyline
up and separates the window-based BNL from the other two.
All of them must agree exactly — that assertion is the real point.
"""

import numpy as np
import pytest

from repro.algorithms import block_nested_loops
from repro.core.dataset import PointSet
from repro.core.extended_skyline import subspace_skyline, subspace_skyline_points
from repro.data.generators import anticorrelated, uniform

N = 1500
D = 4
FULL = tuple(range(D))

#: name -> the full-space skyline of a PointSet, as a PointSet.
PATHS = {
    "algorithm1": lambda points: subspace_skyline(points, FULL).points,
    "bnl": block_nested_loops,
    "skyline_mask": lambda points: subspace_skyline_points(points, FULL),
}


def _dataset(kind):
    rng = np.random.default_rng(12)
    data = uniform(N, D, rng) if kind == "uniform" else anticorrelated(N, D, rng)
    return PointSet(data)


@pytest.mark.parametrize("kind", ["uniform", "anticorrelated"])
@pytest.mark.parametrize("algorithm", sorted(PATHS))
def test_algorithm(benchmark, kind, algorithm):
    points = _dataset(kind)
    result = benchmark.pedantic(
        PATHS[algorithm], args=(points,), rounds=3, iterations=1,
    )
    assert len(result) > 0


@pytest.mark.parametrize("kind", ["uniform", "anticorrelated"])
def test_all_algorithms_agree(kind):
    points = _dataset(kind)
    results = {name: path(points).id_set() for name, path in PATHS.items()}
    assert len(set(results.values())) == 1, {
        name: len(ids) for name, ids in results.items()
    }


def test_anticorrelated_skyline_is_larger():
    uni = subspace_skyline_points(_dataset("uniform"), FULL)
    anti = subspace_skyline_points(_dataset("anticorrelated"), FULL)
    assert len(anti) > 2 * len(uni)
