"""The scan batch size (``_SCAN_CHUNK``) never changes the answer."""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF
from repro.core.subspace import full_space

from tests.conftest import REPO_ROOT, brute_force_skyline_ids

alg1 = importlib.import_module("repro.core.local_skyline")


class TestResolveScanChunk:
    """How a scan resolves its batch size: from the module constant alone."""

    def test_environment_is_ignored(self):
        """The batch size has no environment spelling: a fresh import
        under ``REPRO_SCAN_CHUNK`` still reads the constant."""
        env = dict(
            os.environ,
            REPRO_SCAN_CHUNK="2",
            PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.core.local_skyline import _SCAN_CHUNK; print(_SCAN_CHUNK)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "64"


@pytest.fixture
def store(rng) -> SortedByF:
    return SortedByF.from_points(PointSet(rng.random((120, 4))))


@pytest.mark.parametrize("chunk", [1, 3, 17, 1024])
@pytest.mark.parametrize("subspace", [(0, 2), (1, 2, 3), (0, 1, 2, 3)])
def test_chunk_size_never_changes_the_scan(store, subspace, chunk):
    reference = local_subspace_skyline(store, subspace)
    with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
        other = local_subspace_skyline(store, subspace)
    assert other.result.points.id_set() == reference.result.points.id_set()
    assert other.threshold == reference.threshold
    assert np.array_equal(other.result.f, reference.result.f)
    # `examined` legitimately varies with the chunk size (batch
    # boundaries honor the threshold known at batch start), but every
    # scan reads at least the surviving points.
    assert other.examined >= len(other.result)


def test_chunk_of_one_matches_oracle(store):
    with mock.patch.object(alg1, "_SCAN_CHUNK", 1):
        result = local_subspace_skyline(store, (0, 3))
    assert result.result.points.id_set() == brute_force_skyline_ids(
        store.points, (0, 3)
    )


def test_merge_accepts_scan_chunk(rng):
    """The merge reads the same constant and answers the same."""
    stores = [
        SortedByF.from_points(
            PointSet(rng.random((30, 3)), np.arange(i * 30, (i + 1) * 30))
        )
        for i in range(3)
    ]
    subspace = full_space(3)
    reference = merge_sorted_skylines(stores, subspace, initial_threshold=math.inf)
    with mock.patch.object(alg1, "_SCAN_CHUNK", 1):
        chunked = merge_sorted_skylines(stores, subspace, initial_threshold=math.inf)
    assert chunked.result.points.id_set() == reference.result.points.id_set()
    assert np.array_equal(chunked.result.f, reference.result.f)
    assert chunked.threshold == reference.threshold
