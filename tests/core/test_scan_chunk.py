"""The scan batch size is tunable and never changes the answer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import (
    _SCAN_CHUNK,
    local_subspace_skyline,
    resolve_scan_chunk,
)
from repro.core.merging import merge_sorted_skylines
from repro.core.store import SortedByF
from repro.core.subspace import full_space

from tests.conftest import brute_force_skyline_ids


class TestResolveScanChunk:
    def test_default(self):
        assert resolve_scan_chunk() == _SCAN_CHUNK == 64

    def test_argument_overrides_default(self):
        assert resolve_scan_chunk(33) == 33

    @pytest.mark.parametrize("bad", [0, -1, -256])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            resolve_scan_chunk(bad)

    def test_environment_is_ignored(self, monkeypatch):
        """The batch size has no environment spelling."""
        monkeypatch.setenv("REPRO_SCAN_CHUNK", "2")
        assert resolve_scan_chunk() == 64


@pytest.fixture
def store(rng) -> SortedByF:
    return SortedByF.from_points(PointSet(rng.random((120, 4))))


@pytest.mark.parametrize("chunk", [1, 3, 17, 1024])
@pytest.mark.parametrize("subspace", [(0, 2), (1, 2, 3), (0, 1, 2, 3)])
def test_chunk_size_never_changes_the_scan(store, subspace, chunk):
    reference = local_subspace_skyline(store, subspace)
    other = local_subspace_skyline(store, subspace, scan_chunk=chunk)
    assert other.result.points.id_set() == reference.result.points.id_set()
    assert other.threshold == reference.threshold
    assert np.array_equal(other.result.f, reference.result.f)
    # `examined` legitimately varies with the chunk size (batch
    # boundaries honor the threshold known at batch start), but every
    # scan reads at least the surviving points.
    assert other.examined >= len(other.result)


def test_chunk_of_one_matches_oracle(store):
    result = local_subspace_skyline(store, (0, 3), scan_chunk=1)
    assert result.result.points.id_set() == brute_force_skyline_ids(
        store.points, (0, 3)
    )


def test_merge_accepts_scan_chunk(rng):
    stores = [
        SortedByF.from_points(
            PointSet(rng.random((30, 3)), np.arange(i * 30, (i + 1) * 30))
        )
        for i in range(3)
    ]
    subspace = full_space(3)
    reference = merge_sorted_skylines(
        stores, subspace, initial_threshold=math.inf, strict=True
    )
    chunked = merge_sorted_skylines(
        stores, subspace, initial_threshold=math.inf, strict=True, scan_chunk=1
    )
    assert chunked.result.points.id_set() == reference.result.points.id_set()
    assert np.array_equal(chunked.result.f, reference.result.f)
