"""The per-store projection: purity, retention, safety, pickling."""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF


@pytest.fixture
def store(rng) -> SortedByF:
    return SortedByF.from_points(PointSet(rng.random((50, 5))))


class TestProjectionCache:
    def test_matches_direct_slicing(self, store):
        proj, dists = store.projection((1, 3))
        assert np.array_equal(proj, store.points.values[:, [1, 3]])
        assert np.array_equal(dists, store.points.values[:, [1, 3]].max(axis=1))

    def test_scanning_every_subspace_retains_nothing(self):
        """All 154 two-to-four-dimensional subspaces of d = 8 (the
        skybench ``cold_subspaces`` cycle) scanned over one store: no
        projection may outlive its scan."""
        rng = np.random.default_rng(20070415)
        store = SortedByF.from_points(PointSet(rng.random((4000, 8))))
        subspaces = [c for k in (2, 3, 4) for c in combinations(range(8), k)]
        assert len(subspaces) == 154
        local_subspace_skyline(store, subspaces[0])  # lazy imports, allocator warm-up
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            for subspace in subspaces:
                local_subspace_skyline(store, subspace)
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1 << 20
        assert SortedByF.__slots__ == ("points", "f")

    def test_repeat_call_is_equal_not_shared(self, store):
        first = store.projection((0, 2, 4))
        second = store.projection((0, 2, 4))
        assert first[0] is not second[0]
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rows_restrict_both_arrays(self, store):
        full, full_d = store.projection((1, 3))
        prefix, prefix_d = store.projection((1, 3), rows=slice(0, 20))
        assert np.array_equal(prefix, full[:20])
        assert np.array_equal(prefix_d, full_d[:20])
        picked = np.array([3, 17, 40])
        gathered, gathered_d = store.projection((1, 3), rows=picked)
        assert np.array_equal(gathered, full[picked])
        assert np.array_equal(gathered_d, full_d[picked])
        none, none_d = store.projection((1, 3), rows=store.prefix(-1.0))
        assert none.shape == (0, 2) and none_d.shape == (0,)
        # f == t is inside the prefix (Observation 5 prunes only f > t).
        assert store.prefix(float(store.f[19])) == slice(0, 20)
        assert store.prefix(float("inf")) == slice(0, len(store))

    def test_distinct_subspaces_are_distinct_entries(self, store):
        a, _ = store.projection((0, 1))
        b, _ = store.projection((1, 0))
        assert np.array_equal(a, b[:, ::-1])

    def test_full_space_projection_is_zero_copy(self, store):
        proj, dists = store.projection(tuple(range(5)))
        assert proj is store.points.values
        assert np.array_equal(dists, store.points.values.max(axis=1))

    def test_cached_arrays_are_read_only(self, store):
        proj, dists = store.projection((2, 4))
        with pytest.raises(ValueError):
            proj[0, 0] = -1.0
        with pytest.raises(ValueError):
            dists[0] = -1.0

    def test_empty_store(self):
        empty = SortedByF.from_points(PointSet(np.zeros((0, 3))))
        proj, dists = empty.projection((0, 2))
        assert proj.shape[0] == 0
        assert dists.shape == (0,)


class TestPickling:
    def test_round_trip_preserves_data(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert np.array_equal(clone.points.values, store.points.values)
        assert np.array_equal(clone.points.ids, store.points.ids)
        assert np.array_equal(clone.f, store.f)

    def test_round_trip_restores_read_only_flags(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert not clone.f.flags.writeable
        assert not clone.points.values.flags.writeable
        proj, _ = clone.projection((0, 3))
        assert not proj.flags.writeable

    def test_clone_serves_projections(self, store):
        clone = pickle.loads(pickle.dumps(store))
        proj, dists = clone.projection((1, 4))
        expected, expected_d = store.projection((1, 4))
        assert np.array_equal(proj, expected)
        assert np.array_equal(dists, expected_d)
