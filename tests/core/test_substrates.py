"""The BBS scan substrate must be byte-identical to the sorted scan."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.core.substrates import bbs_subspace_skyline


def assert_identical(reference, other):
    """Byte-identity of two SkylineComputations (timings exempt)."""
    assert other.threshold == reference.threshold
    assert np.array_equal(other.positions, reference.positions)
    assert np.array_equal(other.result.points.values, reference.result.points.values)
    assert np.array_equal(other.result.points.ids, reference.result.points.ids)
    assert np.array_equal(other.result.f, reference.result.f)


def make_store(rng, n=200, d=4, anticorrelated=False):
    values = rng.random((n, d))
    if anticorrelated:
        # Push points toward the anti-diagonal so skylines are large.
        values = 0.5 + (values - values.mean(axis=1, keepdims=True))
        values = np.clip(values, 0.0, 1.0)
    return SortedByF.from_points(PointSet(values))


class TestBBSIdentity:
    @pytest.mark.parametrize("subspace", [(0, 1, 2, 3), (0, 2), (1,), (1, 3)])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_matches_sorted_scan(self, rng, subspace, bounded):
        # ``bounded``: the query carries the store's median f as ``t``.
        store = make_store(rng)
        t = float(np.median(store.f)) if bounded else math.inf
        serial = local_subspace_skyline(store, subspace, initial_threshold=t)
        bbs = bbs_subspace_skyline(store, subspace, initial_threshold=t)
        assert_identical(serial, bbs)

    def test_anticorrelated_large_skyline(self, rng):
        store = make_store(rng, n=400, d=5, anticorrelated=True)
        subspace = (0, 1, 2, 3, 4)
        assert_identical(
            local_subspace_skyline(store, subspace),
            bbs_subspace_skyline(store, subspace),
        )

    def test_duplicated_rows_tie_groups(self, rng):
        # Exact dist_U key ties (duplicate rows, shared max coordinate):
        # the pending-buffer pairwise resolution must reproduce the
        # sorted scan's tie handling exactly.
        base = rng.integers(0, 4, size=(80, 3)).astype(float)
        store = SortedByF.from_points(PointSet(np.vstack([base, base[:30]])))
        assert_identical(
            local_subspace_skyline(store, (0, 1, 2)),
            bbs_subspace_skyline(store, (0, 1, 2)),
        )

    def test_finite_initial_threshold(self, rng):
        store = make_store(rng)
        for threshold in (0.9, 0.5, 0.2):
            assert_identical(
                local_subspace_skyline(store, (0, 1), initial_threshold=threshold),
                bbs_subspace_skyline(store, (0, 1), initial_threshold=threshold),
            )

    def test_empty_store(self):
        store = SortedByF.from_points(PointSet(np.zeros((0, 3))))
        result = bbs_subspace_skyline(store, (0, 1))
        assert len(result.result) == 0
        assert result.positions.shape == (0,)
        assert math.isinf(result.threshold)

    def test_honest_accounting(self, rng):
        store = make_store(rng)
        bbs = bbs_subspace_skyline(store, (0, 1, 2))
        assert 0 < bbs.examined <= len(store)
        assert bbs.comparisons > 0
        assert bbs.input_size == len(store)


class TestRtreeCache:
    def test_same_tree_returned_twice(self, rng):
        store = make_store(rng, n=50)
        assert store.rtree((0, 1)) is store.rtree((0, 1))

    def test_distinct_keys_get_distinct_trees(self, rng):
        store = make_store(rng, n=50)
        assert store.rtree((0, 1)) is not store.rtree((0, 2))
        assert store.rtree((0, 1)) is not store.rtree((0, 1), max_entries=8)

    def test_cached_tree_is_min_id_annotated(self, rng):
        store = make_store(rng, n=120)
        root = store.rtree((0, 1, 2)).root()
        assert all(entry.min_id is not None for entry in root.entries)

    def test_min_id_is_the_subtree_minimum(self, rng):
        def walk(node):
            for entry in node.entries:
                if entry.point_id is not None:
                    assert entry.min_id == entry.point_id
                    yield entry.point_id
                else:
                    beneath = list(walk(entry.child))
                    assert entry.min_id == min(beneath)
                    yield from beneath

        store = make_store(rng, n=200)
        tree = store.rtree((0, 1, 2, 3), max_entries=4)
        seen = sorted(walk(tree.root()))
        assert seen == list(range(len(store)))

    def test_pickle_drops_the_cache(self, rng):
        # The engine ships stores between processes; trees are rebuilt
        # lean on the far side rather than pickled along.
        store = make_store(rng, n=40)
        store.rtree((0, 1))
        clone = pickle.loads(pickle.dumps(store))
        assert clone._rtrees is None
        assert_identical(
            bbs_subspace_skyline(store, (0, 1)),
            bbs_subspace_skyline(clone, (0, 1)),
        )
