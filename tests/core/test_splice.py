"""Sorted-splice invariants of ``SortedByF.splice_insert``/``splice_delete``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.store import SortedByF


def _points(rng: np.random.Generator, n: int, d: int, start_id: int = 0) -> PointSet:
    return PointSet(rng.random((n, d)), np.arange(start_id, start_id + n))


def _assert_stores_equal(a: SortedByF, b: SortedByF) -> None:
    assert np.array_equal(a.points.values, b.points.values)
    assert np.array_equal(a.points.ids, b.points.ids)
    assert np.array_equal(a.f, b.f)


class TestSpliceInsert:
    def test_matches_full_resort(self):
        rng = np.random.default_rng(7)
        base = SortedByF.from_points(_points(rng, 40, 4))
        incoming = _points(rng, 9, 4, start_id=1000)
        spliced = base.splice_insert(incoming)
        rebuilt = SortedByF.from_points(PointSet.concat([base.points, incoming]))
        _assert_stores_equal(spliced, rebuilt)

    def test_f_order_invariant(self):
        rng = np.random.default_rng(8)
        store = SortedByF.from_points(_points(rng, 25, 3))
        for round_ in range(4):
            store = store.splice_insert(
                _points(rng, 5, 3, start_id=500 + 100 * round_)
            )
            assert np.all(np.diff(store.f) >= 0)

    def test_tied_keys_match_stable_sort(self):
        """Duplicate rows give equal f keys; side='right' must reproduce
        the stable-sort order of from_points over [existing, new]."""
        rng = np.random.default_rng(9)
        values = rng.random((10, 3))
        base = SortedByF.from_points(PointSet(values, np.arange(10)))
        dupes = PointSet(values[:4].copy(), np.arange(100, 104))
        spliced = base.splice_insert(dupes)
        rebuilt = SortedByF.from_points(PointSet.concat([base.points, dupes]))
        _assert_stores_equal(spliced, rebuilt)

    def test_empty_insert_returns_self(self):
        rng = np.random.default_rng(10)
        store = SortedByF.from_points(_points(rng, 10, 3))
        assert store.splice_insert(PointSet.empty(3)) is store

    def test_insert_into_empty_store(self):
        rng = np.random.default_rng(11)
        incoming = _points(rng, 6, 4)
        spliced = SortedByF.empty(4).splice_insert(incoming)
        _assert_stores_equal(spliced, SortedByF.from_points(incoming))


class TestSpliceDelete:
    def test_matches_full_resort(self):
        rng = np.random.default_rng(12)
        base = SortedByF.from_points(_points(rng, 40, 4))
        doomed = base.points.ids[::3]
        spliced = base.splice_delete(doomed)
        keep = ~np.isin(base.points.ids, doomed)
        rebuilt = SortedByF.from_points(base.points.mask(keep))
        _assert_stores_equal(spliced, rebuilt)

    def test_absent_ids_ignored(self):
        rng = np.random.default_rng(13)
        store = SortedByF.from_points(_points(rng, 10, 3))
        assert store.splice_delete([10**9]) is store
        assert store.splice_delete(np.zeros(0, dtype=np.int64)) is store

    def test_delete_everything(self):
        rng = np.random.default_rng(14)
        store = SortedByF.from_points(_points(rng, 10, 3))
        emptied = store.splice_delete(store.points.ids)
        assert len(emptied) == 0
        assert emptied.dimensionality == 3


class TestProjectionCacheConsistency:
    """Per-subspace state across a splice: none is carried over."""

    def test_cold_cache_not_installed(self):
        """A splice installs no per-subspace state on the new store."""
        rng = np.random.default_rng(17)
        base = SortedByF.from_points(_points(rng, 10, 3))
        base.projection((0, 1))
        spliced = base.splice_insert(_points(rng, 3, 3, start_id=50))
        assert spliced._salsa is None
        assert not hasattr(spliced, "_projections")

    def test_position_dependent_caches_drop(self):
        """SaLSa orders index store positions — they must rebuild
        after a splice, not survive it stale."""
        rng = np.random.default_rng(18)
        base = SortedByF.from_points(_points(rng, 20, 3))
        base.salsa_order((0, 1))
        spliced = base.splice_insert(_points(rng, 4, 3, start_id=60))
        assert spliced._salsa is None
        order, keys = spliced.salsa_order((0, 1))
        assert order.shape == (24,)
        assert np.all(np.diff(keys) >= 0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    k=st.integers(1, 12),
    d=st.integers(2, 5),
)
def test_splice_roundtrip_equals_resort(seed, n, k, d):
    """Insert then delete arbitrary subsets: always byte-equal to the
    from-scratch re-sort of the same point set."""
    rng = np.random.default_rng(seed)
    base = SortedByF.from_points(_points(rng, n, d))
    base.projection(tuple(range(d)))
    incoming = _points(rng, k, d, start_id=10_000)
    spliced = base.splice_insert(incoming)
    union = PointSet.concat([base.points, incoming])
    _assert_stores_equal(spliced, SortedByF.from_points(union))
    doomed = rng.choice(union.ids, size=min(k, len(union)), replace=False)
    after = spliced.splice_delete(doomed)
    survivors = union.mask(~np.isin(union.ids, doomed))
    _assert_stores_equal(after, SortedByF.from_points(survivors))
    proj, dists = after.projection(tuple(range(d)))
    assert np.array_equal(proj, after.points.values)
    if len(after):
        assert np.array_equal(dists, after.points.values.max(axis=1))
