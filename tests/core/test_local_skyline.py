"""Unit tests for Algorithm 1 (threshold-based local subspace skyline)."""

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.mapping import dist_values, f_values
from repro.core.store import SortedByF
from tests.conftest import brute_force_skyline_ids

alg1 = importlib.import_module("repro.core.local_skyline")


def _store(rng, n=150, d=5) -> tuple[PointSet, SortedByF]:
    points = PointSet(rng.random((n, d)))
    return points, SortedByF.from_points(points)


class TestCorrectness:
    def test_matches_brute_force(self, rng):
        points, store = _store(rng)
        for sub in [(0,), (1, 3), (0, 2, 4)]:
            for t0 in (math.inf, 0.4):
                got = local_subspace_skyline(store, sub, initial_threshold=t0)
                # The survivors are the skyline of the f <= t0 prefix, in
                # store (f-ascending) order, and the refined threshold is
                # t0 lowered by every survivor's dist_U.
                prefix = points.take(np.flatnonzero(f_values(points.values) <= t0))
                assert got.points.id_set() == brute_force_skyline_ids(prefix, sub)
                assert np.all(np.diff(got.positions) > 0)
                assert np.array_equal(got.result.f, store.f[got.positions])
                dists = dist_values(got.result.points.values, sub)
                assert got.threshold == min([t0, *dists.tolist()])

    def test_result_is_f_sorted(self, rng):
        _points, store = _store(rng)
        got = local_subspace_skyline(store, (1, 2))
        assert np.all(np.diff(got.result.f) >= 0)

    def test_empty_store(self):
        got = local_subspace_skyline(SortedByF.empty(3), (0, 1))
        assert len(got.result) == 0
        assert got.threshold == math.inf
        assert got.examined == 0

    def test_single_point(self):
        store = SortedByF.from_points(PointSet(np.array([[0.3, 0.7]])))
        got = local_subspace_skyline(store, (0, 1))
        assert len(got.result) == 1
        assert got.threshold == pytest.approx(0.7)

    def test_all_duplicates_kept(self):
        pts = PointSet(np.array([[0.5, 0.5]] * 4))
        got = local_subspace_skyline(SortedByF.from_points(pts), (0, 1))
        assert len(got.result) == 4


class TestThreshold:
    def test_final_threshold_is_min_dist(self, rng):
        points, store = _store(rng)
        sub = (0, 3)
        got = local_subspace_skyline(store, sub)
        expected = dist_values(got.result.points.values, sub).min()
        assert got.threshold == pytest.approx(expected)

    def test_initial_threshold_caps_result(self, rng):
        """With threshold t, only skyline points with f <= t come back."""
        points, store = _store(rng)
        sub = (1, 4)
        full = local_subspace_skyline(store, sub)
        t = 0.15
        capped = local_subspace_skyline(store, sub, initial_threshold=t)
        f_full = f_values(full.result.points.values)
        expected = {
            int(i)
            for i, fv in zip(full.result.points.ids, f_full)
            if fv <= t
        }
        assert capped.points.id_set() == expected

    def test_initial_threshold_never_false_negative(self, rng):
        """Any point pruned by a (valid) threshold is globally dominated,
        so capped result == full result filtered by f <= t."""
        points, store = _store(rng, n=200)
        sub = (0, 2)
        full = local_subspace_skyline(store, sub)
        t = full.threshold  # a genuinely achievable threshold
        capped = local_subspace_skyline(store, sub, initial_threshold=t)
        assert capped.points.id_set() <= full.points.id_set()

    def test_tiny_threshold_short_circuits(self, rng):
        points, store = _store(rng)
        got = local_subspace_skyline(store, (0, 1), initial_threshold=-1.0)
        assert got.examined == 0
        assert len(got.result) == 0
        assert got.threshold == -1.0

    def test_threshold_ties_are_examined(self):
        """A point whose f equals the threshold must not be dropped.

        The only non-dominated tie is a duplicate of an all-equal
        threshold point: the paper's ``while f(p) < threshold`` loop
        would drop it, violating exactness; our ``<=`` keeps it.
        """
        pts = PointSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
        store = SortedByF.from_points(pts)
        got = local_subspace_skyline(store, (0, 1))
        assert len(got.result) == 2

    def test_initial_threshold_tie_examined(self):
        """Same tie situation against a propagated initial threshold."""
        pts = PointSet(np.array([[0.5, 0.5]]))
        store = SortedByF.from_points(pts)
        got = local_subspace_skyline(store, (0, 1), initial_threshold=0.5)
        assert len(got.result) == 1

    def test_early_termination_prunes_scans(self, rng):
        points, store = _store(rng, n=500)
        got = local_subspace_skyline(store, (0, 1))
        assert got.examined < got.input_size
        assert got.pruned_by_threshold == got.input_size - got.examined


class TestStats:
    def test_duration_positive(self, rng):
        _points, store = _store(rng)
        got = local_subspace_skyline(store, (0, 1))
        assert got.duration > 0

    def test_comparisons_counted(self, rng):
        _points, store = _store(rng)
        got = local_subspace_skyline(store, (0, 1))
        assert got.comparisons > 0

    def test_input_size_recorded(self, rng):
        points, store = _store(rng)
        got = local_subspace_skyline(store, (0, 1))
        assert got.input_size == len(points)


class TestPrefixProjection:
    """Algorithm 1 projects only the ``f(p) <= t`` prefix of the store;
    the reference below scans the whole-store projection instead."""

    @staticmethod
    def _full_projection_scan(store, cols, threshold):
        from repro.core.indexes import BlockDominanceIndex

        index = BlockDominanceIndex(len(cols))
        proj = store.points.values[:, list(cols)]
        dists = proj.max(axis=1) if len(store) else np.zeros(0)
        examined, final = alg1._chunked_scan(
            index, proj, store.f, dists, threshold,
            key_is_scanned_min=len(cols) == store.dimensionality,
        )
        return list(index.positions()), final, examined, index.comparisons

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_equals_full_projection_reference(self, data):
        d = data.draw(st.integers(2, 5), label="d")
        n = data.draw(st.integers(0, 60), label="n")
        # A coarse grid makes duplicate rows and exact f ties common.
        grid = data.draw(
            st.lists(
                st.lists(st.integers(0, 6), min_size=d, max_size=d),
                min_size=n, max_size=n,
            ),
            label="rows",
        )
        values = np.asarray(grid, dtype=np.float64).reshape(n, d) / 4.0
        store = SortedByF.from_points(PointSet(values))
        cols = tuple(
            data.draw(
                st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True),
                label="cols",
            )
        )
        # Thresholds: an exact f value (the f == t tie is examined, not
        # pruned), one below every f, one between, one above everything.
        choices = [-1.0, 0.3, 99.0] + sorted(set(store.f.tolist()))
        threshold = data.draw(st.sampled_from(choices), label="t")
        chunk = data.draw(st.sampled_from([1, 3, 64]), label="chunk")

        with mock.patch.object(alg1, "_SCAN_CHUNK", chunk):
            got = local_subspace_skyline(store, cols, initial_threshold=threshold)
            positions, final, examined, comparisons = self._full_projection_scan(
                store, cols, threshold
            )
        assert got.positions.tolist() == positions
        assert got.threshold == final
        assert got.examined == examined
        assert got.comparisons == comparisons
        if threshold < 0:
            assert got.examined == 0 and len(got.result) == 0
