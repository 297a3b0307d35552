"""The SaLSa scan substrate: sorted-scan identity plus stop-point math.

SaLSa visits candidates in (minC, sum) order and stops as soon as the
next sort key exceeds the running stop value (the smallest max-coordinate
among inserted skyline points).  It must be byte-identical to the sorted
scan — same ids, same positions contract, same threshold — while its
``examined``/``comparisons`` counters honestly record the early exit.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.core.substrates import salsa_subspace_skyline


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
        values = 0.5 + (values - values.mean(axis=1, keepdims=True))
        values = np.clip(values, 0.0, 1.0)
    return SortedByF.from_points(PointSet(values))


class TestStopPointRegression:
    """Hand-computed 6-point example pinning the stop-point math.

    Points (subspace = full space, 2-d), sorted by (minC, sum)::

        id  point         minC  sum   dist_U (max)
        2   (0.4, 0.1)    0.1   0.5   0.4
        0   (0.2, 0.3)    0.2   0.5   0.3
        1   (0.25, 0.25)  0.25  0.5   0.25
        4   (0.35, 0.8)   0.35  1.15  0.8
        3   (0.5, 0.5)    0.5   1.0   0.5
        5   (0.9, 0.6)    0.6   1.5   0.9

    With one point per batch the stop value tightens 0.4 → 0.3 → 0.25
    as each of the three mutually-incomparable heads is inserted, and
    the scan halts before id 4 because its key 0.35 > 0.25.
    """

    POINTS = np.array(
        [
            [0.2, 0.3],    # id 0
            [0.25, 0.25],  # id 1
            [0.4, 0.1],    # id 2
            [0.5, 0.5],    # id 3 — dominated by id 1
            [0.35, 0.8],   # id 4 — dominated by id 0
            [0.9, 0.6],    # id 5 — dominated by everything above
        ]
    )

    @pytest.fixture()
    def store(self):
        return SortedByF.from_points(PointSet(self.POINTS))

    def test_point_at_a_time_stops_after_three(self, store):
        scan = salsa_subspace_skyline(store, (0, 1), scan_chunk=1)
        assert scan.examined == 3
        assert scan.threshold == 0.25
        assert set(scan.result.points.ids) == {0, 1, 2}
        # Store order is by f = minC, so positions 0..2 hold ids 2, 0, 1.
        assert np.array_equal(scan.positions, np.array([0, 1, 2]))
        assert scan.pruned_by_threshold == 3

    def test_chunked_scan_truncates_batch_at_stop(self, store):
        # Batch 1 = {id 2, id 0} sets stop = 0.3; the next window is cut
        # at searchsorted(keys, 0.3) so only id 1 is examined before the
        # stop tightens to 0.25 and the scan halts.
        scan = salsa_subspace_skyline(store, (0, 1), scan_chunk=2)
        assert scan.examined == 3
        assert scan.threshold == 0.25

    def test_default_chunk_examines_everything_yet_matches(self, store):
        # One big batch: no early exit, but the pairwise pass must kill
        # ids 3, 4, 5 and reproduce the sorted scan exactly.
        scan = salsa_subspace_skyline(store, (0, 1))
        assert scan.examined == 6
        assert_identical(local_subspace_skyline(store, (0, 1)), scan)

    def test_identical_constant_vectors_all_survive(self):
        # Key == stop must still be visited: three identical points have
        # minC == dist_U, none dominates another (non-strict), so all
        # three belong to the skyline.
        store = SortedByF.from_points(PointSet(np.full((3, 2), 0.5)))
        scan = salsa_subspace_skyline(store, (0, 1), scan_chunk=1)
        assert len(scan.positions) == 3
        assert_identical(local_subspace_skyline(store, (0, 1)), scan)


class TestSalsaIdentity:
    @pytest.mark.parametrize("subspace", [(0, 1, 2, 3), (0, 2), (1,), (1, 3)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_sorted_scan(self, rng, subspace, strict):
        store = make_store(rng)
        serial = local_subspace_skyline(store, subspace, strict=strict)
        salsa = salsa_subspace_skyline(store, subspace, strict=strict)
        assert_identical(serial, salsa)

    def test_anticorrelated_large_skyline(self, rng):
        store = make_store(rng, n=400, d=5, anticorrelated=True)
        subspace = (0, 1, 2, 3, 4)
        assert_identical(
            local_subspace_skyline(store, subspace),
            salsa_subspace_skyline(store, subspace),
        )

    def test_duplicated_rows_tie_groups(self, rng):
        # Exact (minC, sum) key ties: the in-batch pairwise pass and the
        # can_evict insert must reproduce the sorted scan's tie handling.
        base = rng.integers(0, 4, size=(80, 3)).astype(float)
        store = SortedByF.from_points(PointSet(np.vstack([base, base[:30]])))
        for strict in (False, True):
            assert_identical(
                local_subspace_skyline(store, (0, 1, 2), strict=strict),
                salsa_subspace_skyline(store, (0, 1, 2), strict=strict),
            )

    def test_finite_initial_threshold(self, rng):
        store = make_store(rng)
        for threshold in (0.9, 0.5, 0.2):
            assert_identical(
                local_subspace_skyline(store, (0, 1), initial_threshold=threshold),
                salsa_subspace_skyline(store, (0, 1), initial_threshold=threshold),
            )

    @pytest.mark.parametrize("chunk", [1, 3, 16, 64])
    def test_every_chunk_size_is_identical(self, rng, chunk):
        store = make_store(rng, n=150, d=3)
        assert_identical(
            local_subspace_skyline(store, (0, 1, 2)),
            salsa_subspace_skyline(store, (0, 1, 2), scan_chunk=chunk),
        )

    def test_empty_store(self):
        store = SortedByF.from_points(PointSet(np.zeros((0, 3))))
        result = salsa_subspace_skyline(store, (0, 1))
        assert len(result.result) == 0
        assert result.positions.shape == (0,)
        assert math.isinf(result.threshold)


class TestEarlyTermination:
    def test_examined_drops_on_correlated_data(self, rng):
        # Correlated data: one tight cluster near the origin dominates a
        # diffuse tail, so the stop point halts the scan early.
        head = rng.random((40, 3)) * 0.2
        tail = 0.4 + rng.random((400, 3)) * 0.6
        store = SortedByF.from_points(PointSet(np.vstack([head, tail])))
        serial = local_subspace_skyline(store, (0, 1), scan_chunk=16)
        salsa = salsa_subspace_skyline(store, (0, 1), scan_chunk=16)
        assert_identical(serial, salsa)
        assert salsa.examined < len(store)
        assert salsa.comparisons < serial.comparisons

    def test_honest_accounting(self, rng):
        store = make_store(rng)
        salsa = salsa_subspace_skyline(store, (0, 1, 2))
        assert 0 < salsa.examined <= len(store)
        assert salsa.comparisons > 0
        assert salsa.input_size == len(store)
        assert salsa.pruned_by_threshold == len(store) - salsa.examined


class TestSalsaOrderCache:
    def test_same_arrays_returned_twice(self, rng):
        store = make_store(rng, n=50)
        first = store.salsa_order((0, 1))
        assert store.salsa_order((0, 1)) == first
        assert store.salsa_order((0, 1))[0] is first[0]

    def test_distinct_subspaces_get_distinct_orders(self, rng):
        store = make_store(rng, n=50)
        assert store.salsa_order((0, 1))[0] is not store.salsa_order((0, 2))[0]

    def test_order_is_lexicographic_min_then_sum(self, rng):
        store = make_store(rng, n=80)
        order, keys = store.salsa_order((0, 2))
        proj, _ = store.projection((0, 2))
        assert np.array_equal(keys, proj[order].min(axis=1))
        assert np.all(np.diff(keys) >= 0)
        sums = proj[order].sum(axis=1)
        same_key = np.diff(keys) == 0
        assert np.all(np.diff(sums)[same_key] >= 0)

    def test_arrays_are_read_only(self, rng):
        store = make_store(rng, n=30)
        order, keys = store.salsa_order((0, 1))
        assert not order.flags.writeable and not keys.flags.writeable

    def test_pickle_drops_the_cache(self, rng):
        store = make_store(rng, n=40)
        store.salsa_order((0, 1))
        clone = pickle.loads(pickle.dumps(store))
        assert clone._salsa is None
        assert_identical(
            salsa_subspace_skyline(store, (0, 1)),
            salsa_subspace_skyline(clone, (0, 1)),
        )
