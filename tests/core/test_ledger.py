"""Eviction-ledger witnesses, orphan promotion and insert admission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.dominance import find_witnesses
from repro.core.ledger import (
    EvictionLedger,
    admit_points,
    build_witness_ledger,
    promote_candidates,
)
from repro.core.store import SortedByF

from tests.conftest import brute_force_skyline_ids, ordered_ext_skyline


def _split_skyline(seed: int, n: int = 60, d: int = 3):
    """A random set split into (ext-skyline members, evicted others)."""
    rng = np.random.default_rng(seed)
    points = PointSet(rng.random((n, d)), np.arange(n))
    mask = _ext_skyline_mask(points)
    return points, points.mask(mask), points.mask(~mask)


def _ext_skyline_mask(points: PointSet) -> np.ndarray:
    """The oracle's ``ext-SKY_D`` of ``points``, as a row mask."""
    return np.isin(points.ids, sorted(brute_force_skyline_ids(points, strict=True)))


def _oracle_store(points: PointSet):
    """The oracle's f-sorted ``ext-SKY_D`` of ``points``."""
    return ordered_ext_skyline(SortedByF.from_points(points)).result


def _ext_dominates(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a < b))


class TestFindWitnesses:
    def test_witness_actually_dominates(self):
        _, members, others = _split_skyline(seed=1)
        witness = find_witnesses(members.values, others.values)
        assert np.all(witness >= 0)
        for idx, row in zip(witness, others.values):
            assert _ext_dominates(members.values[idx], row)

    def test_members_have_no_witness(self):
        _, members, _ = _split_skyline(seed=2)
        witness = find_witnesses(members.values, members.values)
        assert np.all(witness == -1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(0, 12),
        n=st.integers(0, 23),
        d=st.integers(1, 4),
    )
    def test_equals_the_broadcast_reference(self, seed, m, n, d):
        """Same boolean matrix, hence the same first-dominator indices.

        Coordinates come from a four-value grid so exact ties (where
        strict ``<`` must fail) are the common case, and sizes include
        empty members/candidates.
        """
        rng = np.random.default_rng(seed)
        members = rng.integers(0, 4, size=(m, d)) / 4.0
        candidates = rng.integers(0, 4, size=(n, d)) / 4.0
        got = find_witnesses(members, candidates)
        expected = np.full(n, -1, dtype=np.int64)
        if m and n:
            dom = np.all(members[None, :, :] < candidates[:, None, :], axis=2)
            has = dom.any(axis=1)
            expected[has] = dom.argmax(axis=1)[has]
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestEvictionLedger:
    def test_bootstrap_is_member_witnessed(self):
        _, members, others = _split_skyline(seed=4)
        ledger = build_witness_ledger(members, others)
        assert ledger is not None and len(ledger) == len(others)
        member_ids = members.id_set()
        for pid in others.ids:
            assert ledger.witness_of(int(pid)) in member_ids

    def test_bootstrap_refuses_unwitnessable(self):
        members = PointSet(np.array([[0.5, 0.5]]), np.array([0]))
        others = PointSet(np.array([[0.1, 0.9]]), np.array([1]))  # not dominated
        assert build_witness_ledger(members, others) is None

    def test_pop_orphans_exactly_the_dependents(self):
        _, members, others = _split_skyline(seed=5)
        ledger = build_witness_ledger(members, others)
        dead = int(members.ids[0])
        expected = {
            int(pid) for pid in others.ids if ledger.witness_of(int(pid)) == dead
        }
        orphan_ids, orphan_rows = ledger.pop_orphans(frozenset([dead]))
        assert set(int(i) for i in orphan_ids) == expected
        assert orphan_rows.shape == (len(expected), others.dimensionality)
        for pid in expected:
            assert ledger.witness_of(pid) is None  # popped, not retained

    def test_pop_orphans_empty(self):
        ledger = EvictionLedger(2)
        ids, rows = ledger.pop_orphans(frozenset([1, 2]))
        assert ids.size == 0 and rows.size == 0

    def test_repoint_moves_dependents(self):
        ledger = EvictionLedger(2)
        ledger.record(5, 1, np.array([0.5, 0.5]))
        ledger.record(6, 2, np.array([0.6, 0.6]))
        ledger.repoint({1: 9})
        assert ledger.witness_of(5) == 9
        assert ledger.witness_of(6) == 2

    def test_pickle_roundtrip(self):
        import pickle

        ledger = EvictionLedger(2)
        ledger.record(3, 1, np.array([0.1, 0.2]))
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.witness_of(3) == 1
        assert clone.ids.tolist() == [3] and clone.witnesses.tolist() == [1]
        assert np.array_equal(clone.rows, np.array([[0.1, 0.2]]))


class TestPromoteCandidates:
    def test_delete_then_promote_matches_oracle(self):
        points, members, others = _split_skyline(seed=6)
        ledger = build_witness_ledger(members, others)
        store = SortedByF.from_points(members)
        dead = frozenset(int(i) for i in members.ids[:3])
        store = store.splice_delete(np.asarray(sorted(dead)))
        ledger.discard(dead)
        orphan_ids, orphan_rows = ledger.pop_orphans(dead)
        store, promoted, examined = promote_candidates(
            store, ledger, orphan_ids, orphan_rows
        )
        survivors = points.mask(~np.isin(points.ids, np.asarray(sorted(dead))))
        oracle = _oracle_store(survivors)
        assert np.array_equal(store.points.values, oracle.points.values)
        assert np.array_equal(store.points.ids, oracle.points.ids)
        assert np.array_equal(store.f, oracle.f)
        assert examined == orphan_ids.shape[0]
        # Every remaining entry is witnessed by a current member.
        assert np.isin(ledger.witnesses, store.points.ids).all()

    def test_no_candidates_is_free(self):
        _, members, _ = _split_skyline(seed=7)
        store = SortedByF.from_points(members)
        out, promoted, examined = promote_candidates(
            store,
            EvictionLedger(3),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3)),
        )
        assert out is store and len(promoted) == 0 and examined == 0


class TestAdmitPoints:
    def test_admission_matches_oracle(self):
        points, members, others = _split_skyline(seed=8)
        ledger = build_witness_ledger(members, others)
        store = SortedByF.from_points(members)
        rng = np.random.default_rng(80)
        raw = PointSet(rng.random((12, 3)) ** 2, np.arange(500, 512))
        incoming = raw.mask(_ext_skyline_mask(raw))
        store, admitted, evictions = admit_points(store, ledger, incoming)
        union = PointSet.concat([points, incoming])
        oracle = _oracle_store(union)
        assert np.array_equal(store.points.values, oracle.points.values)
        assert np.array_equal(store.points.ids, oracle.points.ids)
        member_ids = store.points.id_set()
        assert admitted.id_set() <= member_ids
        for evicted_id, evictor_id in evictions.items():
            assert evicted_id not in member_ids
            assert evictor_id in member_ids
        assert np.isin(ledger.witnesses, store.points.ids).all()

    def test_fully_dominated_incoming_only_ledgered(self):
        _, members, others = _split_skyline(seed=9)
        ledger = build_witness_ledger(members, others)
        store = SortedByF.from_points(members)
        dominated = PointSet(
            np.full((2, 3), 0.999), np.array([700, 701])
        )  # dominated by essentially everything
        out, admitted, evictions = admit_points(store, ledger, dominated)
        assert len(admitted) == 0 and not evictions
        assert np.array_equal(out.points.ids, store.points.ids)
        assert ledger.witness_of(700) in members.id_set()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), kills=st.integers(1, 8))
def test_random_delete_promotion_matches_oracle(seed, kills):
    points, members, others = _split_skyline(seed=seed, n=50, d=3)
    ledger = build_witness_ledger(members, others)
    assert ledger is not None
    store = SortedByF.from_points(members)
    rng = np.random.default_rng(seed + 1)
    kills = min(kills, len(members))
    dead_ids = rng.choice(members.ids, size=kills, replace=False)
    dead = frozenset(int(i) for i in dead_ids)
    store = store.splice_delete(dead_ids)
    ledger.discard(dead)
    orphan_ids, orphan_rows = ledger.pop_orphans(dead)
    store, _promoted, _examined = promote_candidates(
        store, ledger, orphan_ids, orphan_rows
    )
    survivors = points.mask(~np.isin(points.ids, dead_ids))
    oracle = _oracle_store(survivors)
    assert np.array_equal(store.points.values, oracle.points.values)
    assert np.array_equal(store.points.ids, oracle.points.ids)
    assert np.array_equal(store.f, oracle.f)


class _DictLedger:
    """The dict the columnar ledger replaced, kept as the order oracle."""

    def __init__(self):
        self.entries = {}

    def record(self, pid, witness, row):
        self.entries[pid] = (witness, np.array(row, dtype=np.float64))

    def discard(self, ids):
        for pid in ids:
            self.entries.pop(pid, None)

    def pop_orphans(self, dead):
        orphans = [pid for pid, (w, _) in self.entries.items() if w in dead]
        return orphans, [self.entries.pop(pid)[1] for pid in orphans]

    def repoint(self, mapping):
        for pid, (witness, row) in self.entries.items():
            self.entries[pid] = (mapping.get(witness, witness), row)


def _assert_same_entries(ledger: EvictionLedger, model: _DictLedger) -> None:
    assert len(ledger) == len(model.entries)
    assert ledger.ids.tolist() == list(model.entries)
    assert ledger.witnesses.tolist() == [w for w, _ in model.entries.values()]
    assert ledger.rows.tobytes() == b"".join(
        row.tobytes() for _, row in model.entries.values()
    )


_IDS = st.integers(0, 11)  # a small universe, so ops collide constantly
_STEP = st.one_of(
    st.tuples(st.just("record"), _IDS, _IDS, st.integers(0, 2**16)),
    st.tuples(
        st.just("record_many"),
        st.lists(st.tuples(_IDS, _IDS), max_size=5, unique_by=lambda pair: pair[0]),
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("discard"), st.lists(_IDS, max_size=4)),
    st.tuples(st.just("pop_orphans"), st.frozensets(_IDS, max_size=4)),
    st.tuples(st.just("repoint"), st.dictionaries(_IDS, _IDS, max_size=4)),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, max_size=25))
def test_columnar_ledger_matches_the_dict_model(steps):
    """ids, witnesses, row bytes *and order* equal after every step."""
    import pickle

    ledger, model = EvictionLedger(3), _DictLedger()
    for step in steps:
        if step[0] == "record":
            _, pid, witness, seed = step
            row = np.random.default_rng(seed).random(3)
            ledger.record(pid, witness, row)
            model.record(pid, witness, row)
        elif step[0] == "record_many":
            _, pairs, seed = step
            rows = np.random.default_rng(seed).random((len(pairs), 3))
            ledger.record_many(
                np.array([p for p, _ in pairs], dtype=np.int64),
                np.array([w for _, w in pairs], dtype=np.int64),
                rows,
            )
            for (pid, witness), row in zip(pairs, rows):
                model.record(pid, witness, row)
        elif step[0] == "discard":
            ledger.discard(step[1])
            model.discard(step[1])
        elif step[0] == "pop_orphans":
            ids, rows = ledger.pop_orphans(step[1])
            want_ids, want_rows = model.pop_orphans(step[1])
            assert ids.tolist() == want_ids
            assert rows.tobytes() == b"".join(r.tobytes() for r in want_rows)
        else:
            ledger.repoint(step[1])
            model.repoint(step[1])
        _assert_same_entries(ledger, model)
        _assert_same_entries(pickle.loads(pickle.dumps(ledger)), model)
