"""Delta maintenance vs from-scratch rebuild, under interleaved churn.

The pinning property of the eviction-ledger layer: after *any*
interleaving of inserts, deletes, joins and peer failures, every
super-peer store is byte-identical (values, ids, f keys) to
:func:`~repro.p2p.workload.rebuild_reference`'s full recomputation, the
delta-maintained selectivity report matches the recomputed one, and
every ledger still satisfies the member-witness invariant.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.workload import ChurnOp, apply_op, rebuild_reference


def _make_network(seed: int) -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=6,
        points_per_peer=10,
        dimensionality=3,
        n_superpeers=2,
        seed=seed,
    )


def _assert_matches_rebuild(network: SuperPeerNetwork) -> None:
    reference = rebuild_reference(network)
    for sp_id, superpeer in network.superpeers.items():
        ref_store = reference.superpeers[sp_id].require_store()
        store = superpeer.require_store()
        assert np.array_equal(store.points.values, ref_store.points.values)
        assert np.array_equal(store.points.ids, ref_store.points.ids)
        assert np.array_equal(store.f, ref_store.f)
    # The delta-maintained selectivity report equals the recomputed one.
    live, ref = network.preprocessing, reference.preprocessing
    assert live is not None and ref is not None
    assert live.total_points == ref.total_points
    assert live.peer_skyline_points == ref.peer_skyline_points
    assert live.superpeer_store_points == ref.superpeer_store_points
    assert live.upload_bytes == ref.upload_bytes


def _assert_ledger_invariants(network: SuperPeerNetwork) -> None:
    """Every live ledger entry is witnessed by a *current* member."""
    for superpeer in network.superpeers.values():
        for peer_id, ledger in superpeer.peer_ledgers.items():
            upload_ids = superpeer.peer_skylines[peer_id].points.ids
            assert np.isin(ledger.witnesses, upload_ids).all()
        if superpeer.store_ledger is not None and superpeer.store is not None:
            store_ids = superpeer.store.points.ids
            assert np.isin(superpeer.store_ledger.witnesses, store_ids).all()


@settings(max_examples=12, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["insert", "delete", "join", "fail"]),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**16),
)
def test_interleaved_ops_stay_byte_identical(kinds, seed):
    network = _make_network(seed % 7)
    for index, kind in enumerate(kinds):
        apply_op(
            network,
            ChurnOp(index=index, kind=kind, n_points=3, seed=seed * 1009 + index),
        )
        _assert_ledger_invariants(network)
    _assert_matches_rebuild(network)


def test_delete_storm_exercises_ledger_path():
    """A delete-heavy run must hit the promoted path, never the rebuild
    fallback, and still match the reference byte for byte."""
    network = _make_network(seed=3)
    paths = []
    for index in range(10):
        outcome = apply_op(
            network, ChurnOp(index=index, kind="delete", n_points=3, seed=42 + index)
        )
        paths.append(outcome.path)
        _assert_matches_rebuild(network)
    assert "promoted" in paths
    assert "rebuilt" not in paths


def _lists(network: SuperPeerNetwork) -> dict:
    return {
        peer_id: upload
        for superpeer in network.superpeers.values()
        for peer_id, upload in superpeer.peer_skylines.items()
    }


def test_an_update_prices_only_the_lists_it_replaced(monkeypatch):
    """Each peer list keeps its upload price: an insert or a delete
    calls ``list_bytes`` once for each list it replaced, not for every
    list of the super-peer it touched, and the totals still match a
    rebuild's."""
    network = _make_network(seed=3)
    assert all(len(sp.peer_skylines) > 1 for sp in network.superpeers.values())
    calls = []
    priced = CostModel.list_bytes
    monkeypatch.setattr(
        CostModel, "list_bytes", lambda model, *args: calls.append(1) or priced(model, *args)
    )
    replaced_any = False
    for index, kind in enumerate(["insert", "delete"] * 5):
        before = _lists(network)
        calls.clear()
        apply_op(network, ChurnOp(index=index, kind=kind, n_points=3, seed=77 + index))
        replaced = sum(upload is not before.get(peer_id) for peer_id, upload in _lists(network).items())
        assert len(calls) == replaced
        replaced_any |= replaced > 0
    assert replaced_any
    _assert_matches_rebuild(network)


def test_fail_after_updates_uses_store_ledger():
    """drop_peer withdraws incrementally once the ledger is live."""
    from repro.p2p.churn import fail_peer

    network = _make_network(seed=5)
    apply_op(network, ChurnOp(index=0, kind="insert", n_points=4, seed=11))
    apply_op(network, ChurnOp(index=1, kind="delete", n_points=2, seed=12))
    victim = sorted(network.peers)[0]
    store_size = network.superpeers[
        network.topology.superpeer_of_peer(victim)
    ].store_size
    event = fail_peer(network, victim)
    assert event.path == "promoted"
    assert event.examined <= store_size
    _assert_matches_rebuild(network)
    _assert_ledger_invariants(network)


@settings(max_examples=12, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["insert", "delete"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_rebuilt_fallback_stays_byte_identical(kinds, seed):
    """With no ledger to ask, updates rebuild — and still match the reference."""
    from unittest import mock

    network = _make_network(seed % 7)
    with mock.patch("repro.p2p.node.build_witness_ledger", return_value=None):
        for index, kind in enumerate(kinds):
            outcome = apply_op(
                network,
                ChurnOp(index=index, kind=kind, n_points=3, seed=seed * 1013 + index),
            )
            assert outcome.path in ("rebuilt", "spliced")  # spliced: nothing uploaded died
            _assert_matches_rebuild(network)
    assert any(not sp.peer_ledgers for sp in network.superpeers.values())
