"""One end-to-end scenario composing the whole public surface.

Build → query (all variants, tree-routed and flooded) → churn + data
updates → persist → reload → re-verify.  Everything is checked against brute-force oracles at every
stage; if this test is green the README's promises hold together, not
just piecewise.
"""

import numpy as np
import pytest

import repro
from repro.p2p.churn import fail_superpeer
from repro.skypeer.protocol import run_protocol


@pytest.mark.slow
def test_full_story(tmp_path):
    rng = np.random.default_rng(2026)

    # --- build -------------------------------------------------------
    net = repro.SuperPeerNetwork.build(
        n_peers=48, points_per_peer=25, dimensionality=5, n_superpeers=6, seed=7
    )
    report = net.preprocessing
    assert 0 < report.sel_sp <= report.sel_p <= 1

    def oracle(subspace):
        return repro.subspace_skyline_points(net.all_points(), subspace).id_set()

    # --- plain queries, all variants, tree-routed and flooded ----------
    query = repro.Query(subspace=(0, 2, 4), initiator=net.topology.superpeer_ids[0])
    for variant in repro.Variant:
        assert repro.execute_query(net, query, variant).result_ids == oracle((0, 2, 4))
        assert run_protocol(net, query, variant).result_ids == oracle((0, 2, 4))

    # --- churn + updates ----------------------------------------------
    event = repro.join_peer(
        net, net.topology.superpeer_ids[1],
        repro.PointSet(rng.random((20, 5)), np.arange(90_000, 90_020)),
    )
    repro.insert_points(
        net, event.peer_id, repro.PointSet(np.zeros((1, 5)), np.array([99_999]))
    )
    repro.delete_points(net, event.peer_id, [90_000])
    repro.fail_peer(net, next(p for p in net.peers if p != event.peer_id))
    fail_superpeer(net, net.topology.superpeer_ids[-1])
    assert net.topology.is_connected()
    assert repro.execute_query(net, query, "rtpm").result_ids == oracle((0, 2, 4))
    assert 99_999 in oracle((0, 2, 4))  # the all-zeros point rules

    # --- persistence ---------------------------------------------------
    path = tmp_path / "net.npz"
    repro.save_network(path, net)
    reloaded = repro.load_network(path)
    assert (
        repro.execute_query(reloaded, query, "ftpm").result_ids
        == oracle((0, 2, 4))
    )
