"""All carriers, one answer.

One :class:`~repro.skypeer.protocol.ProtocolNode` runs under the model
clocks on the BFS tree (``execute_query``), under the model clocks on
the flooded backbone (``run_protocol``) and behind real sockets on the
BFS tree (``run_socket_query``).  On tie-free data they return the same bytes — the
centralized skyline in ascending ``g_U``, the minimum over the queried
coordinates, which is the key Algorithm 2 merges on and the ``f`` a merged
answer carries.  (Two carriers may order an exact key tie differently
where their merge inputs are ranked differently; the id set never
differs.)
"""

from __future__ import annotations

import pytest

from repro.core.extended_skyline import subspace_skyline_points
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.netexec import run_socket_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant


@pytest.fixture(scope="module")
def mesh_network() -> SuperPeerNetwork:
    """The socket suite's mesh (``test_netexec.py``)."""
    return SuperPeerNetwork.build(
        n_peers=36, points_per_peer=20, dimensionality=5, n_superpeers=6, seed=7,
    )


@pytest.mark.parametrize("variant", tuple(Variant), ids=lambda v: v.value)
def test_all_carriers_one_answer(mesh_network, variant):
    query = Query(subspace=(0, 2, 4), initiator=mesh_network.topology.superpeer_ids[0])
    oracle = subspace_skyline_points(mesh_network.all_points(), query.subspace)
    cols = list(query.subspace)
    keys = oracle.values[:, cols].min(axis=1)
    assert len(set(keys.tolist())) == len(keys), "the fixture must be tie-free"
    order = keys.argsort()

    tree = execute_query(mesh_network, query, variant)
    flood = run_protocol(mesh_network, query, variant)
    answers = {
        "tree": tree.result,
        "flood": flood.result,
        "socket": run_socket_query(mesh_network, query, variant).result,
    }
    for carrier, result in answers.items():
        on_wire = carrier == "socket"   # lists held the queried coordinates only
        coords = result.points.values if on_wire else result.points.values[:, cols]
        assert result.points.ids.tolist() == oracle.ids[order].tolist(), carrier
        assert result.f.tolist() == keys[order].tolist(), carrier
        assert coords.tolist() == oracle.values[order][:, cols].tolist(), carrier

    # Only run_protocol floods: it pays at least the tree's messages, plus
    # a decline for every edge off the tree.
    edges = sum(len(ns) for ns in mesh_network.topology.adjacency.values()) // 2
    assert flood.message_count >= tree.message_count
    assert flood.duplicate_replies >= edges - (mesh_network.n_superpeers - 1)
