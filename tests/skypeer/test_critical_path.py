"""``critical_path_examined`` carries every scan on the path, relayed or not.

The plan-based executor re-stamped a relayed result with its ``comp``
and ``total`` components only, so under FTFM / RTFM / naive no remote
scan ever reached the initiator's ``work`` clock.  The carrier passes a
relayed stamp through whole; these cases fail on that executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant


@pytest.fixture(scope="module")
def mesh_network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=36, points_per_peer=20, dimensionality=5, n_superpeers=6, seed=7,
    )


@pytest.mark.parametrize("threshold", ["FT", "RT"])
def test_on_a_depth_one_tree_the_merging_strategies_are_one_dag(mesh_network, threshold):
    """Every super-peer is the initiator's child: nobody relays, nobody
    but the initiator merges, so *FM and *PM run the same schedule."""
    star = next(
        sp for sp, neighbours in mesh_network.topology.adjacency.items()
        if len(neighbours) == mesh_network.n_superpeers - 1
    )
    for subspace in [(3,), (0, 2, 4), (0, 1, 2, 3, 4)]:
        query = Query(subspace=subspace, initiator=star)
        fixed = execute_query(mesh_network, query, f"{threshold}FM")
        progressive = execute_query(mesh_network, query, f"{threshold}PM")
        for field in ("critical_path_examined", "comparisons", "message_count", "volume_bytes"):
            assert getattr(fixed, field) == getattr(progressive, field), (subspace, field)


@pytest.fixture(scope="module")
def chain() -> SuperPeerNetwork:
    """SP0 - SP1 - SP2, one peer each, two dimensions, queried whole.

    ====  ===================  =============================================
    SP0   (1,4) (4,1)          f = 1, 1; reads both, t = 4, p = (1,4)
    SP1   (2,2)                f = 2; read under any t >= 2, refines t to 2
    SP2   (9,2.5) (3,7)        f = 2.5, 3; both read under t = 4, none under 2;
                               drops (3,7), which p = (1,4) dominates
    ====  ===================  =============================================

    A relay drops from what it passes up the points its known points —
    the ``p`` it received and its own smallest-sum point — dominate.

    (SP0's two points tie on their sum, 5; the first in its list is ``p``.)
    """
    topology = Topology(
        adjacency={0: (1,), 1: (0, 2), 2: (1,)}, peers_of={0: (0,), 1: (1,), 2: (2,)}
    )
    partitions = {
        0: PointSet(np.array([[1.0, 4.0], [4.0, 1.0]]), np.array([1, 2])),
        1: PointSet(np.array([[2.0, 2.0]]), np.array([3])),
        2: PointSet(np.array([[9.0, 2.5], [3.0, 7.0]]), np.array([4, 5])),
    }
    return SuperPeerNetwork.from_partitions(topology, partitions)


#: The longest path from the query's arrival at SP0 to its answer, in
#: points examined, by hand.  The vectorized scan honours the threshold it
#: knows when a batch starts and these lists fit in one batch, so a merge
#: (which starts from t = inf) reads its whole input.
CHAIN_WORK = {
    # SP0 scans 2, then SP1 and SP2 scan at once (2+1, 2+2); SP2 keeps 1,
    # (9,2.5), which SP1's own (2,2) dominates: SP1 relays the list empty,
    # so SP0 merges 2+1+0.
    Variant.FTFM: max(2, 2 + 1, 2 + 2) + 3,
    # ... SP1 merges its 1 with SP2's 1 once they are in and keeps (2,2);
    # SP0 merges its 2 with that 1.
    Variant.FTPM: max(2, max(2 + 1, 2 + 2) + 2) + 3,
    # The scans cascade: 2, 2+1, 2+1+0; SP0 merges 2+1+0.
    Variant.RTFM: max(2, 2 + 1, 2 + 1 + 0) + 3,
    Variant.RTPM: max(2, max(2 + 1, 2 + 1 + 0) + 1) + 3,
    # Everybody reads its whole store at once (2, 1, 2); SP0 merges all 5.
    Variant.NAIVE: max(2, 1, 2) + 5,
}


@pytest.mark.parametrize("variant", tuple(Variant), ids=lambda v: v.value)
def test_a_three_super_peer_chain_by_hand(chain, variant):
    run = execute_query(chain, Query(subspace=(0, 1), initiator=0), variant)
    assert run.result_ids == {1, 2, 3}
    assert run.critical_path_examined == CHAIN_WORK[variant]


def test_refining_serialises_the_scans_on_a_deep_backbone():
    """RT* waits for each scan before it forwards, so on uniform data —
    where a refined threshold saves a scan little — the relayed path is
    longer than under FT*.  (Not a theorem: on the chain above the
    refined threshold spares SP2 its whole scan and RTFM is the shorter.)"""
    network = SuperPeerNetwork.build(
        n_peers=48, points_per_peer=12, dimensionality=4, n_superpeers=12,
        degree=2.0, seed=3,
    )
    root = network.topology.superpeer_ids[1]
    assert max(network.topology.hops_from(root).values()) >= 2
    for subspace in [(3,), (0, 3), (0, 1, 2, 3)]:
        query = Query(subspace=subspace, initiator=root)
        refined = execute_query(network, query, Variant.RTFM)
        fixed = execute_query(network, query, Variant.FTFM)
        assert refined.critical_path_examined >= fixed.critical_path_examined, subspace
    assert CHAIN_WORK[Variant.RTFM] < CHAIN_WORK[Variant.FTFM]
