"""Property test: arbitrary churn/update sequences preserve exactness.

Random interleavings of peer joins, peer failures, super-peer failures,
point inserts and point deletes — after every step the distributed
answer must equal the centralized oracle over whatever data remains.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.p2p.churn import fail_superpeer

from tests.conftest import brute_force_skyline_ids

pytestmark = pytest.mark.slow


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 4), min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_random_churn_sequences_stay_exact(seed, ops):
    rng = np.random.default_rng(seed)
    net = repro.SuperPeerNetwork.build(
        n_peers=12, points_per_peer=12, dimensionality=3, n_superpeers=3, seed=seed
    )
    next_id = 10_000
    for op in ops:
        if op == 0:  # join
            sp = int(rng.choice(net.topology.superpeer_ids))
            pts = repro.PointSet(rng.random((6, 3)), np.arange(next_id, next_id + 6))
            next_id += 6
            repro.join_peer(net, sp, pts)
        elif op == 1 and len(net.peers) > 1:  # peer failure
            repro.fail_peer(net, int(rng.choice(list(net.peers))))
        elif op == 2 and net.n_superpeers > 1:  # super-peer failure
            fail_superpeer(net, int(rng.choice(net.topology.superpeer_ids)))
        elif op == 3:  # insert points
            peer = int(rng.choice(list(net.peers)))
            pts = repro.PointSet(rng.random((4, 3)), np.arange(next_id, next_id + 4))
            next_id += 4
            repro.insert_points(net, peer, pts)
        elif op == 4:  # delete points
            candidates = [p for p in net.peers if len(net.peers[p])]
            if candidates:
                peer = int(rng.choice(candidates))
                held = list(net.peers[peer].data.ids)
                victims = rng.choice(
                    held, size=min(3, len(held)), replace=False
                )
                repro.delete_points(net, peer, [int(v) for v in victims])
        # exactness after every mutation
        if len(net.all_points()) == 0:
            continue
        sub = (0, 2)
        truth = brute_force_skyline_ids(net.all_points(), sub)
        query = repro.Query(subspace=sub, initiator=net.topology.superpeer_ids[0])
        got = repro.execute_query(net, query, "rtpm")
        assert got.result_ids == truth
