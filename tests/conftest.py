"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.p2p.network import SuperPeerNetwork


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_points(rng) -> PointSet:
    """200 uniform points in 5 dimensions."""
    return PointSet(rng.random((200, 5)))


@pytest.fixture
def paper_peer_a() -> PointSet:
    """Peer P_A of the paper's Figure 2 (4-dimensional)."""
    values = np.array(
        [
            [2, 2, 2, 2],  # A1
            [1, 3, 2, 3],  # A2
            [1, 3, 5, 4],  # A3
            [2, 3, 2, 1],  # A4
            [5, 2, 4, 1],  # A5
        ],
        dtype=float,
    )
    return PointSet(values, np.array([1, 2, 3, 4, 5]))


@pytest.fixture
def paper_peer_b() -> PointSet:
    """Peer P_B of the paper's Figure 2."""
    values = np.array(
        [
            [3, 1, 1, 3],  # B1
            [4, 5, 4, 6],  # B2
            [2, 3, 3, 3],  # B3
            [1, 2, 3, 4],  # B4
            [5, 5, 5, 5],  # B5
        ],
        dtype=float,
    )
    return PointSet(values, np.array([11, 12, 13, 14, 15]))


@pytest.fixture(scope="session")
def small_network() -> SuperPeerNetwork:
    """A pre-processed 60-peer network shared across tests (read-only)."""
    return SuperPeerNetwork.build(
        n_peers=60, points_per_peer=30, dimensionality=5, seed=99
    )


def brute_force_skyline_ids(points: PointSet, subspace, strict: bool = False) -> frozenset[int]:
    """O(n^2) dominance oracle, independent of all library code paths."""
    cols = list(subspace)
    values = points.values[:, cols]
    ids = points.ids
    n = values.shape[0]
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i == j:
                continue
            if strict:
                if np.all(values[j] < values[i]):
                    dominated = True
                    break
            elif np.all(values[j] <= values[i]) and np.any(values[j] < values[i]):
                dominated = True
                break
        if not dominated:
            keep.append(int(ids[i]))
    return frozenset(keep)


def network_state(network: SuperPeerNetwork) -> tuple:
    """Everything an update may move: epoch, generations, data, store bytes."""
    return (
        network.epoch,
        dict(network.store_generations),
        {peer_id: len(peer.data) for peer_id, peer in network.peers.items()},
        {
            sp_id: (
                sp.store.points.values.tobytes(),
                sp.store.points.ids.tobytes(),
                sp.store.f.tobytes(),
            )
            for sp_id, sp in network.superpeers.items()
        },
    )
