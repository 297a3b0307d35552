"""Persistence: save and load point sets and whole networks.

Everything goes through numpy's ``.npz`` container — no pickle, no code
execution on load.  A saved network stores the topology (adjacency and
peer assignments), every peer's partition, the cost model and enough
metadata to rebuild the pre-processed state deterministically
(``load_network`` re-runs pre-processing; it is cheaper than the
original build since the data is already materialized).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .core.dataset import PointSet
from .p2p.cost import CostModel
from .p2p.network import SuperPeerNetwork
from .p2p.topology import Topology

__all__ = ["save_pointset", "load_pointset", "save_network", "load_network"]

_FORMAT_VERSION = 1


def save_pointset(path: str | Path, points: PointSet) -> None:
    """Write a point set to ``path`` (.npz)."""
    np.savez_compressed(path, values=points.values, ids=points.ids)


def load_pointset(path: str | Path) -> PointSet:
    """Read a point set written by :func:`save_pointset`."""
    with np.load(path) as archive:
        return PointSet(archive["values"], archive["ids"])


def save_network(path: str | Path, network: SuperPeerNetwork) -> None:
    """Write topology + partitions + cost model to ``path`` (.npz)."""
    payload: dict[str, np.ndarray] = {}
    meta = {
        "format": _FORMAT_VERSION,
        "dimensionality": network.dimensionality,
        "adjacency": {str(k): list(v) for k, v in network.topology.adjacency.items()},
        "peers_of": {str(k): list(v) for k, v in network.topology.peers_of.items()},
        "cost_model": dataclasses.asdict(network.cost_model),
        "peer_ids": sorted(network.peers),
    }
    payload["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    for peer_id, peer in network.peers.items():
        payload[f"peer_{peer_id}_values"] = peer.data.values
        payload[f"peer_{peer_id}_ids"] = peer.data.ids
    np.savez_compressed(path, **payload)


def load_network(path: str | Path, preprocess: bool = True) -> SuperPeerNetwork:
    """Read a network written by :func:`save_network`.

    ``preprocess=True`` rebuilds the super-peer stores (deterministic;
    the raw data is the source of truth).
    """
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        if meta.get("format") != _FORMAT_VERSION:
            raise ValueError(f"unsupported network file format {meta.get('format')}")
        partitions = {
            int(peer_id): PointSet(
                archive[f"peer_{peer_id}_values"], archive[f"peer_{peer_id}_ids"]
            )
            for peer_id in meta["peer_ids"]
        }
    topology = Topology(
        adjacency={int(k): tuple(v) for k, v in meta["adjacency"].items()},
        peers_of={int(k): tuple(v) for k, v in meta["peers_of"].items()},
    )
    # A file saved while the RESULT record still carried f also names that
    # field's size; a size the model no longer has is dropped.  An older
    # file also names the dominance index it was scanned with; that key is
    # ignored, as there is one index.
    sizes = {field.name for field in dataclasses.fields(CostModel)}
    cost_model = {k: v for k, v in meta["cost_model"].items() if k in sizes}
    return SuperPeerNetwork.from_partitions(
        topology,
        partitions,
        cost_model=CostModel(**cost_model),
        preprocess=preprocess,
    )
