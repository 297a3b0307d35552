"""Churn workloads: deterministic update-rate × churn-rate schedules.

The bench's query workloads (``repro.data.workload``) exercise the read
path; this module generates the *write* path — point inserts/deletes
(``repro.p2p.updates``) interleaved with peer joins/failures
(``repro.p2p.churn``) — as reproducible schedules over a rate grid:

* ``update_rate`` weights point-level data updates (insert/delete),
* ``churn_rate`` weights membership churn (join/fail),

and every op carries its own derived seed, so a schedule replays
identically from ``(n_ops, rates, seed)`` alone.  ``apply_op`` executes
one op against a live network (picking deterministic targets from the
op seed); ``rebuild_reference`` produces the from-scratch recomputation
that incremental maintenance is held to, byte for byte
(``tests/parallel/test_churn_grid.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.dataset import PointSet
from ..data.generators import make_generator
from .churn import fail_peer, fail_superpeer, join_peer
from .network import SuperPeerNetwork
from .topology import Topology
from .updates import delete_points, insert_points

__all__ = [
    "ChurnOp",
    "apply_mutation",
    "apply_op",
    "churn_grid",
    "churn_schedule",
    "fresh_points",
    "next_point_id",
    "plan_op",
    "rebuild_reference",
]


@dataclass(frozen=True)
class ChurnOp:
    """One scheduled write: what to do, how big, and its private seed."""

    index: int
    kind: str  # "insert" | "delete" | "join" | "fail"
    n_points: int
    seed: int


def churn_schedule(
    n_ops: int,
    update_rate: float,
    churn_rate: float,
    seed: int = 0,
    points_per_op: int = 4,
) -> tuple[ChurnOp, ...]:
    """Draw a reproducible op schedule from the two rate knobs.

    ``update_rate`` mass splits evenly between insert and delete;
    ``churn_rate`` mass between join and fail.  Rates are relative
    weights (they need not sum to 1); both zero yields an empty
    schedule.
    """
    if n_ops < 0:
        raise ValueError("n_ops must be non-negative")
    if update_rate < 0 or churn_rate < 0:
        raise ValueError("rates must be non-negative")
    total = update_rate + churn_rate
    if n_ops == 0 or total <= 0:
        return ()
    rng = np.random.default_rng(seed)
    kinds = ("insert", "delete", "join", "fail")
    weights = np.array(
        [update_rate / 2, update_rate / 2, churn_rate / 2, churn_rate / 2], dtype=np.float64
    )
    weights = weights / weights.sum()
    ops = []
    for index in range(n_ops):
        kind = kinds[int(rng.choice(4, p=weights))]
        ops.append(
            ChurnOp(
                index=index,
                kind=kind,
                n_points=points_per_op,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return tuple(ops)


def churn_grid(
    update_rates: Iterable[float] = (1.0, 0.5, 0.0),
    churn_rates: Iterable[float] = (0.0, 0.5, 1.0),
) -> tuple[tuple[float, float], ...]:
    """The (update_rate, churn_rate) product grid, zero-zero excluded."""
    cells = []
    for u in update_rates:
        for c in churn_rates:
            if u + c <= 0:
                continue
            cells.append((float(u), float(c)))
    return tuple(cells)


def plan_op(
    network: SuperPeerNetwork, op: ChurnOp, dataset: str = "uniform"
) -> tuple[str, dict[str, Any]]:
    """Resolve one scheduled op to a concrete (kind, kwargs) mutation.

    Targets (which peer, which super-peer, which points) derive from the
    op's private seed, so a schedule replays identically on an identical
    network.  Infeasible ops degrade deterministically (a delete with no
    data becomes an insert; a fail with no spare peer becomes a join) so
    every op mutates the network.  The returned kwargs are exactly what
    :meth:`repro.parallel.ParallelEngine.apply_update` (or
    :func:`apply_op`) expects; the network is not mutated here.
    """
    rng = np.random.default_rng(op.seed)
    kind = op.kind
    if kind == "delete" and not _peers_with_data(network):
        kind = "insert"
    if kind == "fail" and not _failable_peers(network):
        kind = "join"
    if kind == "insert":
        peer_id = _pick(rng, sorted(network.peers))
        points = _fresh_points(network, op.n_points, dataset, rng)
        return "insert", {"peer_id": peer_id, "points": points}
    if kind == "delete":
        peer_id = _pick(rng, _peers_with_data(network))
        ids = network.peers[peer_id].data.ids
        count = min(op.n_points, len(ids))
        doomed = rng.choice(np.asarray(ids, dtype=np.int64), size=count, replace=False)
        return "delete", {"peer_id": peer_id, "point_ids": [int(i) for i in doomed]}
    if kind == "join":
        superpeer_id = _pick(rng, sorted(network.superpeers))
        data = _fresh_points(network, max(op.n_points, 1), dataset, rng)
        return "join", {"superpeer_id": superpeer_id, "data": data}
    if kind == "fail":
        peer_id = _pick(rng, _failable_peers(network))
        return "fail", {"peer_id": peer_id}
    raise ValueError(f"unknown op kind {op.kind!r}")


def apply_op(network: SuperPeerNetwork, op: ChurnOp, dataset: str = "uniform") -> Any:
    """Plan and execute one scheduled op against a live network.

    Returns the underlying outcome
    (:class:`~repro.p2p.updates.UpdateOutcome` or
    :class:`~repro.p2p.churn.ChurnEvent`).  Serving engines should
    route the planned op through
    :meth:`repro.parallel.ParallelEngine.apply_update` instead so live
    publications refresh incrementally.
    """
    kind, kwargs = plan_op(network, op, dataset)
    return apply_mutation(network, kind, **kwargs)


def apply_mutation(
    network: SuperPeerNetwork,
    kind: str,
    *,
    peer_id: int | None = None,
    points: PointSet | None = None,
    point_ids: Sequence[int] | None = None,
    superpeer_id: int | None = None,
    data: PointSet | None = None,
) -> Any:
    """Run one ``(kind, kwargs)`` mutation; returns its outcome/event.

    The one dispatch every write path shares — planned ops, the engine's
    ``apply_update`` and the serial gateway.
    """
    if kind == "insert":
        return insert_points(network, peer_id, points)
    if kind == "delete":
        return delete_points(network, peer_id, point_ids)
    if kind == "join":
        return join_peer(network, superpeer_id, data, peer_id=peer_id)
    if kind == "fail":
        return fail_peer(network, peer_id)
    if kind == "fail-superpeer":
        return fail_superpeer(network, superpeer_id)
    raise ValueError(
        f"unknown update kind {kind!r}; expected insert/delete/join/fail/fail-superpeer"
    )


def rebuild_reference(network: SuperPeerNetwork) -> SuperPeerNetwork:
    """From-scratch recomputation of the network's *current* data.

    Copies the live topology and partitions into a fresh network and
    re-runs full pre-processing — the ground truth that incremental
    maintenance (updates/churn/slot republish) must match byte for
    byte.
    """
    topology = Topology(
        adjacency={sp: tuple(v) for sp, v in network.topology.adjacency.items()},
        peers_of={sp: tuple(v) for sp, v in network.topology.peers_of.items()},
    )
    partitions = {
        peer_id: PointSet(
            np.array(peer.data.values, copy=True), np.array(peer.data.ids, copy=True)
        )
        for peer_id, peer in network.peers.items()
    }
    return SuperPeerNetwork.from_partitions(
        topology,
        partitions,
        cost_model=network.cost_model,
    )


def fresh_points(
    network: SuperPeerNetwork, count: int, dataset: str = "uniform", seed: int = 0
) -> PointSet:
    """Generate ``count`` new points with globally fresh ids.

    The gateway's ``update`` op uses this for server-side point
    generation (``{"random": n, "seed": s}`` payloads) so clients need
    not ship coordinates over the wire to drive churn.
    """
    return _fresh_points(network, count, dataset, np.random.default_rng(seed))


def next_point_id(network: SuperPeerNetwork) -> int:
    """The smallest point id not used anywhere in the network."""
    return 1 + max(
        (int(peer.data.ids.max()) for peer in network.peers.values() if len(peer.data)),
        default=-1,
    )


def _pick(rng: np.random.Generator, candidates: Sequence[int]) -> int:
    if not candidates:
        raise ValueError("no eligible target")
    return int(candidates[int(rng.integers(0, len(candidates)))])


def _peers_with_data(network: SuperPeerNetwork) -> list[int]:
    return sorted(pid for pid, peer in network.peers.items() if len(peer.data))


def _failable_peers(network: SuperPeerNetwork) -> list[int]:
    """Peers whose departure leaves their super-peer with a peer."""
    peers_of = network.topology.peers_of
    return sorted(pid for members in peers_of.values() for pid in members if len(members) > 1)


def _fresh_points(
    network: SuperPeerNetwork, count: int, dataset: str, rng: np.random.Generator
) -> PointSet:
    generator = make_generator(dataset)
    if dataset == "clustered":
        centroids = rng.random((1, network.dimensionality))
        values = generator(count, network.dimensionality, rng, centroids=centroids)
    else:
        values = generator(count, network.dimensionality, rng)
    next_id = next_point_id(network)
    ids = np.arange(next_id, next_id + values.shape[0], dtype=np.int64)
    return PointSet(values, ids)
