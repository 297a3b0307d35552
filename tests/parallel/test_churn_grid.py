"""The churn grid: live updates held to a from-scratch rebuild.

Three ``(update_rate, churn_rate)`` cells — pure updates, half and half,
pure churn — each replay a deterministic :func:`churn_schedule` on a
small three-super-peer network, twice over:

* *engine side*: every op goes through
  :meth:`~repro.parallel.ParallelEngine.apply_update` on a live engine
  whose publication a query pass warmed.  An incremental op rewrites
  exactly its touched slots, which are the touched super-peers'
  stores, and less than the whole publication; after the schedule the
  engine's answers equal :func:`execute_query` over
  :func:`rebuild_reference` byte for byte.
* *serial side*: every op runs through the delta-maintenance paths
  (eviction ledgers, sorted splices) and every store after it equals
  the rebuild's.  A delete resolves through the ledger (``promoted``,
  never ``rebuilt``) and examines fewer candidates than a rebuild
  would — the peer's remaining data plus every list its super-peer
  holds — and an insert never re-sorts a store.

The engine runs under the ambient start method (``REPRO_MP_START``),
so CI's fork and spawn legs each cover it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import observed
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.p2p.workload import apply_mutation, churn_schedule, plan_op, rebuild_reference
from repro.parallel import ParallelEngine
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

GRID = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
SUBSPACES = ((0, 1, 2), (1, 3), (0, 2, 3))
ENGINE_OPS = 4
SERIAL_OPS = 6

pytestmark = pytest.mark.timeout(600)


def _churn_network(
    seed: int,
    d: int = 4,
    n_peers: int = 9,
    n_superpeers: int = 3,
    points_per_peer: int = 12,
) -> SuperPeerNetwork:
    """A small multi-super-peer network for the churn grid.

    A one-super-peer network's every update touches every slot, which
    the engine republishes in full on purpose, so an incremental
    republish needs at least two super-peers to show.
    """
    rng = np.random.default_rng(seed)
    topology = Topology.generate(
        n_peers=n_peers, n_superpeers=n_superpeers, degree=3.0, seed=seed
    )
    partitions = {}
    next_id = 0
    for peers in topology.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((points_per_peer, d)),
                np.arange(next_id, next_id + points_per_peer),
            )
            next_id += points_per_peer
    return SuperPeerNetwork.from_partitions(topology, partitions)


def _stores_identical(a, b) -> bool:
    return bool(
        np.array_equal(a.points.values, b.points.values)
        and np.array_equal(a.points.ids, b.points.ids)
        and np.array_equal(a.f, b.f)
    )


@pytest.fixture(scope="module")
def engine():
    with ParallelEngine(2) as engine:
        yield engine


@pytest.mark.parametrize("cell", range(len(GRID)), ids=lambda i: "u=%s,c=%s" % GRID[i])
def test_engine_republishes_the_touched_stores_and_matches_the_rebuild(engine, cell):
    update_rate, churn_rate = GRID[cell]
    network = _churn_network(seed=101 + cell)
    queries = [
        Query(subspace=s, initiator=network.topology.superpeer_ids[0]) for s in SUBSPACES
    ]
    engine.run_queries(network, queries, [Variant.FTPM])  # warm the publication
    incremental = 0
    for op in churn_schedule(ENGINE_OPS, update_rate, churn_rate, seed=cell):
        kind, kwargs = plan_op(network, op)
        report = engine.apply_update(network, kind, **kwargs)
        if report.full_republish:
            continue
        incremental += 1
        touched_store_nbytes = sum(
            network.store_of(sp).nbytes for sp in report.touched_superpeers
        )
        assert (
            report.republished_bytes
            == report.slot_nbytes
            <= touched_store_nbytes
            < report.total_nbytes
        ), (op, report.as_dict(), touched_store_nbytes)
    assert incremental > 0, "every op fell back to a full republish"

    reference = rebuild_reference(network)
    live = engine.run_queries(network, queries, [Variant.FTPM])[Variant.FTPM]
    for query, execution in zip(queries, live):
        ref = execute_query(
            reference,
            Query(subspace=query.subspace, initiator=reference.topology.superpeer_ids[0]),
            Variant.FTPM,
        )
        assert _stores_identical(execution.result, ref.result), query.subspace


@pytest.mark.parametrize("cell", range(len(GRID)), ids=lambda i: "u=%s,c=%s" % GRID[i])
def test_delta_maintenance_matches_the_rebuild_after_every_op(cell):
    update_rate, churn_rate = GRID[cell]
    network = _churn_network(seed=131 + cell)
    promoted_deletes = inserts = 0
    for op in churn_schedule(SERIAL_OPS, update_rate, churn_rate, seed=17 + cell):
        kind, kwargs = plan_op(network, op)
        if kind == "delete":
            superpeer = network.superpeers[
                network.topology.superpeer_of_peer(kwargs["peer_id"])
            ]
            rebuild_work = len(network.peers[kwargs["peer_id"]].data) + sum(
                len(lst) for lst in superpeer.peer_skylines.values()
            )
        registry = MetricsRegistry()
        with observed(metrics=registry):
            outcome = apply_mutation(network, kind, **kwargs)
        reference = rebuild_reference(network)
        for sp in network.superpeers:
            assert _stores_identical(
                network.superpeers[sp].require_store(),
                reference.superpeers[sp].require_store(),
            ), (op, sp)
        if kind == "delete":
            assert outcome.path == "promoted", (op, outcome.path)
            assert outcome.examined < rebuild_work, (op, outcome.examined, rebuild_work)
            promoted_deletes += 1
        elif kind == "insert":
            assert registry.total("store.from_points") == 0, op
            inserts += 1
    if update_rate > 0:
        assert promoted_deletes > 0 and inserts > 0
