"""Incremental epochs: per-slot republish, worker refresh, apply_update.

Each class runs on the host as it is and again, through ``off_dev_shm``,
on temp-directory segments.
"""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.churn import fail_superpeer, join_peer
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.p2p.updates import insert_points
from repro.p2p.workload import fresh_points
from repro.parallel import ParallelEngine
from repro.parallel.shm import attach_network, manifest_data_nbytes, publish_network
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.conftest import off_dev_shm, segment_files
from tests.parallel.pooled import pooled_runs


def build_network(seed: int = 3, d: int = 4, n_superpeers: int = 3) -> SuperPeerNetwork:
    rng = np.random.default_rng(seed)
    topo = Topology.generate(
        n_peers=3 * n_superpeers, n_superpeers=n_superpeers, degree=3.0, seed=seed
    )
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((10, d)), np.arange(next_id, next_id + 10)
            )
            next_id += 10
    return SuperPeerNetwork.from_partitions(topo, partitions)


_shm_leaks = segment_files  # this process's, wherever segment_home sent them


def _attached_equals_network(attached, network) -> None:
    """A query attachment mirrors the stores and topology, never the peers."""
    for sp_id, superpeer in network.superpeers.items():
        mirror = attached.network.superpeers[sp_id]
        assert np.array_equal(mirror.store.points.values, superpeer.store.points.values)
        assert np.array_equal(mirror.store.points.ids, superpeer.store.points.ids)
        assert np.array_equal(mirror.store.f, superpeer.store.f)
    assert attached.network.peers == {}
    assert attached.network.topology.peers_of == network.topology.peers_of


# ----------------------------------------------------------------------
# slot republish (publisher side)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("segment_home")
class TestRepublish:
    def test_republish_touches_only_the_named_slots(self, segment_home):
        network = build_network()
        shared = publish_network(network)
        try:
            before = shared.manifest
            handed_out = copy.deepcopy(before)
            target = sorted(network.superpeers)[0]
            peer_id = network.topology.peers_of[target][0]
            insert_points(network, peer_id, fresh_points(network, 3, seed=5))
            assert shared.sync(network) == [target]
            manifest = shared.manifest
            assert before == handed_out  # a handed-out manifest never changes
            assert manifest["epoch"] == network.epoch
            slot = manifest["slots"][target]
            assert set(slot) == {"segment", "generation", "nbytes", "store"}
            assert slot["generation"] == before["slots"][target]["generation"] + 1
            assert slot["nbytes"] == network.store_of(target).nbytes
            old = before["slots"][target]["segment"]
            assert slot["segment"] != old
            # The replaced segment is retired, not yet unlinked.
            assert set(shared.paths) | {old} <= set(_shm_leaks())
            assert old not in shared.paths
            assert os.path.dirname(slot["segment"]) == segment_home.directory
            for sp in network.superpeers:
                if sp != target:
                    assert manifest["slots"][sp] is before["slots"][sp]
        finally:
            shared.close()
        assert _shm_leaks() == []

    def test_republished_slot_is_smaller_than_the_publication(self):
        network = build_network()
        shared = publish_network(network)
        try:
            target = sorted(network.superpeers)[0]
            peer_id = network.topology.peers_of[target][0]
            insert_points(network, peer_id, fresh_points(network, 2, seed=6))
            (written,) = shared.sync(network)
            delta = shared.manifest["slots"][written]["nbytes"]
            assert 0 < delta < manifest_data_nbytes(shared.manifest)
        finally:
            shared.close()

    def test_preprocessing_publication_syncs_its_partitions(self):
        network = build_network()
        with publish_network(network, partitions=True) as shared:
            target = sorted(network.superpeers)[0]
            join_peer(network, target, fresh_points(network, 5, seed=7))
            assert shared.sync(network) == [target]
            assert shared.reap_retired() == 1
            with attach_network(shared.manifest) as attached:
                assert set(attached.peers) == set(network.peers)
                for peer_id, peer in network.peers.items():
                    mirror = attached.peers[peer_id].data
                    assert np.array_equal(mirror.values, peer.data.values)
                    assert np.array_equal(mirror.ids, peer.data.ids)
        assert _shm_leaks() == []

    def test_superseded_overlays_are_retired_not_leaked(self):
        network = build_network()
        shared = publish_network(network)
        try:
            target = sorted(network.superpeers)[0]
            peer_id = network.topology.peers_of[target][0]
            for seed in (7, 8):
                insert_points(network, peer_id, fresh_points(network, 1, seed=seed))
                shared.sync(network)
            assert shared.reap_retired() == 2  # both replaced slot segments
            assert shared.reap_retired() == 0
            assert sorted(_shm_leaks()) == sorted(shared.paths)
        finally:
            shared.close()
        assert _shm_leaks() == []


@off_dev_shm
class TestRepublishOffDevShm(TestRepublish):
    pass


# ----------------------------------------------------------------------
# slot sync (worker side)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("segment_home")
class TestRefresh:
    def test_refresh_mirrors_the_republished_slot(self):
        network = build_network()
        shared = publish_network(network)
        attached = None
        try:
            attached = attach_network(shared.manifest)
            stores = {sp: s.store for sp, s in attached.network.superpeers.items()}
            target = sorted(network.superpeers)[0]
            peer_id = network.topology.peers_of[target][0]
            insert_points(network, peer_id, fresh_points(network, 4, seed=9))
            shared.sync(network)
            delta = attached.sync(shared.manifest)
            assert delta["slots"] == 1
            assert delta["bytes"] == network.store_of(target).nbytes
            for sp, superpeer in attached.network.superpeers.items():
                # Only the changed slot was re-mapped; the others kept theirs.
                assert (superpeer.store is stores[sp]) == (sp != target)
            _attached_equals_network(attached, network)
        finally:
            if attached is not None:
                attached.close()
            shared.close()
        assert _shm_leaks() == []

    def test_refresh_same_subepoch_is_a_noop(self):
        network = build_network()
        shared = publish_network(network)
        attached = None
        try:
            attached = attach_network(shared.manifest)
            assert attached.sync(shared.manifest) == {"slots": 0, "bytes": 0}
        finally:
            if attached is not None:
                attached.close()
            shared.close()

    def test_sync_follows_superpeer_set_surgery(self):
        """A failed super-peer: the publisher rewrites the adopters' slots
        and drops the dead one; the worker re-maps those, drops the dead
        slot and takes the healed topology."""
        network = build_network(n_superpeers=6)
        shared = publish_network(network)
        attached = None
        try:
            attached = attach_network(shared.manifest)
            doomed = sorted(network.superpeers)[-1]
            adopters = sorted(set(fail_superpeer(network, doomed).adopters.values()))
            assert len(adopters) < len(network.superpeers)  # "only" is tested
            assert shared.sync(network) == adopters
            assert doomed not in shared.manifest["slots"]
            delta = attached.sync(shared.manifest)
            assert delta["slots"] == len(adopters)
            assert delta["bytes"] == sum(network.store_of(sp).nbytes for sp in adopters)
            assert set(attached.network.superpeers) == set(network.superpeers)
            assert attached.network.topology.adjacency == network.topology.adjacency
            assert attached.network.store_generations == network.store_generations
            _attached_equals_network(attached, network)
            assert shared.reap_retired() == len(adopters) + 1  # the dead slot too
        finally:
            if attached is not None:
                attached.close()
            shared.close()
        assert _shm_leaks() == []

    def test_sequential_updates_converge_to_the_live_network(self):
        network = build_network()
        shared = publish_network(network)
        attached = None
        try:
            attached = attach_network(shared.manifest)
            superpeers = sorted(network.superpeers)
            join_peer(network, superpeers[1], fresh_points(network, 5, seed=10))
            shared.sync(network)
            attached.sync(shared.manifest)
            peer_id = network.topology.peers_of[superpeers[0]][0]
            insert_points(network, peer_id, fresh_points(network, 3, seed=11))
            shared.sync(network)
            attached.sync(shared.manifest)
            _attached_equals_network(attached, network)
            assert attached.network.store_generations == network.store_generations
        finally:
            if attached is not None:
                attached.close()
            shared.close()
        assert _shm_leaks() == []


@off_dev_shm
class TestRefreshOffDevShm(TestRefresh):
    pass


# ----------------------------------------------------------------------
# engine.apply_update (end to end)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("segment_home")
class TestApplyUpdate:
    def _queries(self, network):
        return [
            Query(subspace=s, initiator=network.topology.superpeer_ids[0])
            for s in ((0, 1, 2), (1, 3))
        ]

    def test_insert_refreshes_the_live_publication_incrementally(self):
        """One worker, so its sync after the update is a re-map of the
        touched slot, never some other worker's first attach."""
        network = build_network()
        queries = self._queries(network)
        with ParallelEngine(1) as engine:
            pooled_runs(engine, network, queries, [Variant.FTPM])
            publications_before = engine.stats.publications
            peer_id = sorted(network.peers)[0]
            report = engine.apply_update(
                network, "insert", peer_id=peer_id,
                points=fresh_points(network, 3, seed=12),
            )
            assert not report.full_republish
            assert report.touched_superpeers == (
                network.topology.superpeer_of_peer(peer_id),
            )
            touched = network.topology.superpeer_of_peer(peer_id)
            assert report.republished_bytes == network.store_of(touched).nbytes
            assert report.slot_nbytes == report.republished_bytes
            assert report.total_nbytes == sum(
                network.store_of(sp).nbytes for sp in network.superpeers
            )
            (publication,) = engine._publications.values()
            slot = publication.shared.manifest["slots"][touched]
            assert slot["nbytes"] == report.republished_bytes
            assert engine.stats.publications == publications_before
            assert engine.stats.incremental_republishes == 1
            assert engine.stats.updates_applied == 1
            assert engine.stats.republished_bytes == report.republished_bytes
            attaches = engine.stats.attaches
            slots = engine.stats.attached_slots
            attached_bytes = engine.stats.attached_bytes
            # Post-update answers are byte-identical to a serial run on
            # the live (mutated) network.
            live = pooled_runs(engine, network, queries, [Variant.FTPM])[Variant.FTPM]
            # Every worker sync re-mapped exactly the republished slot.
            syncs = engine.stats.attaches - attaches
            assert syncs >= 1
            assert engine.stats.attached_slots - slots == syncs
            assert engine.stats.attached_bytes - attached_bytes == (
                syncs * report.republished_bytes
            )
            for query, execution in zip(queries, live):
                reference = execute_query(network, query, Variant.FTPM)
                assert np.array_equal(
                    execution.result.points.ids, reference.result.points.ids
                )
                assert np.array_equal(
                    execution.result.points.values, reference.result.points.values
                )
                assert np.array_equal(execution.result.f, reference.result.f)
        assert _shm_leaks() == []

    def test_superpeer_failure_republishes_only_the_adopters(self):
        network = build_network(n_superpeers=6)
        queries = self._queries(network)
        with ParallelEngine(2) as engine:
            pooled_runs(engine, network, queries, [Variant.FTPM])
            (publication,) = engine._publications.values()
            before = {
                sp: slot["segment"] for sp, slot in publication.shared.manifest["slots"].items()
            }
            doomed = sorted(network.superpeers)[-1]
            report = engine.apply_update(
                network, "fail-superpeer", superpeer_id=doomed
            )
            adopters = set(report.outcome.adopters.values())
            assert adopters and set(network.superpeers) - adopters  # "only" is tested
            assert not report.full_republish
            assert engine.stats.full_republishes == 0
            assert report.republished_bytes == sum(
                network.store_of(sp).nbytes for sp in adopters
            )
            after = publication.shared.manifest["slots"]
            assert set(after) == set(before) - {doomed}
            for sp, slot in after.items():
                assert (slot["segment"] != before[sp]) == (sp in adopters), sp
            # The dead and the replaced slots' segments are gone already.
            assert not os.path.exists(before[doomed])
            assert sorted(_shm_leaks()) == sorted(publication.shared.paths)
            live = pooled_runs(engine, network, queries, [Variant.FTPM])[Variant.FTPM]
            for query, execution in zip(queries, live):
                reference = execute_query(network, query, Variant.FTPM)
                assert execution.result_ids == reference.result_ids
                assert execution.volume_bytes == reference.volume_bytes
        assert _shm_leaks() == []

    def test_update_on_unpublished_network_reports_no_bytes(self):
        network = build_network()
        with ParallelEngine(2) as engine:
            report = engine.apply_update(
                network, "insert", peer_id=sorted(network.peers)[0],
                points=fresh_points(network, 2, seed=13),
            )
            assert report.republished_bytes == 0
            assert not report.full_republish
            assert report.touched_superpeers
        assert _shm_leaks() == []

    def test_apply_update_rejects_unknown_kind(self):
        network = build_network()
        with ParallelEngine(2) as engine:
            with pytest.raises(ValueError):
                engine.apply_update(network, "shuffle")

    def test_untouched_slot_cache_entries_survive_an_update(self):
        """Scan-memo invalidation is (slot, generation)-keyed: an update
        to one super-peer must not evict the others' memoized scans.  One
        worker, so every pass probes the same memo."""
        network = build_network()
        queries = self._queries(network)
        with ParallelEngine(1) as engine:
            pooled_runs(engine, network, queries, [Variant.FTPM])
            pooled_runs(engine, network, queries, [Variant.FTPM])  # warm
            warm_hits = engine.stats.cache_hits
            assert warm_hits > 0
            peer_id = sorted(network.peers)[0]
            engine.apply_update(
                network, "insert", peer_id=peer_id,
                points=fresh_points(network, 2, seed=14),
            )
            pooled_runs(engine, network, queries, [Variant.FTPM])
            assert engine.stats.cache_hits > warm_hits
        assert _shm_leaks() == []


@off_dev_shm
class TestApplyUpdateOffDevShm(TestApplyUpdate):
    pass


@pytest.mark.parametrize("mp_start", ["fork", "spawn"])
def test_query_publication_answers_every_variant(mp_start, monkeypatch):
    """Workers attached to stores alone answer as the full network does."""
    monkeypatch.setenv("REPRO_MP_START", mp_start)
    network = build_network()
    queries = [
        Query(subspace=s, initiator=network.topology.superpeer_ids[0])
        for s in ((0, 1, 2), (1, 3))
    ]
    variants = list(Variant)
    with ParallelEngine(2) as engine:
        assert engine.start_method == mp_start
        pooled = pooled_runs(engine, network, queries, variants)
        (publication,) = engine._publications.values()
        manifest = publication.spec["manifest"]
        assert not manifest["partitions"]
        assert all("peers" not in slot for slot in manifest["slots"].values())
    for variant in variants:
        for query, run in zip(queries, pooled[variant]):
            reference = execute_query(network, query, variant)
            assert run.result_ids == reference.result_ids
            assert run.volume_bytes == reference.volume_bytes
            assert run.comparisons == reference.comparisons
            assert run.initial_threshold == reference.initial_threshold
    assert _shm_leaks() == []


@off_dev_shm
@pytest.mark.parametrize("mp_start", ["fork", "spawn"])
def test_query_publication_answers_every_variant_off_dev_shm(
    mp_start, monkeypatch, segment_home
):
    test_query_publication_answers_every_variant(mp_start, monkeypatch)
    assert os.listdir(segment_home.tmpdir) == []


def test_ledgers_and_segments_stay_proportional_to_their_payload():
    """200 updates retain what they hold, not a Python object per point.

    ``tracemalloc`` bytes attributed to ``core/ledger.py`` stay under
    twice the ledger columns' ``nbytes``, and the engine keeps exactly
    one segment per super-peer.
    """
    import tracemalloc

    from repro.core import ledger as ledger_module
    from repro.p2p.workload import ChurnOp, plan_op

    network = SuperPeerNetwork.build(
        n_peers=40, points_per_peer=120, dimensionality=4, n_superpeers=20, seed=9
    )
    query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
    trace_filter = tracemalloc.Filter(True, ledger_module.__file__)
    with ParallelEngine(2) as engine:
        engine.run_query(network, query, Variant.FTPM)
        tracemalloc.start()
        try:
            for superpeer in network.superpeers.values():
                assert superpeer.ensure_store_ledger() is not None
                for peer_id in network.topology.peers_of[superpeer.superpeer_id]:
                    data = network.peers[peer_id].data
                    assert superpeer.ensure_peer_ledger(peer_id, data) is not None
            for index in range(200):
                op = ChurnOp(
                    index=index, kind=("insert", "delete")[index % 2], n_points=4,
                    seed=500 + index,
                )
                kind, kwargs = plan_op(network, op)
                report = engine.apply_update(network, kind, **kwargs)
                assert not report.full_republish
                assert len(_shm_leaks()) == len(network.superpeers)
            traced = sum(
                stat.size
                for stat in tracemalloc.take_snapshot()
                .filter_traces([trace_filter])
                .statistics("filename")
            )
        finally:
            tracemalloc.stop()
        ledgers = [
            ledger
            for superpeer in network.superpeers.values()
            for ledger in (superpeer.store_ledger, *superpeer.peer_ledgers.values())
        ]
        payload = sum(
            l.ids.nbytes + l.witnesses.nbytes + l.rows.nbytes for l in ledgers
        )
        assert payload > 0
        assert traced < 2 * payload
    assert _shm_leaks() == []


def test_fail_superpeer_bumps_only_adopters():
    network = build_network(n_superpeers=6)
    doomed = sorted(network.superpeers)[-1]
    before = dict(network.store_generations)
    event = fail_superpeer(network, doomed)
    assert doomed not in network.store_generations
    adopters = set(event.adopters.values())
    assert adopters and set(network.superpeers) - adopters  # "only" is tested
    for sp, gen in network.store_generations.items():
        assert gen == before[sp] + (sp in adopters), sp

    # The engine reports exactly those slots as touched.
    served = build_network(n_superpeers=6)
    with ParallelEngine(1) as engine:
        report = engine.apply_update(served, "fail-superpeer", superpeer_id=doomed)
    assert report.touched_superpeers == tuple(sorted(set(report.outcome.adopters.values())))
    assert report.outcome.adopters == event.adopters
