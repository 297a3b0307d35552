"""Unit tests for the pool-engine knobs (no processes spawned here)."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.parallel import (
    default_workers,
    resolve_workers,
    set_default_workers,
    start_method,
)


@pytest.fixture(autouse=True)
def _clean_ambient(monkeypatch):
    """Every test starts with no ambient worker count and a clean env."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    set_default_workers(None)
    yield
    set_default_workers(None)


class TestResolveWorkers:
    def test_none_means_serial_without_ambient(self):
        assert resolve_workers(None) == 1

    def test_zero_and_one_mean_serial(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(5) == 5

    def test_negative_means_one_per_cpu(self):
        assert resolve_workers(-1) == max(1, os.cpu_count() or 1)

    def test_none_consults_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_none_consults_set_default(self):
        set_default_workers(4)
        assert resolve_workers(None) == 4

    def test_set_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        set_default_workers(4)
        assert resolve_workers(None) == 4

    def test_use_default_off_ignores_ambient(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        set_default_workers(4)
        assert resolve_workers(None, use_default=False) == 1

    def test_explicit_beats_ambient(self):
        set_default_workers(4)
        assert resolve_workers(2) == 2


class TestDefaultWorkers:
    def test_unset_is_none(self):
        assert default_workers() is None

    def test_set_and_reset(self):
        set_default_workers(6)
        assert default_workers() == 6
        set_default_workers(None)
        assert default_workers() is None


class TestStartMethod:
    def test_default_is_available(self):
        assert start_method() in multiprocessing.get_all_start_methods()

    def test_env_override_honored(self, monkeypatch):
        method = multiprocessing.get_all_start_methods()[0]
        monkeypatch.setenv("REPRO_MP_START", method)
        assert start_method() == method

    def test_unknown_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "teleport")
        with pytest.raises(ValueError, match="teleport"):
            start_method()


class TestCliAmbientScope:
    def test_context_manager_sets_and_restores(self):
        from repro.cli import _ambient_workers

        with _ambient_workers(3):
            assert default_workers() == 3
        assert default_workers() is None

    def test_none_is_a_no_op(self):
        from repro.cli import _ambient_workers

        set_default_workers(7)
        with _ambient_workers(None):
            assert default_workers() == 7
        assert default_workers() == 7


class TestAffinityChunks:
    """Subspace-affine batching: deterministic, index-complete, grouped."""

    @staticmethod
    def _make(subspaces, variants):
        from repro.data.workload import Query
        from repro.parallel.engine import _affinity_chunks
        from repro.skypeer.variants import Variant

        queries = [Query(subspace=s, initiator=0) for s in subspaces]
        return _affinity_chunks(queries, [Variant.parse(v) for v in variants], workers=2)

    def test_covers_every_task_exactly_once(self):
        chunks = self._make([(0, 1), (1, 2), (0, 1)], ["FTPM", "RTFM"])
        indices = sorted(i for chunk in chunks for i, _, _ in chunk)
        assert indices == list(range(6))

    def test_same_subspace_lands_in_same_chunk(self):
        # 3 tasks per subspace (across 2 queries x ... ) stay together
        # while the target chunk size allows.
        chunks = self._make([(0, 1), (1, 2)], ["FTPM"])
        for chunk in chunks:
            assert len({q.subspace for _, q, _ in chunk}) == 1

    def test_variants_share_their_query_subspace_chunk(self):
        # 16 tasks / 2 workers -> chunk target 2: the two variant-tasks
        # of the lone (0, 2) query target the same projection cache and
        # ride the same chunk (affinity groups span variants).
        chunks = self._make([(0, 2)] + [(1, 2)] * 7, ["FTPM", "RTFM"])
        lone = [c for c in chunks if any(q.subspace == (0, 2) for _, q, _ in c)]
        assert len(lone) == 1
        assert sorted(v for _, _, v in lone[0]) == ["FTPM", "RTFM"]

    def test_indices_follow_serial_iteration_order(self):
        from repro.data.workload import Query
        from repro.parallel.engine import _affinity_chunks
        from repro.skypeer.variants import Variant

        queries = [Query(subspace=(0, 1), initiator=0), Query(subspace=(1, 2), initiator=0)]
        variants = [Variant.FTPM, Variant.RTFM]
        chunks = _affinity_chunks(queries, variants, workers=2)
        expected = {}
        index = 0
        for v in variants:
            for q in queries:
                expected[index] = (q.subspace, v.value)
                index += 1
        for chunk in chunks:
            for i, q, value in chunk:
                assert expected[i] == (q.subspace, value)

    def test_oversized_groups_split(self):
        chunks = self._make([(0, 1)] * 40, ["FTPM"])
        assert len(chunks) > 1
        assert sum(len(c) for c in chunks) == 40


class TestPersistentEngine:
    def test_get_engine_reuses_instance(self):
        from repro.parallel import get_engine, shutdown_engines

        try:
            a = get_engine(2)
            b = get_engine(2)
            assert a is b
            assert not a.closed
        finally:
            shutdown_engines()

    def test_get_engine_keyed_on_start_method(self, monkeypatch):
        from repro.parallel import get_engine, shutdown_engines

        try:
            monkeypatch.setenv("REPRO_MP_START", "fork")
            a = get_engine(2)
            monkeypatch.setenv("REPRO_MP_START", "spawn")
            b = get_engine(2)
            assert a is not b
            assert (a.start_method, b.start_method) == ("fork", "spawn")
        finally:
            shutdown_engines()

    def test_shutdown_closes_engines(self):
        from repro.parallel import get_engine, shutdown_engines

        engine = get_engine(2)
        shutdown_engines()
        assert engine.closed

    def test_closed_engine_rejects_work(self):
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(workers=1)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_queries(None, [], [])

    def test_stats_fields_populate(self):
        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel import ParallelEngine

        network = SuperPeerNetwork.build(
            n_peers=6, points_per_peer=10, dimensionality=3, seed=0
        )
        with ParallelEngine(workers=2) as engine:
            query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
            engine.run_queries(network, [query, query], ["FTPM", "RTFM"])
            stats = engine.stats.as_dict()
        assert stats["pool_startup_seconds"] > 0
        assert stats["publications"] == 1
        assert stats["tasks"] == 4
        assert stats["batches"] >= 1
        assert stats["submit_seconds"] > 0
        assert stats["dispatch_overhead_per_task_seconds"] > 0
        assert stats["attach_count"] >= 1

    def test_publication_refreshes_on_epoch_bump(self):
        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel import ParallelEngine
        from repro.skypeer.executor import execute_query
        from repro.skypeer.variants import Variant

        network = SuperPeerNetwork.build(
            n_peers=6, points_per_peer=10, dimensionality=3, seed=0
        )
        with ParallelEngine(workers=2) as engine:
            query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
            engine.run_queries(network, [query], ["FTPM"])
            assert engine.stats.publications == 1
            network.preprocess()  # bumps the epoch: stores were rebuilt
            (pooled,) = engine.run_queries(network, [query], [Variant.FTPM])[Variant.FTPM]
            # The same publication, every slot rewritten.
            assert engine.stats.publications == 1
            assert engine.stats.full_republishes == 1
            assert engine.stats.republished_bytes == sum(
                network.store_of(sp).nbytes for sp in network.superpeers
            )
            assert pooled.result_ids == execute_query(network, query, Variant.FTPM).result_ids

    def test_a_sync_leaves_the_handed_out_manifest_intact(self):
        """A spec handed to workers shares its publication's manifest, and
        a sync swaps in a new one instead of editing it, so a spec being
        pickled while an update lands cannot tear."""
        import copy

        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.p2p.workload import fresh_points
        from repro.parallel import ParallelEngine

        network = SuperPeerNetwork.build(
            n_peers=12, n_superpeers=3, points_per_peer=10, dimensionality=3, seed=0
        )
        query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
        with ParallelEngine(workers=1) as engine:
            engine.run_queries(network, [query], ["FTPM"])
            (publication,) = engine._publications.values()
            spec = publication.spec
            assert spec["manifest"] is publication.shared.manifest
            handed_out = copy.deepcopy(spec["manifest"])
            engine.apply_update(
                network, "insert", peer_id=0, points=fresh_points(network, 2, seed=1)
            )
            assert spec["manifest"] == handed_out
            assert publication.spec["manifest"] is publication.shared.manifest
            assert publication.spec["manifest"]["epoch"] == network.epoch


def _vmrss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="VmRSS needs Linux /proc"
)
class TestWorkerMemory:
    def test_cycling_every_subspace_keeps_worker_rss_flat(self):
        """A worker retains nothing per subspace beyond its capped scan
        memo (store positions only): after all 154 subspaces of d = 8
        its resident set is where the first query left it.  (A per-store
        projection cache put +20 % on this network, +45 % on one three
        times the size.)"""
        from itertools import combinations

        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel import ParallelEngine
        from repro.skypeer.variants import Variant

        # A spawned worker, so pytest's own heap does not dilute the
        # measurement.
        network = SuperPeerNetwork.build(
            n_peers=100, points_per_peer=100, dimensionality=8, seed=3
        )
        initiator = network.topology.superpeer_ids[0]
        subspaces = [c for k in (2, 3, 4) for c in combinations(range(8), k)]
        # The engine's workers run the sorted scan, and a store caches
        # nothing per subspace.
        with ParallelEngine(workers=1, mp_start="spawn") as engine:
            (pid,) = engine._pool._processes
            first = [Query(subspace=subspaces[0], initiator=initiator)]
            engine.run_queries(network, first, [Variant.FTPM])
            after_first = _vmrss_kb(pid)
            cycle = [Query(subspace=s, initiator=initiator) for s in subspaces]
            engine.run_queries(network, cycle, [Variant.FTPM])
            after_cycle = _vmrss_kb(pid)
        assert after_cycle <= 1.10 * after_first
