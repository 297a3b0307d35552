"""Unit tests for the pool-engine knobs and its one query entry point."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.parallel import resolve_workers, start_method
from repro.skypeer.variants import Variant


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Every test starts with no start-method override."""
    monkeypatch.delenv("REPRO_MP_START", raising=False)


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

    def test_no_environment_variable_sets_the_count(self, monkeypatch):
        """No ambient worker count: ``REPRO_WORKERS`` is not read."""
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 1
        assert resolve_workers(2) == 2


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


class TestRunQuery:
    """One query under one variant is one pool task, and its execution
    is the serial executor's on every deterministic field."""

    @pytest.fixture(scope="class")
    def network(self):
        from repro.p2p.network import SuperPeerNetwork

        return SuperPeerNetwork.build(
            n_peers=8, points_per_peer=10, dimensionality=4, seed=3
        )

    @pytest.fixture(scope="class")
    def engine(self):
        from repro.parallel import ParallelEngine

        with ParallelEngine(workers=1) as engine:
            yield engine

    @pytest.mark.parametrize("variant", [v.value for v in Variant])
    def test_matches_the_serial_executor(self, network, engine, variant):
        from repro.data.workload import Query
        from repro.skypeer.executor import execute_query

        query = Query(subspace=(0, 2, 3), initiator=network.topology.superpeer_ids[-1])
        serial = execute_query(network, query, Variant.parse(variant))
        tasks, batches = engine.stats.tasks, engine.stats.batches
        pooled = engine.run_query(network, query, variant)
        assert (engine.stats.tasks, engine.stats.batches) == (tasks + 1, batches + 1)
        assert pooled.variant == serial.variant
        assert pooled.result_ids == serial.result_ids
        assert np.array_equal(pooled.result.points.values, serial.result.points.values)
        for field in (
            "volume_bytes",
            "message_count",
            "comparisons",
            "initial_threshold",
            "local_result_points",
            "point_hops",
            "critical_path_examined",
        ):
            assert getattr(pooled, field) == getattr(serial, field), field


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
            engine.run_query(None, None, "FTPM")

    def test_stats_fields_populate(self):
        from repro.data.workload import Query
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel import ParallelEngine

        network = SuperPeerNetwork.build(
            n_peers=6, points_per_peer=10, dimensionality=3, seed=0
        )
        with ParallelEngine(workers=2) as engine:
            query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
            for variant in ("FTPM", "RTFM"):
                engine.run_query(network, query, variant)
                engine.run_query(network, query, variant)
            stats = engine.stats.as_dict()
        assert stats["pool_startup_seconds"] > 0
        assert stats["publications"] == 1
        assert stats["tasks"] == 4
        assert stats["batches"] == 4
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
            engine.run_query(network, query, "FTPM")
            assert engine.stats.publications == 1
            network.preprocess()  # bumps the epoch: stores were rebuilt
            pooled = engine.run_query(network, query, Variant.FTPM)
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
            engine.run_query(network, query, "FTPM")
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
            queries = [Query(subspace=s, initiator=initiator) for s in subspaces]
            engine.run_query(network, queries[0], Variant.FTPM)
            after_first = _vmrss_kb(pid)
            for query in queries:
                engine.run_query(network, query, Variant.FTPM)
            after_cycle = _vmrss_kb(pid)
        assert after_cycle <= 1.10 * after_first
