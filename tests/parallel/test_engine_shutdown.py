"""Teardown hardening: shutdown is idempotent, thread-safe and leak-free.

The serving gateway drives one shared engine from several executor
threads and closes it while work may still be in flight; these tests
pin down the contract that makes that safe: a second ``close()`` or
``shutdown_engines()`` never raises, a close racing concurrent callers
runs its teardown exactly once, a publish racing a close either lands
before the drain or raises (never leaks a segment afterwards), and no
``repro-shm-*`` segment survives any of it.
"""

from __future__ import annotations

import glob
import os
import tempfile
import threading

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel import ParallelEngine, get_engine, shutdown_engines
from repro.parallel.engine import _ENGINES
from repro.skypeer.variants import Variant
from tests.parallel.pooled import pooled_runs


def _network(seed: int = 13, d: int = 4) -> SuperPeerNetwork:
    rng = np.random.default_rng(seed)
    topo = Topology.generate(n_peers=9, n_superpeers=3, degree=3.0, seed=seed)
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((12, d)), np.arange(next_id, next_id + 12)
            )
            next_id += 12
    return SuperPeerNetwork.from_partitions(topo, partitions)


def _segments() -> list[str]:
    return [
        path
        for directory in ("/dev/shm", tempfile.gettempdir())
        for path in glob.glob(os.path.join(directory, "repro-shm-*"))
    ]


class TestIdempotentClose:
    def test_double_close_is_silent(self):
        engine = ParallelEngine(2)
        engine.close()
        engine.close()
        assert engine.closed

    def test_double_shutdown_engines_is_silent(self):
        get_engine(2)
        shutdown_engines()
        shutdown_engines()  # registry already empty: no-op, no raise
        assert _ENGINES == {}

    def test_close_after_use_unlinks_segments(self):
        before = set(_segments())
        network = _network()
        engine = ParallelEngine(2)
        query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
        engine.run_query(network, query, Variant.FTPM)
        assert engine.published_segments()
        engine.close()
        engine.close()
        assert engine.published_segments() == []
        assert set(_segments()) <= before

    def test_run_queries_after_close_raises_cleanly(self):
        network = _network()
        engine = ParallelEngine(2)
        engine.close()
        query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_query(network, query, Variant.FTPM)


class TestConcurrentTeardown:
    def test_concurrent_close_runs_teardown_once(self):
        engine = ParallelEngine(2)
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def close():
            try:
                barrier.wait(timeout=10.0)
                engine.close()
            except BaseException as exc:  # noqa: BLE001 - collect everything
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        assert engine.closed

    def test_publish_racing_close_never_leaks(self):
        """Threads publishing while another closes: every outcome is clean.

        A publish either lands before the drain (its segment is
        withdrawn by close) or observes the closed flag and raises;
        either way no ``repro-shm`` segment survives.
        """
        before = set(_segments())
        for attempt in range(3):
            network = _network(seed=50 + attempt)
            engine = ParallelEngine(2)
            unexpected: list[BaseException] = []
            barrier = threading.Barrier(3)

            def publish():
                try:
                    barrier.wait(timeout=10.0)
                    engine._publish(network)
                except RuntimeError as exc:
                    if "closed" not in str(exc):
                        unexpected.append(exc)
                except BaseException as exc:  # noqa: BLE001
                    unexpected.append(exc)

            def close():
                try:
                    barrier.wait(timeout=10.0)
                    engine.close()
                except BaseException as exc:  # noqa: BLE001
                    unexpected.append(exc)

            threads = [
                threading.Thread(target=publish),
                threading.Thread(target=publish),
                threading.Thread(target=close),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            engine.close()  # close may have lost the race to a publish
            assert unexpected == []
            assert engine.published_segments() == []
        assert set(_segments()) <= before

    def test_shutdown_with_inflight_queries_completes_them(self):
        """close() waits for the pool: in-flight futures finish, then drain."""
        before = set(_segments())
        network = _network()
        engine = ParallelEngine(2)
        queries = [
            Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0]),
            Query(subspace=(1, 3), initiator=network.topology.superpeer_ids[0]),
        ]
        done = threading.Event()
        results: list = []
        errors: list[BaseException] = []

        def work():
            try:
                results.append(
                    pooled_runs(engine, network, queries, [Variant.FTPM, Variant.RTPM])
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        worker = threading.Thread(target=work)
        worker.start()
        done.wait(timeout=60.0)  # ProcessPoolExecutor waits for running work
        engine.close()
        worker.join(timeout=60.0)
        assert errors == []
        assert len(results) == 1
        assert engine.published_segments() == []
        assert set(_segments()) <= before


class TestSharedRegistry:
    def test_get_engine_after_shutdown_builds_a_fresh_one(self):
        first = get_engine(2)
        shutdown_engines()
        assert first.closed
        second = get_engine(2)
        try:
            assert second is not first
            assert not second.closed
        finally:
            shutdown_engines()

    def test_shutdown_closes_all_even_when_one_raises(self, monkeypatch):
        a = get_engine(2)
        # register a booby-trapped second engine under a fake key
        b = ParallelEngine(2)
        calls: list[str] = []
        original = ParallelEngine.close

        def exploding_close(self):
            if self is a and not calls:
                calls.append("boom")
                raise OSError("injected close failure")
            return original(self)

        monkeypatch.setattr(ParallelEngine, "close", exploding_close)
        _ENGINES["fake-key"] = b
        with pytest.raises(OSError, match="injected"):
            shutdown_engines()
        # the failing engine did not strand the other one
        assert b.closed
        assert _ENGINES == {}
        monkeypatch.undo()
        a.close()


class TestEpochGateRaces:
    """Updates racing fan-outs: old epoch or new, never a torn mix."""

    @staticmethod
    def _snapshot(store) -> tuple:
        return (
            store.points.ids.tobytes(),
            store.points.values.tobytes(),
            store.f.tobytes(),
        )

    def test_apply_update_racing_run_queries_never_tears(self):
        from repro.p2p.workload import fresh_points
        from repro.skypeer.executor import execute_query

        network = _network(seed=31)
        query = Query(subspace=(0, 1, 2), initiator=network.topology.superpeer_ids[0])
        with ParallelEngine(2) as engine:
            engine.run_query(network, query, Variant.FTPM)
            # Every answer a reader may legally observe: the pre-update
            # skyline plus the one after each applied update.
            legal = {self._snapshot(execute_query(network, query, Variant.FTPM).result)}
            observed: list[tuple] = []
            errors: list[Exception] = []
            lock = threading.Lock()

            def reader():
                for _ in range(8):
                    try:
                        run = engine.run_query(network, query, Variant.FTPM)
                        snap = self._snapshot(run.result)
                        with lock:
                            observed.append(snap)
                    except Exception as exc:  # pragma: no cover - fail loudly
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            peer_id = sorted(network.peers)[0]
            for i in range(4):
                engine.apply_update(
                    network, "insert", peer_id=peer_id,
                    points=fresh_points(network, 2, seed=50 + i),
                )
                # The write gate has drained: the network is quiescent,
                # so a serial read here is race-free.
                legal.add(
                    self._snapshot(execute_query(network, query, Variant.FTPM).result)
                )
            for thread in threads:
                thread.join()
            assert not errors
            assert observed
            torn = [snap for snap in observed if snap not in legal]
            assert torn == [], f"{len(torn)} torn responses"
            assert engine.stats.updates_applied == 4
        assert [s for s in _segments() if f"{os.getpid():x}" in s] == []

    def test_apply_update_after_close_raises_cleanly(self):
        from repro.p2p.workload import fresh_points

        network = _network(seed=32)
        engine = ParallelEngine(2)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.apply_update(
                network, "insert", peer_id=sorted(network.peers)[0],
                points=fresh_points(network, 1, seed=1),
            )

    def test_apply_update_racing_close_applies_or_raises(self):
        from repro.p2p.workload import fresh_points

        network = _network(seed=33)
        query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
        engine = ParallelEngine(2)
        engine.run_query(network, query, Variant.FTPM)
        outcomes: list[str] = []

        def updater():
            try:
                engine.apply_update(
                    network, "insert", peer_id=sorted(network.peers)[0],
                    points=fresh_points(network, 1, seed=2),
                )
                outcomes.append("applied")
            except RuntimeError:
                outcomes.append("refused")

        thread = threading.Thread(target=updater)
        thread.start()
        engine.close()
        thread.join()
        assert outcomes and outcomes[0] in ("applied", "refused")
        assert engine.closed
        assert [s for s in _segments() if f"{os.getpid():x}" in s] == []
