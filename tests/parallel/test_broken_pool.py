"""A dead pool worker costs one retry, not the engine.

``concurrent.futures`` marks a whole pool broken once any worker dies,
and every later submit to it raises ``BrokenProcessPool``.  The engine
replaces such a pool once per fan-out and resubmits the batches; the new
workers attach the publications that are still live by their tokens, so
the rerun answers as the serial executor does.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.parallel import ParallelEngine
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

VARIANTS = [Variant.FTPM, Variant.RTFM, Variant.NAIVE]


@pytest.fixture(scope="module")
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(n_peers=24, points_per_peer=12, dimensionality=4, seed=5)


@pytest.fixture(scope="module")
def queries(network) -> list[Query]:
    sp = network.topology.superpeer_ids
    return [
        Query(subspace=(0, 2), initiator=sp[0]),
        Query(subspace=(1, 3), initiator=sp[-1]),
        Query(subspace=(0, 1, 2, 3), initiator=sp[0]),
    ]


def _fingerprint(run) -> tuple:
    return (
        run.result.points.ids.tolist(),
        run.result.f.tolist(),
        run.volume_bytes,
        run.message_count,
        run.comparisons,
        run.point_hops,
        run.local_result_points,
    )


def _kill_a_worker(engine: ParallelEngine) -> int:
    pid = next(iter(engine._pool._processes))
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:  # reaped by the pool's manager
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        time.sleep(0.01)
    return pid


def test_a_killed_worker_between_two_calls(network, queries):
    serial = {v: [_fingerprint(execute_query(network, q, v)) for q in queries] for v in VARIANTS}
    with ParallelEngine(2) as engine:
        first = engine.run_queries(network, queries, VARIANTS)
        assert {v: list(map(_fingerprint, runs)) for v, runs in first.items()} == serial
        token = engine._publications[id(network)].token
        killed = _kill_a_worker(engine)
        second = engine.run_queries(network, queries, VARIANTS)
        assert {v: list(map(_fingerprint, runs)) for v, runs in second.items()} == serial
        assert engine.stats.pool_replacements == 1
        assert killed not in engine._pool._processes
        # The live publication was kept and attached again, not redone.
        assert engine._publications[id(network)].token == token
        assert engine.stats.publications == 1
        # The replacement pool serves the next call as usual.
        third = engine.run_queries(network, queries, VARIANTS)
        assert {v: list(map(_fingerprint, runs)) for v, runs in third.items()} == serial
        assert engine.stats.pool_replacements == 1


def test_concurrent_fan_outs_replace_a_broken_pool_once(network, queries):
    """Gateway dispatchers share one engine: every thread that meets the
    broken pool retries, and exactly one of them replaces it."""
    serial = [_fingerprint(execute_query(network, q, Variant.FTPM)) for q in queries]
    results: dict[int, list] = {}
    with ParallelEngine(2) as engine:
        engine.run_queries(network, queries, [Variant.FTPM])
        _kill_a_worker(engine)

        def call(slot: int) -> None:
            runs = engine.run_queries(network, queries, [Variant.FTPM])[Variant.FTPM]
            results[slot] = list(map(_fingerprint, runs))

        threads = [threading.Thread(target=call, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {slot: serial for slot in range(6)}
        assert engine.stats.pool_replacements == 1


def test_preprocessing_survives_a_killed_worker():
    serial = SuperPeerNetwork.build(n_peers=24, points_per_peer=12, dimensionality=4, seed=9)
    with ParallelEngine(2) as engine:
        _kill_a_worker(engine)
        pooled = SuperPeerNetwork.build(
            n_peers=24, points_per_peer=12, dimensionality=4, seed=9, engine=engine
        )
        assert engine.stats.pool_replacements == 1
    for sp in serial.topology.superpeer_ids:
        assert np.array_equal(pooled.store_of(sp).points.ids, serial.store_of(sp).points.ids)
        assert np.array_equal(pooled.store_of(sp).f, serial.store_of(sp).f)


def test_a_second_break_propagates_and_the_next_call_recovers(network, queries):
    """A batch that kills its own worker breaks the replacement too: the
    second ``BrokenProcessPool`` reaches the caller (the gateway answers
    it as a backend error), and the call after it starts a fresh pool."""
    with ParallelEngine(1) as engine:
        with pytest.raises(BrokenProcessPool):
            engine._fan_out(os._exit, [(1,)])
        assert engine.stats.pool_replacements == 1
        runs = engine.run_queries(network, queries, [Variant.FTPM])
        assert engine.stats.pool_replacements == 2
        expected = [_fingerprint(execute_query(network, q, Variant.FTPM)) for q in queries]
        assert list(map(_fingerprint, runs[Variant.FTPM])) == expected
