"""Fault injection: every failure ends in a clean frame or a drop, never a hang.

Each scenario runs under ``asyncio.wait_for`` so a regression that
introduces a hang fails fast instead of wedging the suite.  The four
injected faults are the ones the gateway was designed around:

* a client disconnecting mid-frame,
* a slow-loris client dangling half a frame past the read deadline,
* the backend worker pool dying out from under an admitted query,
* shutdown arriving while requests are still queued or in flight.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs.runtime import observed
from repro.p2p.transport import encode_frame, read_frame
from repro.serving.client import GatewayClient
from repro.serving.gateway import GatewayConfig, QueryGateway
from repro.serving.proto import (
    ERROR_BACKEND,
    ERROR_REQUEST,
    SHED_SHUTDOWN,
    decode_payload,
    encode_payload,
)
from repro.skypeer.executor import execute_query

from .conftest import run

TIMEOUT = 20.0


def bounded(coro):
    return asyncio.wait_for(coro, timeout=TIMEOUT)


def _die(*_args):
    """A pool batch whose worker process dies at once."""
    os._exit(1)


class TestClientFaults:
    def test_mid_frame_disconnect_is_counted_and_contained(self, network):
        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(host, port)
                frame = encode_frame(encode_payload({"op": "ping", "id": 1}))
                writer.write(frame[: len(frame) - 3])  # cut inside the payload
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.1)
                # the gateway is unharmed: a fresh client gets served
                async with await GatewayClient.connect(host, port) as client:
                    good = await client.query([0, 1])
            return good, gateway.stats

        good, stats = run(bounded(scenario()))
        assert good.ok
        assert stats.midframe_disconnects == 1

    def test_slow_loris_client_is_dropped(self, network):
        config = GatewayConfig(request_timeout=0.2)

        async def scenario():
            async with QueryGateway(network, config=config) as gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(host, port)
                frame = encode_frame(encode_payload({"op": "ping", "id": 1}))
                writer.write(frame[:3])  # dangle a partial frame forever
                await writer.drain()
                # the gateway must hang up on us, not wait indefinitely
                eof = await asyncio.wait_for(reader.read(), timeout=TIMEOUT)
                writer.close()
                await writer.wait_closed()
                # and keep serving well-behaved clients
                async with await GatewayClient.connect(host, port) as client:
                    good = await client.query([0, 1])
            return eof, good, gateway.stats

        eof, good, stats = run(bounded(scenario()))
        assert eof == b""  # server closed the connection
        assert good.ok
        assert stats.slow_client_drops == 1

    def test_waiting_on_a_slow_response_is_not_slow_loris(self, network):
        """An idle-but-waiting client must NOT be dropped by the read deadline."""
        release = threading.Event()

        def dispatch(net, query, variant):
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        config = GatewayConfig(request_timeout=0.2)

        async def scenario():
            gateway = QueryGateway(network, config=config, dispatch=dispatch)
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    pending = asyncio.ensure_future(client.query([0, 1]))
                    await asyncio.sleep(1.0)  # 5x the read deadline
                    release.set()
                    response = await pending
            return response, gateway.stats

        response, stats = run(bounded(scenario()))
        assert response.ok
        assert stats.slow_client_drops == 0

    def test_all_waiters_disconnecting_abandons_the_job(self, network):
        """A queued job whose clients all left is reaped, not executed."""
        calls = []
        release = threading.Event()

        def dispatch(net, query, variant):
            calls.append(tuple(query.subspace))
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            gateway = QueryGateway(
                network,
                config=GatewayConfig(dispatchers=1),
                dispatch=dispatch,
            )
            async with gateway:
                host, port = gateway.address
                blocker = await GatewayClient.connect(host, port)
                hold = asyncio.ensure_future(blocker.query([0]))
                await asyncio.sleep(0.1)  # dispatcher now blocked on [0]
                leaver = await GatewayClient.connect(host, port)
                doomed = asyncio.ensure_future(leaver.query([1]))
                await asyncio.sleep(0.1)  # [1] sits in the queue
                await leaver.close()  # ...and its only waiter leaves
                doomed.cancel()
                await asyncio.sleep(0.1)
                release.set()
                held = await hold
                await blocker.close()
            return held, gateway.stats

        held, stats = run(bounded(scenario()))
        assert held.ok
        assert calls == [(0,)]  # the abandoned (1,) job never executed
        assert stats.cancelled_jobs == 1

    def test_waiter_leaving_inside_the_executor_queue_is_a_cancellation(self, network):
        """The last waiter leaves *after* the dispatch loop's check, while
        the job waits for an executor thread: the executor's own
        last-moment check abandons it — a cancellation, not a backend
        error."""
        calls = []
        release = threading.Event()

        def dispatch(net, query, variant):
            calls.append(tuple(query.subspace))
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            # Two dispatcher tasks but one thread: the second job passes
            # the loop's abandoned check and queues inside the executor.
            executor = ThreadPoolExecutor(max_workers=1)
            gateway = QueryGateway(
                network,
                config=GatewayConfig(dispatchers=2),
                dispatch=dispatch,
                executor=executor,
            )
            try:
                with observed() as (_tracer, metrics):
                    async with gateway:
                        host, port = gateway.address
                        blocker = await GatewayClient.connect(host, port)
                        hold = asyncio.ensure_future(blocker.query([0]))
                        await asyncio.sleep(0.1)  # the one thread now blocked on [0]
                        leaver = await GatewayClient.connect(host, port)
                        doomed = asyncio.ensure_future(leaver.query([1]))
                        await asyncio.sleep(0.1)  # [1] handed to the executor
                        assert gateway.queue_depth() == 0
                        await leaver.close()
                        doomed.cancel()
                        await asyncio.sleep(0.1)
                        release.set()
                        held = await hold
                        await asyncio.sleep(0.1)  # let the loop reap [1]
                        await blocker.close()
            finally:
                executor.shutdown(wait=True)
            return held, gateway.stats, metrics

        held, stats, metrics = run(bounded(scenario()))
        assert held.ok
        assert calls == [(0,)]
        assert stats.cancelled_jobs == 1
        assert stats.backend_errors == 0
        assert stats.executed == 1
        assert metrics.total("serving.cancelled_jobs") == 1
        assert metrics.total("serving.backend_errors") == 0


class TestBackendFaults:
    def test_backend_exception_becomes_an_error_frame(self, network):
        def dispatch(net, query, variant):
            raise RuntimeError("backend worker died mid-query")

        async def scenario():
            gateway = QueryGateway(network, dispatch=dispatch)
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    return await client.query([0, 1]), gateway.stats

        response, stats = run(bounded(scenario()))
        assert response.status == "error"
        assert response.payload["code"] == ERROR_BACKEND
        assert "backend worker died" in response.payload["error"]
        assert stats.backend_errors == 1

    @staticmethod
    def _query_through(engine, network):
        async def scenario():
            gateway = QueryGateway(network, engine=engine, backend="engine")
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    return await client.query([0, 1]), gateway.stats

        return run(bounded(scenario()))

    def test_real_worker_death_surfaces_as_error_not_hang(self, network, monkeypatch):
        """Kill the engine's pool workers, and let every batch kill its
        worker too, so the pool the engine replaces the broken one with
        breaks as well: the query gets an error frame."""
        import repro.parallel.engine as engine_module
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(2)
        try:
            for pid in list(engine._pool._processes):
                os.kill(pid, signal.SIGKILL)
            monkeypatch.setattr(engine_module, "_run_query_batch", _die)
            response, stats = self._query_through(engine, network)
            assert response.status == "error"
            assert response.payload["code"] == ERROR_BACKEND
            assert response.payload["error"].startswith("BrokenProcessPool: ")
            assert stats.backend_errors == 1
            assert engine.stats.pool_replacements == 1
        finally:
            engine.close()
            engine.close()  # idempotent even after a pool break
        assert engine.published_segments() == []

    def test_one_dead_pool_is_replaced_and_the_query_answered(self, network):
        """Kill the engine's pool workers: the engine replaces the
        broken pool once and the query is answered, not refused."""
        from repro.parallel import ParallelEngine

        engine = ParallelEngine(2)
        try:
            for pid in list(engine._pool._processes):
                os.kill(pid, signal.SIGKILL)
            response, stats = self._query_through(engine, network)
            assert response.status == "ok"
            assert stats.backend_errors == 0
            assert engine.stats.pool_replacements == 1
        finally:
            engine.close()
        assert engine.published_segments() == []


class TestErrorCodes:
    """A reply to what the client sent wrong carries ``code: request``;
    the backend failures above carry ``backend``."""

    def test_malformed_requests_are_request_errors(self, network):
        async def scenario():
            async with QueryGateway(network) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    replies = [
                        await client.query([0, 99]),
                        await client.query([]),
                        await client.request({"op": "shuffle"}),
                        await client.update("insert", points="nope"),
                    ]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(b"{not json"))
                await writer.drain()
                undecodable = decode_payload(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
            return [*(r.payload for r in replies), undecodable], gateway.stats

        replies, stats = run(bounded(scenario()))
        for reply in replies:
            assert reply["status"] == "error", reply
            assert reply["code"] == ERROR_REQUEST, reply
        assert stats.protocol_errors == len(replies)
        assert stats.backend_errors == 0


class TestShutdownFaults:
    def test_shutdown_with_queued_requests_sheds_cleanly(self, network):
        release = threading.Event()

        def dispatch(net, query, variant):
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            gateway = QueryGateway(
                network,
                config=GatewayConfig(dispatchers=1, shutdown_timeout=0.5),
                dispatch=dispatch,
            )
            host, port = await gateway.start()
            client = await GatewayClient.connect(host, port)
            running = asyncio.ensure_future(client.query([0]))
            await asyncio.sleep(0.1)  # dispatcher blocked on [0]
            queued = [asyncio.ensure_future(client.query([d])) for d in (1, 2, 3)]
            await asyncio.sleep(0.1)  # three jobs sit in the queue
            closer = asyncio.ensure_future(gateway.close())
            await asyncio.sleep(0.1)
            release.set()  # let the blocked dispatch finish during close
            await closer
            responses = await asyncio.gather(
                running, *queued, return_exceptions=True
            )
            await client.close()
            return responses, gateway.stats

        responses, stats = run(bounded(scenario()))
        # every request resolved: a response frame or a clean connection error
        for response in responses:
            assert not isinstance(response, asyncio.TimeoutError)
        frames = [r for r in responses if not isinstance(r, Exception)]
        shed = [r for r in frames if r.status == "shed"]
        assert len(shed) >= 3  # the queued jobs were shed, not executed
        assert all(r.shed_reason == SHED_SHUTDOWN for r in shed)
        assert stats.shed_shutdown >= 3

    def test_double_close_and_close_without_start(self, network):
        async def scenario():
            gateway = QueryGateway(network)
            await gateway.close()  # never started: still clean
            await gateway.close()
            started = QueryGateway(network)
            await started.start()
            await started.close()
            await started.close()
            return gateway.closed, started.closed

        a, b = run(bounded(scenario()))
        assert a and b

    def test_requests_after_close_are_refused_cleanly(self, network):
        async def scenario():
            gateway = QueryGateway(network)
            host, port = await gateway.start()
            client = await GatewayClient.connect(host, port)
            ok = await client.query([0, 1])
            await gateway.close()
            try:
                late = await bounded(client.query([0, 1]))
            except (ConnectionError, OSError) as exc:
                late = exc
            await client.close()
            return ok, late

        ok, late = run(bounded(scenario()))
        assert ok.ok
        # a closed gateway either sheds or the connection is gone —
        # both are clean, immediate outcomes
        if not isinstance(late, Exception):
            assert late.status == "shed"

    def test_no_lingering_tasks_or_sockets_after_close(self, network):
        async def scenario():
            gateway = QueryGateway(network, config=GatewayConfig(dispatchers=3))
            host, port = await gateway.start()
            clients = [await GatewayClient.connect(host, port) for _ in range(4)]
            await asyncio.gather(*[c.query([0, 1]) for c in clients])
            await gateway.close()
            for client in clients:
                await client.close()
            await asyncio.sleep(0)
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            return leftovers, gateway._connections

        # no bounded() wrapper: wait_for's own task would appear in
        # all_tasks() and spoil the leftover check
        leftovers, connections = run(scenario())
        assert leftovers == []
        assert connections == set()


class TestEpochRaces:
    """Live updates racing coalesced queries: old epoch or new, never torn."""

    def test_update_racing_coalesced_queries_never_torn(self):
        import json

        from repro.data.workload import Query
        from repro.parallel import ParallelEngine
        from repro.serving.proto import result_payload
        from repro.skypeer.variants import Variant

        from .conftest import build_network

        network = build_network(seed=23)
        engine = ParallelEngine(2)
        subspace = (0, 1, 2)

        def serial_snapshot() -> str:
            # Only called while the network is quiescent (the update's
            # response frame has arrived, the next one is not yet sent),
            # so this serial read cannot race a mutation.
            query = Query(
                subspace=subspace, initiator=network.topology.superpeer_ids[0]
            )
            store = execute_query(network, query, Variant.FTPM).result
            return json.dumps(result_payload(store), sort_keys=True)

        async def scenario():
            legal: set[str] = set()
            responses = []
            config = GatewayConfig(dispatchers=2)
            async with QueryGateway(network, engine=engine, config=config) as gateway:
                host, port = gateway.address
                clients = [
                    await GatewayClient.connect(host, port) for _ in range(3)
                ]
                warm = await clients[0].query(subspace)
                assert warm.ok
                legal.add(serial_snapshot())
                peer_id = sorted(network.peers)[0]
                for round_no in range(3):
                    # Queries take off first, then the update lands while
                    # they are mid-coalesce/mid-dispatch.
                    tasks = [
                        asyncio.ensure_future(client.query(subspace))
                        for client in clients
                        for _ in range(2)
                    ]
                    update = await clients[0].update(
                        "insert", peer_id=peer_id,
                        points={"random": 2, "seed": round_no},
                    )
                    assert update.ok, update.payload
                    legal.add(serial_snapshot())
                    responses.extend(await asyncio.gather(*tasks))
                for client in clients:
                    await client.close()
            return legal, responses, gateway.stats

        try:
            legal, responses, stats = run(bounded(scenario()))
        finally:
            engine.close()
        assert stats.updates_applied == 3
        for response in responses:
            assert response.ok, response.payload
            snapshot = json.dumps(response.payload["result"], sort_keys=True)
            assert snapshot in legal, "torn response: matches no epoch"

    def test_update_during_shutdown_is_shed_not_applied(self, network):
        epoch_before = network.epoch

        async def scenario():
            gateway = QueryGateway(network, config=GatewayConfig())
            written: list[dict] = []

            async def capture(conn, payload):
                written.append(payload)

            gateway._write = capture
            gateway._closing = True  # shutdown racing the update frame
            await gateway._serve_update(
                None,
                {
                    "kind": "insert",
                    "peer_id": sorted(network.peers)[0],
                    "points": {"random": 1, "seed": 0},
                },
                7,
            )
            return written, gateway.stats

        written, stats = run(bounded(scenario()))
        assert written == [{"status": "shed", "reason": SHED_SHUTDOWN, "id": 7}]
        assert stats.updates == 1
        assert stats.updates_applied == 0
        assert network.epoch == epoch_before  # the mutation never ran
