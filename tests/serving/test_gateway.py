"""Gateway behavior: config, admission, coalescing, stats, backends."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serving.client import GatewayClient
from repro.serving.gateway import GatewayConfig, QueryGateway
from repro.serving.proto import (
    ERROR_REQUEST,
    SHED_QUEUE_FULL,
    encode_payload,
    result_payload,
)
from repro.skypeer.executor import execute_query
from repro.data.workload import Query

from .conftest import run


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestGatewayConfig:
    def test_defaults_are_sane(self):
        config = GatewayConfig()
        assert config.max_pending >= 1
        assert config.dispatchers >= 1
        assert config.request_timeout > 0

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_pending=0)
        with pytest.raises(ValueError):
            GatewayConfig(dispatchers=0)
        with pytest.raises(ValueError):
            GatewayConfig(request_timeout=0.0)


# ----------------------------------------------------------------------
# request handling over real sockets
# ----------------------------------------------------------------------
class TestGatewayRequests:
    def test_ping_stats_and_unknown_op(self, network):
        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    pong = await client.ping()
                    stats = await client.stats()
                    bogus = await client.request({"op": "explode"})
            return pong, stats, bogus

        pong, stats, bogus = run(scenario())
        assert pong.payload["op"] == "pong"
        assert stats["requests"] >= 1
        assert bogus.status == "error" and "explode" in bogus.payload["error"]

    def test_malformed_subspace_is_an_error_not_a_drop(self, network):
        bad = [
            {"subspace": []},
            {"subspace": [99]},
            {"subspace": [0], "variant": "XXXX"},
            # not a string: each must get a reply, not a dead request task
            {"subspace": [0], "variant": 5},
            {"subspace": [0], "variant": None},
            {"subspace": [0], "variant": ["x"]},
            {"subspace": [float("inf")]},  # not a whole number
        ]

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    replies = [
                        await asyncio.wait_for(
                            client.request({"op": "query", **fields}), timeout=10.0
                        )
                        for fields in bad
                    ]
                    # connection still usable after the bad requests
                    good = await asyncio.wait_for(client.query([0, 1]), timeout=10.0)
            return replies, good, gateway.stats

        replies, good, stats = run(scenario())
        for reply in replies:
            assert reply.status == "error", reply.payload
            assert reply.payload["code"] == ERROR_REQUEST, reply.payload
            assert reply.payload["error"].startswith("bad query: "), reply.payload
        assert good.ok
        assert stats.protocol_errors == len(bad)

    def test_result_matches_serial_execution(self, network):
        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    return await client.query([0, 2], "FTPM")

        response = run(scenario())
        assert response.ok
        initiator = network.topology.superpeer_ids[0]
        serial = execute_query(
            network, Query(subspace=(0, 2), initiator=initiator), "FTPM"
        )
        assert response.payload["result"]["ids"] == serial.result.points.ids.tolist()

    def test_subspace_order_is_normalized_into_one_key(self, network):
        """[2, 0] and [0, 2] are the same query and must coalesce."""
        release = threading.Event()

        def dispatch(net, query, variant):
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            gateway = QueryGateway(
                network, config=GatewayConfig(dispatchers=1), dispatch=dispatch
            )
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    first = asyncio.ensure_future(client.query([2, 0]))
                    await asyncio.sleep(0.1)
                    second = asyncio.ensure_future(client.query([0, 2]))
                    await asyncio.sleep(0.1)
                    release.set()
                    a, b = await asyncio.gather(first, second)
            return a, b, gateway.stats

        a, b, stats = run(scenario())
        assert a.ok and b.ok
        assert stats.executed == 1
        assert stats.coalesce_hits == 1
        assert encode_payload(a.payload["result"]) == encode_payload(
            b.payload["result"]
        )


class TestAdmissionControl:
    def test_full_queue_sheds_explicitly(self, network):
        release = threading.Event()

        def dispatch(net, query, variant):
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            gateway = QueryGateway(
                network,
                config=GatewayConfig(max_pending=1, dispatchers=1),
                dispatch=dispatch,
            )
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    running = asyncio.ensure_future(client.query([0]))
                    await asyncio.sleep(0.1)  # dispatcher takes it, blocks
                    queued = asyncio.ensure_future(client.query([1]))
                    await asyncio.sleep(0.1)  # fills the 1-slot queue
                    shed = await client.query([2])
                    release.set()
                    ok_a, ok_b = await asyncio.gather(running, queued)
            return ok_a, ok_b, shed, gateway.stats

        ok_a, ok_b, shed, stats = run(scenario())
        assert ok_a.ok and ok_b.ok
        assert shed.status == "shed"
        assert shed.shed_reason == SHED_QUEUE_FULL
        assert stats.shed_queue_full == 1
        assert stats.queue_depth_peak == 1

    def test_coalesced_waiters_do_not_consume_queue_slots(self, network):
        release = threading.Event()

        def dispatch(net, query, variant):
            release.wait(timeout=10.0)
            return execute_query(net, query, variant).result

        async def scenario():
            gateway = QueryGateway(
                network,
                config=GatewayConfig(max_pending=1, dispatchers=1),
                dispatch=dispatch,
            )
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    first = asyncio.ensure_future(client.query([0]))
                    await asyncio.sleep(0.1)
                    # identical requests attach to the in-flight job
                    # instead of occupying the (full) queue
                    more = [asyncio.ensure_future(client.query([0])) for _ in range(5)]
                    await asyncio.sleep(0.1)
                    release.set()
                    responses = await asyncio.gather(first, *more)
            return responses, gateway.stats

        responses, stats = run(scenario())
        assert all(r.ok for r in responses)
        assert stats.coalesce_hits == 5
        assert stats.shed_queue_full == 0
        assert stats.executed == 1


class TestTwoStatsSurfaces:
    """The gateway counts what it did, the engine what reached the pool,
    and neither copies the other — on segments in either directory."""

    @pytest.mark.parametrize(
        "segment_home", ["dev-shm", "no-dev-shm", "small-dev-shm"], indirect=True
    )
    def test_engine_tasks_equal_gateway_executed(self, network, segment_home):
        import os

        from repro.parallel import ParallelEngine

        async def scenario(engine):
            gateway = QueryGateway(
                network,
                engine=engine,
                backend="engine",
                config=GatewayConfig(dispatchers=2),
            )
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    responses = await asyncio.gather(
                        *[client.query([0, 1]) for _ in range(4)]
                    )
                    reply = await client.request({"op": "stats"})
            return responses, reply.payload, gateway.stats

        with ParallelEngine(2) as engine:  # fresh: the gateway is its only caller
            responses, reply, stats = run(scenario(engine))
            segments = engine.published_segments()
            assert segments and {os.path.dirname(s) for s in segments} == {
                segment_home.directory
            }
            engine_stats = engine.stats.as_dict()
        serial = execute_query(
            network,
            Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0]),
            "FTPM",
        )
        expected = encode_payload(result_payload(serial.result))
        for response in responses:
            assert response.ok
            assert encode_payload(response.payload["result"]) == expected
        assert stats.coalesce_hits >= 1
        assert stats.executed + stats.coalesce_hits == 4
        assert engine_stats["tasks"] == stats.executed  # coalesced ones never got there
        assert reply["stats"] == stats.as_dict()
        assert reply["engine"]["tasks"] == stats.executed
        assert not [name for name in reply["engine"] if name.startswith("serve_")]
        assert segment_home.files() == []


class TestUpdateOp:
    """The ``update`` admin op: live mutations through the gateway."""

    def test_serial_backend_applies_insert_and_bumps_epoch(self):
        from .conftest import build_network

        network = build_network(seed=29)
        peer_id = sorted(network.peers)[0]
        size_before = len(network.peers[peer_id].data)
        epoch_before = network.epoch

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    rows = [[0.5] * network.dimensionality, [0.6] * network.dimensionality]
                    response = await client.update(
                        "insert", peer_id=peer_id, points=rows
                    )
            return response, gateway.stats

        response, stats = run(scenario())
        assert response.ok, response.payload
        report = response.payload["update"]
        assert report["kind"] == "insert"
        assert report["epoch"] == network.epoch == epoch_before + 1
        assert report["touched_superpeers"] == [
            network.topology.superpeer_of_peer(peer_id)
        ]
        assert report["republished_bytes"] == 0  # serial: nothing published
        assert len(network.peers[peer_id].data) == size_before + 2
        assert stats.updates == stats.updates_applied == 1

    def test_server_side_random_points_and_delete(self):
        from .conftest import build_network

        network = build_network(seed=31)
        peer_id = sorted(network.peers)[0]

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    inserted = await client.update(
                        "insert", peer_id=peer_id,
                        points={"random": 3, "seed": 5},
                    )
                    doomed = [int(i) for i in network.peers[peer_id].data.ids[:2]]
                    deleted = await client.update(
                        "delete", peer_id=peer_id, point_ids=doomed
                    )
            return inserted, deleted

        inserted, deleted = run(scenario())
        assert inserted.ok and deleted.ok
        assert deleted.payload["update"]["kind"] == "delete"

    def test_join_and_fail_round_trip(self):
        from .conftest import build_network

        network = build_network(seed=37)
        superpeer_id = sorted(network.superpeers)[0]
        peers_before = set(network.peers)

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    joined = await client.update(
                        "join", superpeer_id=superpeer_id,
                        points={"random": 4, "seed": 9},
                    )
                    new_peer = (set(network.peers) - peers_before).pop()
                    failed = await client.update("fail", peer_id=new_peer)
            return joined, failed

        joined, failed = run(scenario())
        assert joined.ok and failed.ok
        assert set(network.peers) == peers_before

    def test_malformed_updates_are_errors_not_mutations(self):
        from .conftest import build_network

        network = build_network(seed=41)
        epoch_before = network.epoch

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    bad_kind = await client.update("shuffle")
                    no_target = await client.update("insert", points=[[0.1, 0.2, 0.3, 0.4]])
                    bad_points = await client.update(
                        "insert", peer_id=sorted(network.peers)[0], points="nope"
                    )
                    unknown_peer = await client.update(
                        "insert", peer_id=10**6, points={"random": 1}
                    )
            return bad_kind, no_target, bad_points, unknown_peer, gateway.stats

        bad_kind, no_target, bad_points, unknown_peer, stats = run(scenario())
        for response in (bad_kind, no_target, bad_points):
            assert response.status == "error", response.payload
        assert unknown_peer.status == "error"
        assert network.epoch == epoch_before
        assert stats.updates == 4
        assert stats.updates_applied == 0

    def test_bad_point_batches_are_protocol_errors(self):
        """NaN/inf rows, a wrong row width, ids repeated within the batch
        and a server-drawn count past one frame's coordinate bytes are
        ``bad update`` responses that never reach the backend."""
        from tests.conftest import network_state

        from .conftest import build_network

        network = build_network(seed=43)
        peer_id = sorted(network.peers)[0]
        superpeer_id = sorted(network.superpeers)[0]
        d = network.dimensionality

        before = network_state(network)
        batches = [
            [[0.5] * (d - 1) + [float("nan")]],
            [[float("inf")] + [0.5] * (d - 1)],
            [[0.5] * (d + 1)],
            {"values": [[0.1] * d, [0.2] * d], "ids": [7000, 7000]},
            # more coordinate bytes than one frame carries
            {"random": 10**10},
        ]

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    responses = [
                        await asyncio.wait_for(
                            client.update("insert", peer_id=peer_id, points=batch),
                            timeout=10.0,
                        )
                        for batch in batches
                    ]
                    responses.append(
                        await asyncio.wait_for(
                            client.update(
                                "join", superpeer_id=superpeer_id, points=batches[0]
                            ),
                            timeout=10.0,
                        )
                    )
            return responses, gateway.stats

        responses, stats = run(scenario())
        for response in responses:
            assert response.status == "error", response.payload
            assert response.payload["error"].startswith("bad update: ")
        assert stats.protocol_errors == len(responses)
        assert stats.backend_errors == 0
        assert stats.updates_applied == 0
        assert network_state(network) == before

    def test_non_integer_fields_are_request_errors(self):
        """A fractional id or dimension, or ``true`` as a peer id, is a
        request error; none is truncated into a real target."""
        from tests.conftest import network_state

        from .conftest import build_network

        network = build_network(seed=43)
        point_id = int(network.peers[3].data.ids[0])
        before = network_state(network)

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    updates = [
                        await asyncio.wait_for(client.update(**fields), timeout=10.0)
                        for fields in (
                            {"kind": "delete", "peer_id": 3.9, "point_ids": [point_id + 0.7]},
                            {"kind": "insert", "peer_id": True, "points": {"random": 2}},
                        )
                    ]
                    query = await asyncio.wait_for(
                        client.request({"op": "query", "subspace": [0.9, 1.2]}), timeout=10.0
                    )
            return updates, query, gateway.stats

        updates, query, stats = run(scenario())
        for reply, prefix in [*((u, "bad update: ") for u in updates), (query, "bad query: ")]:
            assert reply.status == "error", reply.payload
            assert reply.payload["code"] == ERROR_REQUEST, reply.payload
            assert reply.payload["error"].startswith(prefix), reply.payload
            assert "must be an integer" in reply.payload["error"], reply.payload
        assert stats.protocol_errors == 3 and stats.updates_applied == 0
        assert network_state(network) == before

    def test_post_update_queries_do_not_coalesce_with_stale_jobs(self):
        from .conftest import build_network

        network = build_network(seed=43)

        async def scenario():
            async with QueryGateway(network, config=GatewayConfig()) as gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    first = await client.query([0, 1])
                    await client.update(
                        "insert", peer_id=sorted(network.peers)[0],
                        points={"random": 2, "seed": 3},
                    )
                    second = await client.query([0, 1])
            return first, second, gateway.stats

        first, second, stats = run(scenario())
        assert first.ok and second.ok
        # Distinct epochs => distinct coalescing keys => both executed.
        assert stats.executed == 2
        assert stats.coalesce_hits == 0

    @pytest.mark.parametrize("backend", ["serial", "engine"])
    def test_every_kind_replies_one_shape_and_counts_one_path(self, backend):
        """All five kinds, on either backend, reply with the one report's
        keys and add exactly one ``update.<path>`` count each."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.runtime import observed
        from repro.parallel import ParallelEngine

        from .conftest import build_network

        keys = {
            "kind", "epoch", "touched_superpeers", "full_republish", "republished_bytes",
            "slot_nbytes", "total_nbytes", "seconds", "path", "examined", "promoted",
        }
        paths = ("spliced", "promoted", "rebuilt", "merged")
        network = build_network(seed=47)
        peer_id = sorted(network.peers)[0]
        peers_before = set(network.peers)
        registry = MetricsRegistry()

        def path_counts():
            return {path: registry.total(f"update.{path}") for path in paths}

        async def scenario(engine):
            gateway = QueryGateway(
                network, engine=engine, backend=backend, config=GatewayConfig()
            )
            replies = []
            async with gateway:
                host, port = gateway.address
                async with await GatewayClient.connect(host, port) as client:
                    assert (await client.query([0, 1])).ok  # a live publication
                    doomed = [int(i) for i in network.peers[peer_id].data.ids[:2]]
                    first, *_, last = sorted(network.superpeers)
                    ops = [
                        ("insert", {"peer_id": peer_id, "points": {"random": 3, "seed": 5}}),
                        ("delete", {"peer_id": peer_id, "point_ids": doomed}),
                        ("join", {"superpeer_id": first, "points": {"random": 4, "seed": 9}}),
                        ("fail", None),
                        ("fail-superpeer", {"superpeer_id": last}),
                    ]
                    for kind, fields in ops:
                        if kind == "fail":
                            fields = {"peer_id": (set(network.peers) - peers_before).pop()}
                        before = path_counts()
                        response = await client.update(kind, **fields)
                        assert response.ok, (kind, response.payload)
                        after = path_counts()
                        replies.append((kind, response.payload["update"], before, after))
            return replies

        with observed(metrics=registry):
            if backend == "engine":
                with ParallelEngine(1) as engine:
                    replies = run(scenario(engine))
            else:
                replies = run(scenario(None))
        assert [kind for kind, *_ in replies] == [
            "insert", "delete", "join", "fail", "fail-superpeer"
        ]
        for kind, reply, before, after in replies:
            assert set(reply) == keys, kind
            assert reply["kind"] == kind
            added = {path: after[path] - before[path] for path in paths}
            assert added == {path: int(path == reply["path"]) for path in paths}, kind
        assert replies[2][1]["path"] == "merged"
        assert replies[4][1]["path"] == "merged"
