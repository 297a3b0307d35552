"""The end-to-end run: closed-loop clients against the real server.

One asyncio process drives at most ``nproc`` connections; each sends its
next request only after the reply to the previous one (closed loop, no
think time for queries, ``UPDATE_THINK_SECONDS`` for updates).  The
measured interval is one fixed list of requests, not a time box, so two
commits answer the same requests.  Times are as the clock read them.
Nothing is traced here: every end-to-end metric comes from this run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from measures import percentile
from oracle import Dataset
from server import Server
from workloads import (
    UPDATE_THINK_SECONDS,
    WARMUP_REQUESTS,
    Workload,
    query_list,
    update_list,
    volume_probe,
)

REQUEST_TIMEOUT_SECONDS = 30.0


@dataclass
class Reply:
    """What is kept of one request for the metrics and the answer check."""

    request: dict[str, Any]
    latency: float
    ok: bool
    payload: dict[str, Any] = field(default_factory=dict)
    nbytes: int = 0


async def _ask(client: Any, message: dict[str, Any]) -> Reply:
    started = time.perf_counter()
    try:
        response = await asyncio.wait_for(client.request(message), REQUEST_TIMEOUT_SECONDS)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        return Reply(message, time.perf_counter() - started, ok=False)
    latency = time.perf_counter() - started
    payload = response.payload
    result = payload.pop("result", None)
    if result is not None:
        payload["ids"] = result["ids"]  # the values are not needed for the id-set check
    return Reply(message, latency, response.ok, payload, len(response.raw))


class Run:
    """State of one end-to-end run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.queries = query_list(workload, seed)
        measured = workload.measured_requests(seconds)
        self.updates = update_list(workload, seed, measured) if workload.updates else []
        # Where the query clients stop; beside updates, when the update client has.
        self.last_query = None if workload.updates else WARMUP_REQUESTS + measured
        self.next_query = 0
        self.setups: list[float] = []
        self.leaks = {"processes": 0, "shm_segments": 0}
        self.query_replies: list[Reply] = []
        self.update_replies: list[Reply] = []
        self.settled_replies: list[Reply] = []
        self.wall = 0.0  # of the measured interval
        self.cpu = 0.0  # of the server's session over it
        self.peak_rss_mb = 0.0
        self.gateway_stats: dict[str, Any] = {}

    def _take_query(self) -> dict[str, Any]:
        request = self.queries[self.next_query % len(self.queries)]
        self.next_query += 1
        return {"op": "query", **request}

    async def _query_client(self, client: Any) -> None:
        while self.next_query != self.last_query:
            self.query_replies.append(await _ask(client, self._take_query()))

    async def _update_client(self, client: Any) -> None:
        for op in self.updates:
            self.update_replies.append(await _ask(client, {"op": "update", **op}))
            await asyncio.sleep(UPDATE_THINK_SECONDS)
        self.last_query = self.next_query

    async def _start_server(self, setups: int) -> Server:
        """Set up ``setups`` times; the last server stays for the run."""
        for i in range(setups):
            server = Server(self.workload.serve_args(), self.workdir)
            try:
                self.setups.append(await server.start())
            except BaseException:
                server.stop()
                raise
            if i + 1 < setups:
                self._note_leaks(server.stop())
        return server

    def _note_leaks(self, leaks: dict[str, int]) -> None:
        for key, count in leaks.items():
            self.leaks[key] += count

    async def execute(self, setups: int) -> None:
        from repro.serving.client import GatewayClient

        server = await self._start_server(setups)
        clients: list[Any] = []
        try:
            for _ in range(self.workload.clients + self.workload.updates):
                clients.append(await GatewayClient.connect(*server.address))
            query_clients = clients[: self.workload.clients]
            for _ in range(WARMUP_REQUESTS):
                await _ask(query_clients[0], self._take_query())

            cpu_before = server.cpu_seconds()
            started = time.perf_counter()
            tasks = [self._query_client(c) for c in query_clients]
            if self.workload.updates:
                tasks.append(self._update_client(clients[-1]))
            await asyncio.gather(*tasks)
            self.wall = time.perf_counter() - started
            self.cpu = server.cpu_seconds() - cpu_before

            if self.workload.updates:
                # The update client has quiesced: every subspace once more.
                for subspace in sorted({tuple(q["subspace"]) for q in self.queries}):
                    message = {"op": "query", "subspace": list(subspace), "variant": "FTPM"}
                    self.settled_replies.append(await _ask(query_clients[0], message))
            self.gateway_stats = await query_clients[0].stats()
            self.peak_rss_mb = server.peak_rss_mb()
        finally:
            for client in clients:
                await client.close()
            self._note_leaks(server.stop())

    # ------------------------------------------------------------------
    # after the server has stopped: answers, counts, metrics
    # ------------------------------------------------------------------
    def check_answers(self, network: Any) -> int:
        """Failed requests: not ok, or an id set the oracle disagrees with.

        Replies of the measured interval are checked against the initial
        data, unless updates ran beside them (an answer then depends on
        which updates it overtook); the replies after the update client
        has quiesced are checked against the data with every acknowledged
        update mirrored.
        """
        points = network.all_points()
        data = Dataset(points.values, points.ids)
        expected: dict[tuple[int, ...], frozenset[int]] = {}

        def wrong(replies: list[Reply]) -> int:
            count = 0
            for reply in replies:
                subspace = tuple(reply.request["subspace"])
                if subspace not in expected:
                    expected[subspace] = data.skyline(subspace)
                count += not reply.ok or frozenset(reply.payload["ids"]) != expected[subspace]
            return count

        if not self.workload.updates:
            return wrong(self.query_replies)
        failed = sum(not r.ok for r in self.query_replies + self.update_replies)
        for reply in self.update_replies:
            if reply.ok:
                data.apply(reply.request)
        return failed + wrong(self.settled_replies)

    @property
    def attempted(self) -> int:
        return len(self.query_replies) + len(self.update_replies) + len(self.settled_replies)

    def backbone_kb_per_query(self, network: Any) -> float:
        """Mean ``QueryExecution.volume_kb`` over ``volume_probe`` on the initial data."""
        from repro.data.workload import Query
        from repro.skypeer.executor import execute_query

        initiator = network.topology.superpeer_ids[0]
        volumes = [
            execute_query(network, Query(subspace=s, initiator=initiator), v).volume_kb
            for s, v in volume_probe(self.workload)
        ]
        return sum(volumes) / len(volumes)

    def end_to_end(self, network: Any) -> dict[str, float]:
        """The bounded metrics; the run's timings are in ``serving_layer``."""
        return {
            "setup_s": percentile(self.setups, 50),
            "peak_rss_mb": self.peak_rss_mb,
            "backbone_kb_per_query": self.backbone_kb_per_query(network),
        }

    def serving_layer(self, failed: int) -> dict[str, float]:
        """What this run yields besides: the timings, and the serving layer's share.

        Nothing is traced.  The update latencies are 0 on a workload
        without updates.
        """
        ok = [r for r in self.query_replies if r.ok]
        latencies = [r.latency * 1e3 for r in ok]
        backend = [r.payload["elapsed_seconds"] * 1e3 for r in ok]
        overhead = [latency - elapsed for latency, elapsed in zip(latencies, backend)]
        updates = [r.latency * 1e3 for r in self.update_replies if r.ok]
        return {
            "query_p50_ms": percentile(latencies, 50),
            "query_p95_ms": percentile(latencies, 95),
            "query_qps": len(ok) / self.wall,
            "update_p50_ms": percentile(updates, 50) if updates else 0.0,
            "update_p95_ms": percentile(updates, 95) if updates else 0.0,
            "cpu_ms_per_query": self.cpu * 1e3 / len(ok),
            "failed_share": failed / self.attempted,
            "serving.backend_elapsed_p50_ms": percentile(backend, 50),
            "serving.gateway_overhead_p50_ms": percentile(overhead, 50),
            "serving.coalesce_hit_rate": sum(bool(r.payload.get("coalesced")) for r in ok) / len(ok),
            "serving.queue_depth_peak": self.gateway_stats["queue_depth_peak"],
            "serving.shed_total": self.gateway_stats["shed_total"],
            "serving.backend_errors": self.gateway_stats["backend_errors"],
            "serving.response_kb_per_query": sum(r.nbytes for r in ok) / len(ok) / 1024.0,
            "parallel.leaked_processes": self.leaks["processes"],
            "parallel.leaked_shm_segments": self.leaks["shm_segments"],
        }
