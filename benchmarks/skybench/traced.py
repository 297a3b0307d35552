"""The traced run: the head of a workload replayed in-process under spans.

Serial, one request in flight.  Spans are recorded here, around calls
into public functions of the program; nothing inside the program is
instrumented.  Per request the tree is

    request
      serving.encode_request     proto.encode_payload + transport.encode_frame
      serving.gateway_roundtrip  GatewayClient.query against an in-process
        skypeer.gateway_dispatch QueryGateway on a real socket; the dispatch
                                 is seen through the gateway's ``dispatch=`` seam
      skypeer.execute_query      then staged siblings that repeat the layers
      core.local_scan            below the gateway one at a time, so that each
        core.local_scan.store    has a wall time of its own
      core.merge
      core.dominance_kernel
      serving.encode_result
      serving.decode_result
      skypeer.socket_query       every sixth request

and per update (span ``update``) ``parallel.apply_update`` on the served
network and ``p2p.update`` (``insert_points`` / ``delete_points``) on a
second copy of it.
No end-to-end metric is taken from here.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import Counter
from typing import Any

from measures import percentile
from tracing import Tracer, span_cost
from workloads import BATCH_LAG, Workload, query_list, update_list

TRACED_QUERIES = 60
TRACED_UPDATES = 40
SOCKET_QUERY_EVERY = 6
KERNEL_ROWS = 4096

_ENGINE_COUNTERS = ("worker_compute_seconds", "cache_hits", "cache_misses", "cache_evictions")


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Replay:
    """One replay of a workload's head; counts gathered beside the spans."""

    def __init__(self, workload: Workload, seed: int, scale: int):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer()
        self.n_queries = TRACED_QUERIES // scale
        self.n_updates = max(BATCH_LAG + 2, TRACED_UPDATES // scale)  # at least one delete
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}
        self.update_paths: Counter[str] = Counter()
        self.wall = 0.0
        self._dispatched: tuple[float, float, dict[str, float]] | None = None

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def run(self) -> None:
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel.engine import ParallelEngine
        from repro.parallel.shm import attach_network, publish_network

        workload, tracer = self.workload, self.tracer
        setup = f"{workload.name}/setup"
        with tracer.span("p2p.build", setup):
            network = SuperPeerNetwork.build(**workload.network.build_kwargs())
        self.counts["store_points"] = sum(sp.store_size for sp in network.superpeers.values())
        shadow = pickle.loads(pickle.dumps(network))  # takes the p2p-only updates

        engine = None
        if workload.backend == "engine":
            with tracer.span("parallel.shm_publish", setup):
                shared = publish_network(network)
            try:
                with tracer.span("parallel.shm_attach", setup):
                    attached = attach_network(shared.manifest)
                attached.close()
                self.counts["shm_nbytes"] = shared.nbytes
            finally:
                shared.close()
            engine = ParallelEngine(workload.workers)
        loop = asyncio.new_event_loop()
        try:
            self._replay(loop, network, shadow, engine)
        finally:
            loop.close()
            if engine is not None:
                self.counts["pool_startup_s"] = engine.stats.pool_startup_seconds
                self.counts["full_republishes"] = engine.stats.full_republishes
                engine.close()

    def _replay(self, loop: Any, network: Any, shadow: Any, engine: Any) -> None:
        from repro.serving.client import GatewayClient
        from repro.serving.gateway import QueryGateway
        from repro.skypeer.netexec import gateway_dispatch

        backend = self.workload.backend

        def dispatch(net: Any, query: Any, variant: Any) -> Any:
            before = {k: getattr(engine.stats, k) for k in _ENGINE_COUNTERS} if engine else {}
            started = time.perf_counter()
            store = gateway_dispatch(net, query, variant, backend=backend, engine=engine)
            ended = time.perf_counter()
            delta = {k: getattr(engine.stats, k) - v for k, v in before.items()}
            self._dispatched = (started, ended, delta)
            return store

        gateway = QueryGateway(network, engine=engine, backend=backend, dispatch=dispatch)
        host, port = loop.run_until_complete(gateway.start())
        client = loop.run_until_complete(GatewayClient.connect(host, port))
        cycle = query_list(self.workload, self.seed)
        queries = [cycle[i % len(cycle)] for i in range(self.n_queries)]
        updates = update_list(self.workload, self.seed)[: self.n_updates]
        try:
            started = time.perf_counter()
            for i, request in enumerate(queries):
                with self.tracer.span("request", f"{self.workload.name}/{i}"):
                    self._query(loop, client, network, request, i)
                # Updates follow the queries one for one where the workload runs
                # them side by side; elsewhere they come after, so that the update
                # layers are measured on that network without disturbing its reads.
                if self.workload.updates and i < len(updates):
                    self._update(network, shadow, engine, updates[i], i)
            if not self.workload.updates:
                for j, op in enumerate(updates):
                    self._update(network, shadow, engine, op, j)
            self.wall = time.perf_counter() - started
        finally:
            loop.run_until_complete(client.close())
            loop.run_until_complete(gateway.close())

    # ------------------------------------------------------------------
    def _query(self, loop: Any, client: Any, network: Any, request: dict, index: int) -> None:
        from repro.core.dominance import batch_dominated_any
        from repro.core.local_skyline import local_subspace_skyline
        from repro.core.merging import merge_sorted_skylines
        from repro.data.workload import Query
        from repro.p2p.transport import encode_frame
        from repro.serving.proto import decode_payload, encode_payload, ok_payload
        from repro.skypeer.executor import execute_query
        from repro.skypeer.netexec import run_socket_query

        tracer, counts = self.tracer, self.counts
        subspace, variant = tuple(request["subspace"]), request["variant"]
        query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])

        with tracer.span("serving.encode_request"):
            encode_frame(encode_payload({"op": "query", "id": index, **request}))

        self._dispatched = None
        with tracer.span("serving.gateway_roundtrip") as roundtrip:
            response = loop.run_until_complete(client.query(subspace, variant))
        if not response.ok or self._dispatched is None:
            raise RuntimeError(f"traced query {index} failed: {response.payload}")
        started, ended, delta = self._dispatched
        tracer.add("skypeer.gateway_dispatch", started, ended, roundtrip)
        if delta:
            compute = delta["worker_compute_seconds"]
            self._sample("parallel.worker_compute_ms", compute * 1e3)
            self._sample("parallel.dispatch_overhead_ms", (ended - started - compute) * 1e3)
            for key in ("cache_hits", "cache_misses", "cache_evictions"):
                counts[key] += delta[key]

        with tracer.span("skypeer.execute_query"):
            execution = execute_query(network, query, variant)
        counts["comparisons"] += execution.comparisons
        counts["messages"] += execution.message_count
        counts["volume_bytes"] += execution.volume_bytes
        counts["critical_path_examined"] += execution.critical_path_examined

        scans = []
        with tracer.span("core.local_scan"):
            for sp in network.superpeers.values():
                with tracer.span("core.local_scan.store"):
                    scans.append(local_subspace_skyline(sp.store, subspace))
        counts["scan_examined"] += sum(s.examined for s in scans)
        counts["scan_input"] += sum(s.input_size for s in scans)
        counts["scan_comparisons"] += sum(s.comparisons for s in scans)

        with tracer.span("core.merge"):
            merged = merge_sorted_skylines([s.result for s in scans], subspace)
        counts["merge_examined"] += merged.examined

        largest = max(network.superpeers.values(), key=lambda sp: sp.store_size).store
        cols = list(subspace)
        dominators = merged.result.points.values[:, cols]
        targets = largest.points.values[:KERNEL_ROWS][:, cols]
        with tracer.span("core.dominance_kernel"):
            batch_dominated_any(dominators, targets)
        counts["kernel_pairs"] += len(dominators) * len(targets)

        with tracer.span("serving.encode_result"):
            blob = encode_payload(ok_payload(execution.result, 0.0))
        with tracer.span("serving.decode_result"):
            decode_payload(blob)

        if index % SOCKET_QUERY_EVERY == 0:
            with tracer.span("skypeer.socket_query"):
                report = run_socket_query(network, query, variant, mode="task").report
            counts["socket_queries"] += 1
            counts["transport_payload_bytes"] += report.payload_bytes
            counts["transport_framing_bytes"] += report.framing_overhead_bytes
            self._sample(
                "skypeer.initiator_idle_share", report.initiator_idle_seconds / report.wall_seconds
            )

    def _update(self, network: Any, shadow: Any, engine: Any, op: dict, index: int) -> None:
        import numpy as np
        from repro.core.dataset import PointSet
        from repro.p2p.updates import delete_points, insert_points

        if op["kind"] == "insert":
            points = PointSet(
                np.asarray(op["points"]["values"], dtype=np.float64),
                np.asarray(op["points"]["ids"], dtype=np.int64),
            )
            change: dict[str, Any] = {"points": points}
        else:
            change = {"point_ids": op["point_ids"]}
        with self.tracer.span("update", f"{self.workload.name}/update{index}"):
            if engine is not None:
                with self.tracer.span("parallel.apply_update"):
                    report = engine.apply_update(
                        network, op["kind"], peer_id=op["peer_id"], **change
                    )
                self.counts["republished_bytes"] += report.republished_bytes
            with self.tracer.span("p2p.update"):
                if op["kind"] == "insert":
                    outcome = insert_points(shadow, op["peer_id"], points)
                else:
                    outcome = delete_points(shadow, op["peer_id"], op["point_ids"])
        self.counts["update_examined"] += outcome.examined
        self.update_paths[outcome.path] += 1

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and the counts taken beside them.

        A ``parallel.*`` metric is 0 on a workload whose backend has no
        pool, shm or block cache.
        """
        c, n = self.counts, self.n_queries
        updates = sum(self.update_paths.values())
        probes = c["cache_hits"] + c["cache_misses"]

        def ms(name: str) -> list[float]:
            return [d * 1e3 for d in self.tracer.durations(name)]

        def p50(values: list[float]) -> float:
            return percentile(values, 50) if values else 0.0

        metrics = {
            "skypeer.dispatch_p50_ms": p50(ms("skypeer.gateway_dispatch")),
            "skypeer.execute_query_p50_ms": p50(ms("skypeer.execute_query")),
            "skypeer.comparisons_per_query": c["comparisons"] / n,
            "skypeer.messages_per_query": c["messages"] / n,
            "skypeer.volume_kb_per_query": c["volume_bytes"] / 1024.0 / n,
            "skypeer.critical_path_examined": c["critical_path_examined"] / n,
            "skypeer.socket_query_p50_ms": p50(ms("skypeer.socket_query")),
            "skypeer.initiator_idle_share": _mean(self.samples["skypeer.initiator_idle_share"]),
            "parallel.dispatch_overhead_p50_ms": p50(self.samples.get("parallel.dispatch_overhead_ms", [])),
            "parallel.worker_compute_p50_ms": p50(self.samples.get("parallel.worker_compute_ms", [])),
            "parallel.cache_hit_rate": c["cache_hits"] / probes if probes else 0.0,
            "parallel.cache_evictions_per_query": c["cache_evictions"] / n,
            "parallel.pool_startup_s": c["pool_startup_s"],
            "parallel.shm_publish_ms": _mean(ms("parallel.shm_publish")),
            "parallel.shm_attach_ms": _mean(ms("parallel.shm_attach")),
            "parallel.shm_nbytes": c["shm_nbytes"],
            "parallel.apply_update_p50_ms": p50(ms("parallel.apply_update")),
            "parallel.republished_kb_per_update": c["republished_bytes"] / 1024.0 / updates,
            "parallel.full_republishes": c["full_republishes"],
            "core.local_scan_ms_per_query": _mean(ms("core.local_scan")),
            "core.examined_share": c["scan_examined"] / c["scan_input"],
            "core.scan_comparisons_per_query": c["scan_comparisons"] / n,
            "core.merge_ms_per_query": _mean(ms("core.merge")),
            "core.merge_examined_per_query": c["merge_examined"] / n,
            "core.kernel_ns_per_pair": sum(ms("core.dominance_kernel")) * 1e6 / c["kernel_pairs"],
            "serving.encode_result_ms": _mean(ms("serving.encode_result")),
            "serving.decode_result_ms": _mean(ms("serving.decode_result")),
            "p2p.build_s": sum(self.tracer.durations("p2p.build")),
            "p2p.store_points_share": c["store_points"] / self.workload.network.raw_points,
            "p2p.update_p50_ms": p50(ms("p2p.update")),
            "p2p.update_examined_per_op": c["update_examined"] / updates,
            "p2p.transport_payload_kb": c["transport_payload_bytes"] / 1024.0 / c["socket_queries"],
            "p2p.transport_framing_bytes": c["transport_framing_bytes"] / c["socket_queries"],
        }
        for path in ("spliced", "promoted", "merged", "rebuilt"):
            metrics[f"p2p.update_path_share.{path}"] = self.update_paths[path] / updates
        # What the spans cost, as a share of the replay they were recorded in.
        metrics["trace.overhead_share"] = len(self.tracer.spans) * span_cost() / self.wall
        return metrics


def traced_run(workload: Workload, seed: int, quick: bool) -> tuple[dict[str, float], Tracer]:
    """Replay the head of the workload under spans; ``quick`` replays a tenth of it."""
    replay = Replay(workload, seed, scale=10 if quick else 1)
    replay.run()
    return replay.layer_metrics(), replay.tracer
