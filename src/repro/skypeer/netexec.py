"""Socket-transport execution backend (the third SKYPEER engine).

Runs Algorithm 3 with every super-peer as an independent network
endpoint speaking the :mod:`repro.p2p.wire` format over real TCP
sockets (:mod:`repro.p2p.transport`), in one of two deployment modes:

* ``task`` — every endpoint lives in one asyncio event loop of the
  calling process.  Bytes still cross the kernel's TCP stack, so the
  measured traffic is real, but setup cost is tiny; this is the
  default and what CI's sim-vs-socket equality matrix runs.
* ``process`` — one OS process per super-peer.  Each child receives
  only *its* store and neighbour list, binds its own listening socket,
  and exchanges messages with the other children; the parent only
  coordinates addresses and collects the initiator's result.  This is
  the deployment the paper describes, minus multiple hosts.

Either way the :class:`repro.skypeer.protocol.ProtocolNode` state
machines are byte-for-byte the ones the discrete-event simulator runs,
so result sets are identical across sim, task and process carriers —
asserted in the test-suite for all five variants.

Every sent message is tallied twice: ``len(blob)`` as *measured* wire
bytes and :func:`repro.p2p.wire.cost_estimate` as the *estimated*
bytes the cost model would charge for it.  The two differ by a small,
constant per-message framing delta (the model charges an abstract
64-byte envelope; the codec packs a 16-byte header) — documented in
``docs/TRANSPORT.md`` and asserted in tests, which is what makes the
reproduction's communication-cost claims falsifiable.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import pickle
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.dataset import PointSet
from ..core.merging import IncrementalMerger
from ..core.store import SortedByF
from ..core.subspace import normalize_subspace
from ..data.workload import Query
from ..obs.runtime import active_metrics, active_tracer
from ..p2p.network import SuperPeerNetwork
from ..p2p.cost import CostModel
from ..p2p.transport import SocketEndpoint, TransportConfig, TransportError
from ..p2p.wire import cost_estimate, decode_header
from .protocol import ProtocolNode, build_nodes, query_id_for
from .variants import Variant

__all__ = [
    "QueryAbandoned",
    "SocketOutcome",
    "StreamingInitiatorNode",
    "TransportReport",
    "gateway_dispatch",
    "resolve_merge_mode",
    "resolve_transport_mode",
    "run_socket_query",
]

_KIND_QUERY = 1

#: Directory for the child-endpoint pid markers the CI leak check scans.
RUNDIR_ENV = "REPRO_TRANSPORT_RUNDIR"
MODE_ENV = "REPRO_TRANSPORT_MODE"
#: ``REPRO_STREAM_MERGE=0`` forces the buffered initiator merge,
#: ``=1`` forces the pipelined one; unset picks pipelined whenever the
#: block dominance index is in play (the incremental merger is built on
#: it) and buffered otherwise.
MERGE_ENV = "REPRO_STREAM_MERGE"


def resolve_transport_mode(mode: str | None = None) -> str:
    """``task`` or ``process`` — argument, else ``REPRO_TRANSPORT_MODE``."""
    resolved = mode or os.environ.get(MODE_ENV) or "task"
    if resolved not in ("task", "process"):
        raise ValueError(f"unknown transport mode {resolved!r} (task|process)")
    return resolved


def resolve_merge_mode(merge: str | None = None, index_kind: str = "block") -> str:
    """``pipelined`` or ``buffered`` — argument, env, then index kind.

    The pipelined merge dominance-filters result frames as they arrive
    at the initiator (overlapping merge work with socket waits) and is
    the default for the block index it is built on; other index kinds
    keep the buffered merge so their merge semantics stay exactly the
    reference :func:`repro.core.merging.merge_sorted_skylines` path.
    """
    resolved = merge or os.environ.get(MERGE_ENV) or ""
    resolved = {"0": "buffered", "1": "pipelined"}.get(resolved, resolved)
    if not resolved:
        resolved = "pipelined" if index_kind == "block" else "buffered"
    if resolved not in ("pipelined", "buffered"):
        raise ValueError(
            f"unknown merge mode {resolved!r} (pipelined|buffered)"
        )
    return resolved


class StreamingInitiatorNode(ProtocolNode):
    """Initiator node that merges result frames the moment they arrive.

    The reference :class:`~repro.skypeer.protocol.ProtocolNode` buffers
    every collected result and runs Algorithm 2 once, after the last
    child reports — leaving the initiator idle while frames are in
    flight.  This subclass feeds each frame into an
    :class:`~repro.core.merging.IncrementalMerger` from inside the
    receive handler, so dominance filtering overlaps the wait for later
    frames; whole frames beyond the running threshold are discarded
    without a scan (``frames_pruned``).  The final result *set* is
    identical to the buffered merge's (see the merging module's
    exactness argument), which is what the streaming-vs-buffered
    equality tests pin down.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._merger: IncrementalMerger | None = None
        self.frames_merged = 0
        self.stall_seconds = 0.0
        self._idle_since: float | None = None

    @property
    def frames_pruned(self) -> int:
        return self._merger.runs_pruned if self._merger is not None else 0

    def start(self) -> None:
        super().start()
        self._idle_since = time.perf_counter()

    def _on_result(self, sender: int, message: Any) -> None:
        state = self.state
        if len(message):
            # The initiator is every frame's final destination (its
            # parent is None), so nothing is relayed: merge in place.
            arrived = time.perf_counter()
            if self._idle_since is not None:
                stall = arrived - self._idle_since
                self.stall_seconds += stall
                if self._metrics is not None:
                    self._metrics.histogram(
                        "netexec.merge_stall_seconds",
                        variant=self.variant.value,
                    ).observe(stall)
            if self._merger is None:
                self._merger = IncrementalMerger(
                    range(len(self.subspace)), initial_threshold=math.inf
                )
                if state.local_result is not None:
                    self._merger.feed(state.local_result)
            self._merger.feed(message.to_store())
            self.frames_merged += 1
            self._idle_since = time.perf_counter()
        if message.sender == sender:
            # FIFO links: the peer's own (possibly empty) result is its
            # last message, exactly as in the base class.
            state.pending_children.discard(sender)
            self._maybe_complete()

    def _maybe_complete(self) -> None:
        state = self.state
        if (
            state.done
            or not state.forwarded
            or state.pending_children
            or not state.local_done
        ):
            return
        if self._merger is None:
            # No frame ever arrived (single super-peer or all empty):
            # the reference path ships the local result as-is.
            super()._maybe_complete()
            return
        state.done = True
        started = time.perf_counter()
        merged = self._merger.result()
        duration = time.perf_counter() - started
        self.compute_seconds += self._merger.compute_seconds
        if self._tracer is not None:
            moment = self._now()
            self._tracer.interval(
                "algorithm2 merge (pipelined)", category="compute",
                track=f"sp{self.superpeer_id}",
                start=moment, end=moment + duration,
                clock=self._clock, inputs=self.frames_merged + 1,
                examined=self._merger.examined, kept=len(merged.result),
                comparisons=self._merger.comparisons,
            )
        if self._metrics is not None:
            self._metrics.counter(
                "protocol.comparisons",
                variant=self.variant.value, superpeer=self.superpeer_id,
                phase="merge",
            ).inc(self._merger.comparisons)
        self._defer(duration, lambda: self._ship(merged.result))

    def merge_info(self) -> dict[str, Any]:
        """The pipelined-merge accounting the transport report embeds."""
        return {
            "frames_merged": self.frames_merged,
            "frames_pruned": self.frames_pruned,
            "merge_stall_seconds": self.stall_seconds,
        }


class WireAccounting:
    """Measured-vs-estimated tally over every message an endpoint sends."""

    def __init__(self, model: CostModel):
        self._model = model
        self.messages = 0
        self.query_messages = 0
        self.result_messages = 0
        self.estimated_bytes = 0

    def record(self, blob: bytes) -> None:
        kind, _, _ = decode_header(blob)
        self.messages += 1
        if kind == _KIND_QUERY:
            self.query_messages += 1
        else:
            self.result_messages += 1
        self.estimated_bytes += cost_estimate(blob, self._model)

    def as_dict(self) -> dict[str, int]:
        return {
            "messages": self.messages,
            "query_messages": self.query_messages,
            "result_messages": self.result_messages,
            "estimated_bytes": self.estimated_bytes,
        }

    def add_dict(self, other: Mapping[str, int]) -> None:
        self.messages += other["messages"]
        self.query_messages += other["query_messages"]
        self.result_messages += other["result_messages"]
        self.estimated_bytes += other["estimated_bytes"]


@dataclass
class TransportReport:
    """What one socket-transport query actually put on the wire.

    ``merge_mode`` records how the initiator combined result frames:
    ``buffered`` (collect everything, merge once) or ``pipelined``
    (dominance-filter frames on arrival).  ``initiator_idle_seconds``
    is the query wall time minus the initiator's compute time — the
    window the pipelined merge exists to shrink; ``frames_merged`` /
    ``frames_pruned`` count frames scanned vs discarded whole by the
    running threshold, and ``readers_cancelled`` the initiator's
    inbound readers cancelled early once the result was final.
    """

    mode: str
    wall_seconds: float
    messages: int
    query_messages: int
    result_messages: int
    payload_bytes: int
    frame_bytes: int
    estimated_bytes: int
    per_superpeer: dict[int, dict[str, int]] = field(default_factory=dict)
    merge_mode: str = "buffered"
    initiator_compute_seconds: float = 0.0
    frames_merged: int = 0
    frames_pruned: int = 0
    merge_stall_seconds: float = 0.0
    readers_cancelled: int = 0

    @property
    def initiator_idle_seconds(self) -> float:
        """Wall time the initiator spent not computing (waiting on IO)."""
        return max(0.0, self.wall_seconds - self.initiator_compute_seconds)

    @property
    def framing_overhead_bytes(self) -> int:
        """Frame prefixes + hello frames: bytes beyond the wire messages."""
        return self.frame_bytes - self.payload_bytes

    @property
    def estimate_delta_bytes(self) -> int:
        """Cost-model estimate minus measured message bytes (the
        per-message envelope delta; see ``docs/TRANSPORT.md``)."""
        return self.estimated_bytes - self.payload_bytes


@dataclass
class SocketOutcome:
    """Result + measured traffic of one socket-transport query."""

    query: Query
    variant: Variant
    result: SortedByF
    report: TransportReport

    @property
    def result_ids(self) -> frozenset[int]:
        return self.result.points.id_set()


def run_socket_query(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant | str = Variant.FTPM,
    index_kind: str | None = None,
    *,
    mode: str | None = None,
    merge: str | None = None,
    config: TransportConfig | None = None,
) -> SocketOutcome:
    """Execute one query over the asyncio socket transport.

    Results carry the same point ids as :func:`execute_query` and
    :func:`run_protocol` (compare via ``result_ids``); the report holds
    the measured per-super-peer wire traffic next to the cost model's
    estimate for the very same messages.  ``merge`` selects the
    initiator's merge strategy (see :func:`resolve_merge_mode`); the
    result set is the same either way.
    """
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    index_kind = index_kind or network.index_kind
    mode = resolve_transport_mode(mode)
    merge_mode = resolve_merge_mode(merge, index_kind)
    config = config if config is not None else TransportConfig.from_env()
    if query.initiator not in network.superpeers:
        raise KeyError(f"unknown initiator super-peer {query.initiator}")
    started = time.perf_counter()
    if mode == "task":
        result, stats, accounting, merge_info = asyncio.run(
            _run_task_mode(network, query, variant, index_kind, config, merge_mode)
        )
    else:
        result, stats, accounting, merge_info = _run_process_mode(
            network, query, variant, index_kind, config, merge_mode
        )
    wall = time.perf_counter() - started
    report = TransportReport(
        mode=mode,
        wall_seconds=wall,
        messages=accounting.messages,
        query_messages=accounting.query_messages,
        result_messages=accounting.result_messages,
        payload_bytes=sum(s["payload_bytes_sent"] for s in stats.values()),
        frame_bytes=sum(s["frame_bytes_sent"] for s in stats.values()),
        estimated_bytes=accounting.estimated_bytes,
        per_superpeer=stats,
        merge_mode=merge_mode,
        initiator_compute_seconds=merge_info.get("compute_seconds", 0.0),
        frames_merged=merge_info.get("frames_merged", 0),
        frames_pruned=merge_info.get("frames_pruned", 0),
        merge_stall_seconds=merge_info.get("merge_stall_seconds", 0.0),
        readers_cancelled=merge_info.get("readers_cancelled", 0),
    )
    _record_observability(report, variant, query)
    return SocketOutcome(query=query, variant=variant, result=result, report=report)


def _record_observability(
    report: TransportReport, variant: Variant, query: Query
) -> None:
    """Measured bytes into ``repro.obs`` counters, one query span."""
    metrics = active_metrics()
    tracer = active_tracer()
    if metrics is not None:
        for sp, stats in report.per_superpeer.items():
            metrics.counter(
                "transport.bytes_sent", superpeer=sp, mode=report.mode
            ).inc(stats["payload_bytes_sent"])
            metrics.counter(
                "transport.bytes_received", superpeer=sp, mode=report.mode
            ).inc(stats["payload_bytes_received"])
            metrics.counter(
                "transport.frame_bytes_sent", superpeer=sp, mode=report.mode
            ).inc(stats["frame_bytes_sent"])
            metrics.counter(
                "transport.retries", superpeer=sp, mode=report.mode
            ).inc(stats["retries"])
        metrics.counter(
            "transport.messages", variant=variant.value, mode=report.mode
        ).inc(report.messages)
        metrics.counter(
            "transport.estimated_bytes", variant=variant.value, mode=report.mode
        ).inc(report.estimated_bytes)
        metrics.histogram(
            "transport.query_seconds", variant=variant.value, mode=report.mode
        ).observe(report.wall_seconds)
        metrics.histogram(
            "netexec.initiator_idle_seconds",
            variant=variant.value, mode=report.mode, merge=report.merge_mode,
        ).observe(report.initiator_idle_seconds)
        if report.readers_cancelled:
            metrics.counter(
                "netexec.readers_cancelled", variant=variant.value,
                mode=report.mode,
            ).inc(report.readers_cancelled)
    if tracer is not None:
        tracer.interval(
            "socket query", category="transport", track="transport",
            start=0.0, end=report.wall_seconds, clock="wall",
            variant=variant.value, mode=report.mode,
            merge=report.merge_mode,
            subspace=str(tuple(query.subspace)),
            payload_bytes=report.payload_bytes,
            estimated_bytes=report.estimated_bytes,
            messages=report.messages,
            idle_seconds=report.initiator_idle_seconds,
        )


# ----------------------------------------------------------------------
# task mode: every endpoint in one asyncio loop
# ----------------------------------------------------------------------
async def _run_task_mode(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant,
    index_kind: str,
    config: TransportConfig,
    merge_mode: str,
) -> tuple[SortedByF, dict[int, dict[str, int]], WireAccounting, dict[str, Any]]:
    accounting = WireAccounting(network.cost_model)
    endpoints: dict[int, SocketEndpoint] = {}
    nodes: dict[int, ProtocolNode] = {}
    done = asyncio.Event()
    final: list[SortedByF] = []
    pipelined = merge_mode == "pipelined"
    readers_cancelled = 0

    def make_handler(sp: int):
        return lambda src, blob: nodes[sp].on_message(src, blob)

    for sp in network.topology.superpeer_ids:
        endpoints[sp] = SocketEndpoint(sp, make_handler(sp), config)
    try:
        addresses = {sp: await ep.start() for sp, ep in endpoints.items()}
        for ep in endpoints.values():
            ep.set_peers(addresses)

        def send(src: int, dst: int, blob: bytes) -> None:
            accounting.record(blob)
            endpoints[src].send(dst, blob)

        def on_final(store: SortedByF) -> None:
            final.append(store)
            done.set()

        nodes.update(
            build_nodes(
                network, query, variant, index_kind,
                send=send, defer=lambda _seconds, fn: fn(),
                now=time.perf_counter, on_final=on_final, clock="transport",
                initiator_cls=StreamingInitiatorNode if pipelined else None,
            )
        )
        nodes[query.initiator].start()
        try:
            await asyncio.wait_for(done.wait(), config.io_timeout)
        except asyncio.TimeoutError:
            raise TransportError(
                f"query did not complete within {config.io_timeout}s"
            ) from None
        if pipelined:
            # The final result exists, so every initiator-bound frame
            # has been received (see SocketEndpoint.cancel_readers);
            # the initiator stops reading instead of waiting on EOFs.
            readers_cancelled = endpoints[query.initiator].cancel_readers()
        for ep in endpoints.values():
            await ep.flush()
    finally:
        # Two-phase teardown: close every outbound side first so all
        # server readers end on EOF, then stop the servers.
        for ep in endpoints.values():
            await ep.close_outbound()
        for ep in endpoints.values():
            await ep.close()
    stats = {sp: ep.stats.as_dict() for sp, ep in endpoints.items()}
    root = nodes[query.initiator]
    merge_info: dict[str, Any] = {
        "compute_seconds": root.compute_seconds,
        "readers_cancelled": readers_cancelled,
    }
    if isinstance(root, StreamingInitiatorNode):
        merge_info.update(root.merge_info())
    return final[0], stats, accounting, merge_info


# ----------------------------------------------------------------------
# process mode: one endpoint per OS process
# ----------------------------------------------------------------------
def _rundir() -> str:
    path = os.environ.get(RUNDIR_ENV) or tempfile.gettempdir()
    # A custom rundir may not exist yet; endpoint children die before
    # the 'bound' handshake if their pid marker has nowhere to go.
    os.makedirs(path, exist_ok=True)
    return path


def _pidfile() -> str:
    return os.path.join(_rundir(), f"repro-transport-{os.getpid()}.pid")


def _store_payload(store: SortedByF) -> tuple[Any, Any, Any]:
    return (
        np.ascontiguousarray(store.points.values),
        np.ascontiguousarray(store.points.ids),
        np.ascontiguousarray(store.f),
    )


def _endpoint_child_main(conn, spec_bytes: bytes) -> None:
    """Entry point of one super-peer endpoint process.

    Handshake (over the pipe): send ``("bound", (host, port))`` →
    receive ``("peers", addr_map)`` → send ``("ready",)`` → (initiator
    only) receive ``("go",)``, run the query, send ``("result", ...)``
    → receive ``("stop",)`` → flush, send ``("stats", ...)``, exit.
    """
    spec = pickle.loads(spec_bytes)
    marker = _pidfile()
    try:
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        sock = socket.create_server((spec["host"], 0))
        conn.send(("bound", sock.getsockname()[:2]))
        kind, peers = conn.recv()
        assert kind == "peers"
        asyncio.run(_endpoint_child_async(conn, spec, sock, peers))
    finally:
        try:
            os.unlink(marker)
        except OSError:
            pass
        conn.close()


async def _endpoint_child_async(conn, spec: dict, sock, peers) -> None:
    loop = asyncio.get_running_loop()
    config = TransportConfig(**spec["config"])
    variant = Variant.parse(spec["variant"])
    store = SortedByF(PointSet(spec["values"], spec["ids"]), spec["f"])
    accounting = WireAccounting(CostModel(**spec["cost_model"]))
    go = asyncio.Event()
    stop = asyncio.Event()
    done = asyncio.Event()
    final: list[SortedByF] = []
    node_ref: list[ProtocolNode] = []

    def watch_pipe() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("stop",)
            if message[0] == "go":
                loop.call_soon_threadsafe(go.set)
            elif message[0] == "stop":
                loop.call_soon_threadsafe(stop.set)
                return

    endpoint = SocketEndpoint(
        spec["superpeer_id"],
        lambda src, blob: node_ref[0].on_message(src, blob),
        config,
    )
    await endpoint.start(sock=sock)
    endpoint.set_peers(peers)

    def send(dst: int, blob: bytes) -> None:
        accounting.record(blob)
        endpoint.send(dst, blob)

    def on_final(result: SortedByF) -> None:
        final.append(result)
        done.set()

    is_initiator = spec["superpeer_id"] == spec["initiator"]
    pipelined = is_initiator and spec["merge_mode"] == "pipelined"
    node_cls = StreamingInitiatorNode if pipelined else ProtocolNode
    node_ref.append(
        node_cls(
            spec["superpeer_id"],
            store=store,
            neighbours=spec["neighbours"],
            subspace=tuple(spec["subspace"]),
            query_id=spec["query_id"],
            initiator=spec["initiator"],
            variant=variant,
            index_kind=spec["index_kind"],
            send=send,
            defer=lambda _seconds, fn: fn(),
            now=time.perf_counter,
            on_final=on_final if is_initiator else None,
            clock="transport",
        )
    )
    threading.Thread(target=watch_pipe, daemon=True).start()
    conn.send(("ready",))
    try:
        if is_initiator:
            node = node_ref[0]
            await asyncio.wait_for(go.wait(), config.io_timeout)
            node.start()
            await asyncio.wait_for(done.wait(), config.io_timeout)
            readers_cancelled = endpoint.cancel_readers() if pipelined else 0
            result = final[0]
            merge_info: dict[str, Any] = {
                "compute_seconds": node.compute_seconds,
                "readers_cancelled": readers_cancelled,
            }
            if isinstance(node, StreamingInitiatorNode):
                merge_info.update(node.merge_info())
            conn.send(
                ("result",
                 *(np.ascontiguousarray(a) for a in
                   (result.points.values, result.points.ids, result.f)),
                 merge_info)
            )
        await asyncio.wait_for(stop.wait(), config.io_timeout)
        await endpoint.flush()
    finally:
        await endpoint.close()
    conn.send(("stats", endpoint.stats.as_dict(), accounting.as_dict()))


def _run_process_mode(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant,
    index_kind: str,
    config: TransportConfig,
    merge_mode: str,
) -> tuple[SortedByF, dict[int, dict[str, int]], WireAccounting, dict[str, Any]]:
    from ..parallel import start_method

    ctx = multiprocessing.get_context(start_method())
    subspace = normalize_subspace(query.subspace, network.dimensionality)
    qid = query_id_for(query)
    config_fields = {
        name: getattr(config, name) for name in TransportConfig._ENV
    }
    cost_fields = dict(network.cost_model.__dict__)
    children: dict[int, Any] = {}
    pipes: dict[int, Any] = {}
    deadline = config.io_timeout
    try:
        for sp in network.topology.superpeer_ids:
            values, ids, f = _store_payload(network.store_of(sp))
            spec = {
                "superpeer_id": sp,
                "host": config.host,
                "values": values,
                "ids": ids,
                "f": f,
                "neighbours": tuple(network.topology.adjacency[sp]),
                "subspace": tuple(subspace),
                "query_id": qid,
                "initiator": query.initiator,
                "variant": variant.value,
                "index_kind": index_kind,
                "config": config_fields,
                "cost_model": cost_fields,
                "merge_mode": merge_mode,
            }
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_endpoint_child_main,
                args=(child_conn, pickle.dumps(spec)),
                name=f"repro-transport-sp{sp}",
            )
            process.start()
            child_conn.close()
            children[sp] = process
            pipes[sp] = parent_conn

        addresses = {
            sp: tuple(_expect(pipes[sp], "bound", deadline)[1])
            for sp in children
        }
        for sp in children:
            pipes[sp].send(("peers", addresses))
        for sp in children:
            _expect(pipes[sp], "ready", deadline)
        pipes[query.initiator].send(("go",))
        result_msg = _expect(pipes[query.initiator], "result", deadline)
        result = SortedByF(
            PointSet(result_msg[1], result_msg[2]), result_msg[3]
        )
        merge_info = dict(result_msg[4])
        for sp in children:
            pipes[sp].send(("stop",))
        stats: dict[int, dict[str, int]] = {}
        accounting = WireAccounting(network.cost_model)
        for sp in children:
            message = _expect(pipes[sp], "stats", deadline)
            stats[sp] = dict(message[1])
            accounting.add_dict(message[2])
        for sp, process in children.items():
            process.join(timeout=deadline)
        return result, stats, accounting, merge_info
    finally:
        for process in children.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for pipe in pipes.values():
            pipe.close()


def _expect(pipe, kind: str, timeout: float):
    """Read pipe messages until one of ``kind`` arrives (bounded wait)."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not pipe.poll(remaining):
            raise TransportError(f"timed out waiting for {kind!r} from endpoint")
        try:
            message = pipe.recv()
        except EOFError:
            raise TransportError(
                f"endpoint exited before sending {kind!r}"
            ) from None
        if message[0] == kind:
            return message


# ----------------------------------------------------------------------
# gateway dispatch (repro.serving)
# ----------------------------------------------------------------------
class QueryAbandoned(RuntimeError):
    """Every waiter for a gateway job disconnected before dispatch.

    The gateway raises this from its executor thread instead of
    executing an answer nobody will read; the dispatcher reaps it as a
    cancellation, not a backend error.
    """


def gateway_dispatch(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant | str = Variant.FTPM,
    *,
    backend: str = "serial",
    engine: Any = None,
    scan_chunk: int | None = None,
    mode: str | None = None,
    merge: str | None = None,
    abandoned=None,
) -> SortedByF:
    """Run one admitted gateway job on the chosen backend.

    This is the single seam between :class:`repro.serving.QueryGateway`
    and the execution engines — the gateway never imports an engine
    directly.  ``backend`` picks the path:

    * ``engine`` — the warm :class:`~repro.parallel.ParallelEngine`
      passed as ``engine`` (shared-memory data plane, block cache);
    * ``serial`` — in-process :func:`~repro.skypeer.executor.
      execute_query`;
    * ``socket`` — the full asyncio transport via
      :func:`run_socket_query`.

    ``abandoned`` is an optional zero-argument callable polled once
    before the (potentially expensive) execution starts; when it
    reports ``True`` the dispatch raises :class:`QueryAbandoned` —
    cancellation propagation for jobs whose waiters all left.  All
    three paths return the same :class:`~repro.core.store.SortedByF`
    for a given ``(subspace, variant)``, which is what makes gateway
    coalescing exact.
    """
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    if abandoned is not None and abandoned():
        raise QueryAbandoned(
            f"no waiters left for {query.subspace} / {variant.value}"
        )
    if backend == "engine":
        if engine is None:
            raise ValueError("backend 'engine' requires an engine instance")
        runs = engine.run_queries(network, [query], [variant], scan_chunk=scan_chunk)
        return runs[variant][0].result
    if backend == "serial":
        from .executor import execute_query

        return execute_query(network, query, variant, scan_chunk=scan_chunk).result
    if backend == "socket":
        return run_socket_query(network, query, variant, mode=mode, merge=merge).result
    raise ValueError(f"unknown gateway backend {backend!r} (engine|serial|socket)")
