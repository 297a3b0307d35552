"""Socket-transport execution backend: Algorithm 3 over real TCP.

Runs Algorithm 3 with every super-peer as an independent network
endpoint speaking the :mod:`repro.p2p.wire` format over real TCP
sockets (:mod:`repro.p2p.transport`).  Every endpoint lives in one
asyncio event loop of the calling process; bytes still cross the
kernel's TCP stack, so the measured traffic is real.

Every endpoint runs the one :class:`repro.skypeer.protocol.ProtocolNode`
that the model-clock driver runs, on the same routing: the BFS tree of
the initiator (:func:`repro.skypeer.executor.spanning_tree`), its tree
neighbours and its BFS-position merge ranks.  So the sockets send the
messages :func:`~repro.skypeer.executor.execute_query` charges, and
return its answer in the same order — asserted in the test-suite for
all five variants.  Flooding the full adjacency is
:func:`~repro.skypeer.protocol.run_protocol`'s job alone.  This module
is the wire boundary: :mod:`repro.p2p.wire` encoding (projection onto
the queried coordinates included) happens where a message leaves a
node for a socket, decoding where a frame comes off one, and nowhere
else.  There is no model clock here — the computations already spent
their wall-clock time, so the carrier's stamps are ``None``.

Every sent message is tallied twice: ``len(blob)`` as *measured* wire
bytes and the sender's ``model_bytes`` of the message as the *estimated*
bytes the cost model charges for it (what
:func:`repro.p2p.wire.cost_estimate` reads back from the blob; the
sender prices the message it holds, so no blob is decoded twice).  The estimates sum to the
model's ``volume_bytes``; the two tallies differ by a small, constant
per-message framing delta (the model charges an abstract 64-byte
envelope; the codec packs a 16-byte header) — documented in
``docs/TRANSPORT.md`` and asserted in tests, which is what makes the
reproduction's communication-cost claims falsifiable.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.local_skyline import SkylineComputation
from ..core.store import SortedByF
from ..core.subspace import Subspace, normalize_subspace
from ..data.workload import Query
from ..obs.runtime import active_metrics, active_tracer
from ..p2p.network import SuperPeerNetwork
from ..p2p.cost import CostModel
from ..p2p.transport import SocketEndpoint, TransportConfig, TransportError
from ..p2p.wire import QueryMessage, ResultMessage, decode
from .executor import execute_query, spanning_tree
from .protocol import ProtocolNode, QueryBound, _queried, make_kernels
from .variants import Variant

__all__ = [
    "QueryAbandoned",
    "SocketOutcome",
    "TransportReport",
    "gateway_dispatch",
    "run_socket_query",
]

def query_id_for(query: Query) -> int:
    """Deterministic wire-level query id (stable across processes)."""
    digest = 0
    for dim in query.subspace:
        digest = (digest * 1000003 + int(dim) + 1) & 0x7FFFFFFF
    return (digest ^ (int(query.initiator) << 8)) & 0x7FFFFFFF


class _SocketCarrier:
    """The carrier of the nodes behind one or more socket endpoints.

    ``transmit(src, dst, blob)`` hands an encoded message to ``src``'s
    endpoint; the endpoints hand every received frame to
    :meth:`deliver`.  Per-connection TCP order is the FIFO the node's
    ``final`` mark relies on.
    """

    def __init__(
        self,
        transmit: Callable[[int, int, bytes], None],
        *,
        query_id: int,
        subspace: Subspace,
        initiator: int,
        cost_model: CostModel,
        on_final: Callable[[SortedByF], None],
    ):
        self.nodes: dict[int, ProtocolNode] = {}
        self.accounting = WireAccounting(cost_model)
        #: Wall-clock seconds each node spent in scans and merges; the
        #: initiator's is what the report subtracts to get its idle time.
        self.busy: dict[int, float] = defaultdict(float)
        self._transmit = transmit
        self._query_id = query_id
        self._subspace = subspace
        self._initiator = initiator
        self._on_final = on_final

    def _send(self, src: int, dst: int, message: QueryMessage | ResultMessage) -> None:
        blob = message.encode()
        self.accounting.record(message)
        self._transmit(src, dst, blob)

    def send_query(self, src: int, dst: int, bound: QueryBound, at: None) -> None:
        point = None if bound.point is None else tuple(float(x) for x in bound.point)
        message = QueryMessage(
            self._query_id, self._subspace, bound.threshold, self._initiator, point
        )
        self._send(src, dst, message)

    def send_result(
        self, src: int, dst: int, origin: int, result: SortedByF, final: bool, at: None
    ) -> None:
        # Lists are already on the queried coordinates (on-wire kernels).
        message = ResultMessage.from_store(
            self._query_id, origin, result, range(len(self._subspace)), final=final
        )
        self._send(src, dst, message)

    def decline(self, src: int, dst: int, at: None) -> None:
        message = ResultMessage(self._query_id, src, (), (), final=True, decline=True)
        self._send(src, dst, message)

    def compute(
        self, sp: int, phase: str, at: None, computation: SkylineComputation,
        then: Callable[[None], None],
    ) -> None:
        self.busy[sp] += computation.duration
        then(None)

    @staticmethod
    def join(a: None, b: None) -> None:
        return None

    def finish(self, result: SortedByF, at: None) -> None:
        self._on_final(result)

    def deliver(self, dst: int, sender: int, blob: bytes) -> None:
        """One frame for ``dst`` came off the connection from ``sender``."""
        message = decode(blob)
        node = self.nodes[dst]
        if isinstance(message, QueryMessage):
            point = None if message.point is None else np.array(message.point)
            node.on_query(sender, QueryBound(message.threshold, point), None)
        elif message.decline:
            node.on_decline(sender, None)
        else:
            node.on_result(sender, message.sender, message.to_store(), message.final, None)


class WireAccounting:
    """Measured-vs-estimated tally over every message an endpoint sends."""

    def __init__(self, model: CostModel):
        self._model = model
        self.messages = 0
        self.query_messages = 0
        self.result_messages = 0
        self.estimated_bytes = 0

    def record(self, message: QueryMessage | ResultMessage) -> None:
        self.messages += 1
        if isinstance(message, QueryMessage):
            self.query_messages += 1
        else:
            self.result_messages += 1
        self.estimated_bytes += message.model_bytes(self._model)


@dataclass
class TransportReport:
    """What one socket-transport query actually put on the wire.

    ``initiator_idle_seconds`` is the query wall time minus the
    initiator's compute time (its scan and its merge).
    """

    wall_seconds: float
    messages: int
    query_messages: int
    result_messages: int
    payload_bytes: int
    frame_bytes: int
    estimated_bytes: int
    per_superpeer: dict[int, dict[str, int]] = field(default_factory=dict)
    initiator_compute_seconds: float = 0.0

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
    *,
    mode: str = "task",
    config: TransportConfig | None = None,
) -> SocketOutcome:
    """Execute one query over the asyncio socket transport.

    The query travels the initiator's BFS tree, as under
    :func:`execute_query`: the answer carries the same point ids in the
    same order, on the queried coordinates only, and the report's
    ``messages`` and ``estimated_bytes`` are that run's
    ``message_count`` and ``volume_bytes``, next to the measured
    per-super-peer wire traffic.  ``mode`` accepts ``"task"`` only (every
    endpoint is a task of one event loop).
    """
    if mode != "task":
        raise ValueError(f"unknown transport mode {mode!r} (task)")
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    config = config if config is not None else TransportConfig()
    neighbours, rank = spanning_tree(network, query.initiator)
    started = time.perf_counter()
    result, stats, accounting, compute_seconds = asyncio.run(
        _run_endpoints(network, query, variant, config, neighbours, rank)
    )
    wall = time.perf_counter() - started
    report = TransportReport(
        wall_seconds=wall,
        messages=accounting.messages,
        query_messages=accounting.query_messages,
        result_messages=accounting.result_messages,
        payload_bytes=sum(s["payload_bytes_sent"] for s in stats.values()),
        frame_bytes=sum(s["frame_bytes_sent"] for s in stats.values()),
        estimated_bytes=accounting.estimated_bytes,
        per_superpeer=stats,
        initiator_compute_seconds=compute_seconds,
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
                "transport.bytes_sent", superpeer=sp
            ).inc(stats["payload_bytes_sent"])
            metrics.counter(
                "transport.bytes_received", superpeer=sp
            ).inc(stats["payload_bytes_received"])
            metrics.counter(
                "transport.frame_bytes_sent", superpeer=sp
            ).inc(stats["frame_bytes_sent"])
            metrics.counter(
                "transport.retries", superpeer=sp
            ).inc(stats["retries"])
        metrics.counter(
            "transport.messages", variant=variant.value
        ).inc(report.messages)
        metrics.counter(
            "transport.estimated_bytes", variant=variant.value
        ).inc(report.estimated_bytes)
        metrics.histogram(
            "transport.query_seconds", variant=variant.value
        ).observe(report.wall_seconds)
        metrics.histogram(
            "netexec.initiator_idle_seconds", variant=variant.value
        ).observe(report.initiator_idle_seconds)
    if tracer is not None:
        tracer.interval(
            "socket query", category="transport", track="transport",
            start=0.0, end=report.wall_seconds, clock="wall",
            variant=variant.value,
            subspace=str(tuple(query.subspace)),
            payload_bytes=report.payload_bytes,
            estimated_bytes=report.estimated_bytes,
            messages=report.messages,
            idle_seconds=report.initiator_idle_seconds,
        )


# ----------------------------------------------------------------------
# the endpoints: one asyncio task per super-peer
# ----------------------------------------------------------------------
async def _run_endpoints(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant,
    config: TransportConfig,
    neighbours: Mapping[int, Sequence[int]],
    rank: Mapping[int, int],
) -> tuple[SortedByF, dict[int, dict[str, int]], WireAccounting, float]:
    subspace = normalize_subspace(query.subspace, network.dimensionality)
    endpoints: dict[int, SocketEndpoint] = {}
    done = asyncio.Event()
    final: list[SortedByF] = []

    def on_final(store: SortedByF) -> None:
        final.append(store)
        done.set()

    carrier = _SocketCarrier(
        lambda src, dst, blob: endpoints[src].send(dst, blob),
        query_id=query_id_for(query), subspace=subspace, initiator=query.initiator,
        cost_model=network.cost_model, on_final=on_final,
    )
    kernels = make_kernels(variant, subspace, network, on_wire=True)
    for sp in rank:
        carrier.nodes[sp] = ProtocolNode(
            sp, neighbours=neighbours[sp], variant=variant, kernels=kernels,
            carrier=carrier, rank=rank.__getitem__,
        )
        endpoints[sp] = SocketEndpoint(sp, partial(carrier.deliver, sp), config)
    try:
        addresses = {sp: await ep.start() for sp, ep in endpoints.items()}
        for ep in endpoints.values():
            ep.set_peers(addresses)
        carrier.nodes[query.initiator].start(None)
        try:
            await asyncio.wait_for(done.wait(), config.io_timeout)
        except asyncio.TimeoutError:
            raise TransportError(
                f"query did not complete within {config.io_timeout}s"
            ) from None
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
    return final[0], stats, carrier.accounting, carrier.busy[query.initiator]


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
) -> SortedByF:
    """Run one admitted gateway job on the chosen backend.

    This is the single seam between :class:`repro.serving.QueryGateway`
    and the execution engines — the gateway never imports an engine
    directly.  ``backend`` picks the path:

    * ``engine`` — the warm :class:`~repro.parallel.ParallelEngine`
      passed as ``engine`` (shared-memory data plane);
    * ``serial`` — in-process :func:`~repro.skypeer.executor.
      execute_query`.

    Both return the same :class:`~repro.core.store.SortedByF` for a
    given ``(subspace, variant)``: the answer on the queried
    coordinates, ordered by ``min_{i in U} p[i]`` — what the socket
    carrier's wire carries too (:func:`run_socket_query`), and what
    makes gateway coalescing exact.
    """
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    if backend == "engine":
        if engine is None:
            raise ValueError("backend 'engine' requires an engine instance")
        result = engine.run_query(network, query, variant).result
    elif backend == "serial":
        result = execute_query(network, query, variant).result
    else:
        raise ValueError(f"unknown gateway backend {backend!r} (engine|serial)")
    return _queried(result, normalize_subspace(query.subspace, network.dimensionality))
