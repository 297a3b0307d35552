"""Algorithm 3 on the model clocks — ``execute_query`` and its carrier.

Every super-peer runs the one state machine of
:mod:`repro.skypeer.protocol`; this module is the carrier that places
what the nodes do on the paper's clocks.  The *computations* run for
real (Algorithm 1 scans, Algorithm 2 merges, BNL for the naive
baseline) and their distributed schedule is *modelled* by a
discrete-event loop (:mod:`repro.p2p.engine`): a message seizes its
directed link FIFO at the cost model's bytes, and every stamp the nodes
pass around is a whole :class:`Clock` —

* the **computational clock**, where message transfers are free
  (Figure 3(b)'s "computational time, neglecting network delays"),
* the **total clock**, where each hop costs ``bytes / bandwidth``
  (Figure 3(c)'s "total response time", 4 KB/s by default) and which
  orders the event loop, and
* **work**, the computational clock with durations replaced by points
  examined.

A computation advances all three, a transfer the total clock only, a
join takes the element-wise latest, and a relayed list keeps the stamp
it arrived with — so each component is the longest path over the same
dependency DAG.  Durations are measured wall-clock around the actual
Python computations; abstract dominance-comparison counts are
aggregated alongside for machine-independent reporting.

``execute_query`` routes over the BFS tree rooted at the initiator
(:func:`spanning_tree`: the routing the paper's figures charge, and the
one the sockets of :mod:`repro.skypeer.netexec` use too);
:func:`repro.skypeer.protocol.run_protocol` hands the same driver the
full adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..core.local_skyline import SkylineComputation
from ..core.store import SortedByF
from ..core.subspace import Subspace, normalize_subspace
from ..data.workload import Query
from ..obs.runtime import active_metrics, active_tracer
from ..p2p.engine import EventLoop, LinkLayer
from ..p2p.network import SuperPeerNetwork
from .protocol import ProtocolNode, QueryBound, make_kernels
from .variants import Variant

__all__ = [
    "Clock", "QueryExecution", "execute_query", "spanning_tree",
]


@dataclass(frozen=True)
class Clock:
    """A (computational, total, work) timestamp triple.

    ``comp`` ignores network transfers; ``total`` includes them (so
    ``comp <= total`` always).  ``work`` is the deterministic
    counterpart of ``comp``: the same longest-path computation with
    node durations replaced by *points examined* — machine-independent,
    so figures built on it cannot flake on scheduler noise, while still
    capturing the parallelism effects (e.g. progressive merging
    distributing the initiator's merge) that total-work counts miss.
    """

    comp: float = 0.0
    total: float = 0.0
    work: float = 0.0

    def after_compute(self, seconds: float, work: float = 0.0) -> "Clock":
        return Clock(self.comp + seconds, self.total + seconds, self.work + work)


@dataclass
class QueryExecution:
    """Everything measured about one distributed query."""

    query: Query
    variant: Variant
    result: SortedByF
    computational_time: float
    total_time: float
    volume_bytes: int
    message_count: int
    comparisons: int
    initial_threshold: float
    local_result_points: int
    #: Points summed over every RESULT message: what ``volume_bytes``
    #: charges an id and up to ``k`` coordinates of ``c`` low bytes for,
    #: hop by hop — the id a fixed ``w`` bytes or its gap's varint, and
    #: ``w`` and ``c`` the layouts of the message that carried the point
    #: (its ``+0.0`` coordinates cost a bitmap bit instead when the block
    #: mixes them).
    point_hops: int
    critical_path_examined: float = 0.0
    traces: dict[int, SkylineComputation] = field(default_factory=dict)

    @property
    def result_ids(self) -> frozenset[int]:
        return self.result.points.id_set()

    @property
    def volume_kb(self) -> float:
        return self.volume_bytes / 1024.0


def execute_query(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant | str = Variant.FTPM,
) -> QueryExecution:
    """Execute a subspace skyline query over the network.

    Parameters
    ----------
    network:
        A pre-processed :class:`~repro.p2p.network.SuperPeerNetwork`;
        every SKYPEER scan runs through its scan memo
        (:meth:`~repro.p2p.network.SuperPeerNetwork.scan`).
    query:
        Subspace and initiator super-peer.
    variant:
        One of the four SKYPEER variants or the naive baseline.
    """
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    return run_on_model_clocks(network, query, variant).execution


class _ModelClocks:
    """The model-clock carrier of one query, and its only observer.

    Every ``skypeer.*`` (or, for the flooded run, ``protocol.*``) counter
    and span comes from the three hooks below — a link hook
    (:meth:`_transmit`), a compute hook and a finish hook.
    """

    def __init__(
        self, network: SuperPeerNetwork, query: Query, subspace: Subspace,
        variant: Variant, obs_prefix: str,
    ):
        self.loop = EventLoop()
        self.links = LinkLayer(self.loop, network.cost_model)
        self.nodes: dict[int, ProtocolNode] = {}
        self.traces: dict[int, SkylineComputation] = {}
        self.comparisons = 0
        self.query_messages = 0
        self.point_hops = 0
        self.outcome: tuple[SortedByF, Clock] | None = None
        self._cost = network.cost_model
        self._query = query
        self._subspace = subspace
        self._label = variant.value
        self._algorithms = (
            {"scan": "bnl scan", "merge": "bnl merge"} if variant is Variant.NAIVE
            else {"scan": "algorithm1 scan", "merge": "algorithm2 merge"}
        )
        self._prefix = obs_prefix
        self._tracer = active_tracer()
        self._metrics = active_metrics()
        self._incoming: dict[int, float] = {}   # kept for the refinement counter only

    # -- messages ------------------------------------------------------
    def send_query(self, src: int, dst: int, bound: QueryBound, at: Clock) -> None:
        self.query_messages += 1

        def deliver(arrived: Clock) -> None:
            self._incoming.setdefault(dst, bound.threshold)
            self.nodes[dst].on_query(src, bound, arrived)

        nbytes = self._cost.query_bytes(len(self._subspace), bound.points)
        self._transmit("query", src, dst, nbytes, at, deliver)

    def send_result(
        self, src: int, dst: int, origin: int, result: SortedByF, final: bool, at: Clock
    ) -> None:
        self.point_hops += len(result)
        nbytes = self._cost.list_bytes(
            result.points.ids, result.points.values[:, list(self._subspace)]
        )
        self._transmit(
            "result", src, dst, nbytes, at,
            lambda arrived: self.nodes[dst].on_result(src, origin, result, final, arrived),
            points=len(result),
        )

    def decline(self, src: int, dst: int, at: Clock) -> None:
        self._transmit(
            "result", src, dst, self._cost.result_bytes(0, len(self._subspace), 0, 8, 0), at,
            lambda arrived: self.nodes[dst].on_decline(src, arrived), points=0,
        )

    def _transmit(
        self, kind: str, src: int, dst: int, nbytes: int, at: Clock,
        deliver: Callable[[Clock], None], **args: Any,
    ) -> None:
        # A transfer moves the total clock only; the event fires at its end.
        start, end = self.links.send(
            src, dst, nbytes, lambda: deliver(Clock(at.comp, self.loop.now, at.work))
        )
        if self._tracer is not None:
            self._span(
                f"{kind} hop", "transfer", f"link sp{src}->sp{dst}",
                Clock(at.comp, start, at.work), Clock(at.comp, end, at.work),
                bytes=nbytes, **args,
            )
        if self._metrics is not None:
            labels = {"variant": self._label, "kind": kind}
            self._metrics.counter(f"{self._prefix}.messages", **labels).inc()
            self._metrics.counter(f"{self._prefix}.volume_bytes", **labels).inc(nbytes)

    # -- computations --------------------------------------------------
    def compute(
        self, sp: int, phase: str, at: Clock, computation: SkylineComputation,
        then: Callable[[Clock], None],
    ) -> None:
        self.comparisons += computation.comparisons
        if phase == "scan":
            self.traces[sp] = computation
        end = at.after_compute(computation.duration, work=computation.examined)
        if self._tracer is not None:
            self._span(
                self._algorithms[phase], "compute", f"sp{sp}", at, end,
                examined=computation.examined, kept=len(computation.result),
                comparisons=computation.comparisons,
            )
        if self._metrics is not None:
            labels = {"variant": self._label, "superpeer": sp, "phase": phase}
            self._metrics.counter(f"{self._prefix}.comparisons", **labels).inc(
                computation.comparisons
            )
            self._metrics.counter(f"{self._prefix}.points_examined", **labels).inc(
                computation.examined
            )
            if phase == "scan" and computation.threshold < self._incoming.get(sp, math.inf):
                self._metrics.counter(
                    f"{self._prefix}.threshold_refinements", variant=self._label
                ).inc()
        self.loop.schedule_at(end.total, lambda: then(end))

    @staticmethod
    def join(a: Clock, b: Clock) -> Clock:
        """The stamp at which both ``a`` and ``b`` have happened: the
        element-wise max, exact for all three components because each is
        an independent longest path over the same DAG."""
        return Clock(max(a.comp, b.comp), max(a.total, b.total), max(a.work, b.work))

    # -- the answer ----------------------------------------------------
    def finish(self, result: SortedByF, at: Clock) -> None:
        self.outcome = (result, at)
        if self._tracer is not None:
            self._span(
                "query", "query", "query", Clock(), at,
                variant=self._label, subspace=str(tuple(self._subspace)),
                initiator=self._query.initiator, result_points=len(result),
            )
        if self._metrics is not None:
            self._metrics.counter(f"{self._prefix}.queries", variant=self._label).inc()
            self._metrics.counter(
                f"{self._prefix}.result_points", variant=self._label
            ).inc(len(result))
            for clock in ("comp", "total"):
                self._metrics.histogram(
                    f"{self._prefix}.query_seconds", variant=self._label, clock=clock
                ).observe(getattr(at, clock))

    def _span(
        self, name: str, category: str, track: str, start: Clock, end: Clock, **args: Any
    ) -> None:
        if self._prefix == "skypeer":
            self._tracer.span(name, category=category, track=track, start=start, end=end, **args)
        else:
            # The flooded run shows one timeline, under its own clock name.
            self._tracer.interval(
                name, category=category, track=track,
                start=start.total, end=end.total, clock=self._prefix, **args,
            )


@dataclass
class ModelRun:
    """One query on the model clocks: the report, plus what only a
    flooded run makes interesting."""

    execution: QueryExecution
    query_messages: int
    duplicate_queries: int
    events: int


def run_on_model_clocks(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant,
    *,
    neighbours: Mapping[int, Sequence[int]] | None = None,
    obs_prefix: str = "skypeer",
) -> ModelRun:
    """Run one :class:`~repro.skypeer.protocol.ProtocolNode` per
    super-peer over the discrete-event loop.

    ``neighbours`` is the routing: ``None`` gives every super-peer its
    BFS-tree edges (so the query travels a spanning tree and nothing is
    declined), the topology's adjacency floods.  Either way merge inputs
    are ranked by BFS position.
    """
    subspace = normalize_subspace(query.subspace, network.dimensionality)
    root = query.initiator
    tree, rank = spanning_tree(network, root)
    if neighbours is None:
        neighbours = tree
    kernels = make_kernels(variant, subspace, network)
    carrier = _ModelClocks(network, query, subspace, variant, obs_prefix)
    for sp in rank:
        carrier.nodes[sp] = ProtocolNode(
            sp, neighbours=neighbours[sp], variant=variant, kernels=kernels,
            carrier=carrier, rank=rank.__getitem__,
        )
    carrier.nodes[root].start(Clock())
    events = carrier.loop.run()
    duplicate_queries = sum(node.duplicate_queries for node in carrier.nodes.values())
    # The nodes and their carrier refer to each other.  Dropping the nodes
    # lets a query's lists go by reference count the moment it returns,
    # not whenever the cycle collector next runs (a serving worker's RSS).
    carrier.nodes.clear()
    if carrier.outcome is None:
        raise RuntimeError("query terminated without producing a result")
    result, finish = carrier.outcome
    traces = carrier.traces
    execution = QueryExecution(
        query=query,
        variant=variant,
        result=result,
        computational_time=finish.comp,
        total_time=finish.total,
        volume_bytes=carrier.links.bytes_sent,
        message_count=carrier.links.messages_sent,
        comparisons=carrier.comparisons,
        initial_threshold=traces[root].threshold,
        local_result_points=sum(len(scan.result) for scan in traces.values()),
        point_hops=carrier.point_hops,
        critical_path_examined=finish.work,
        traces=traces,
    )
    return ModelRun(
        execution=execution,
        query_messages=carrier.query_messages,
        duplicate_queries=duplicate_queries,
        events=events,
    )


def spanning_tree(
    network: SuperPeerNetwork, root: int
) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
    """The routing of one query: the backbone's BFS tree rooted at ``root``.

    Returns every super-peer's tree neighbours (its children, then its
    parent) and its BFS position, both keyed in BFS order.  The position
    ranks a node's merge inputs, so every carrier that routes on the
    tree merges the same lists in the same order.
    """
    if root not in network.superpeers:
        raise KeyError(f"unknown initiator super-peer {root}")
    parent, children = network.topology.bfs_tree(root)
    order = _bfs_preorder(root, children)
    neighbours = {
        sp: children[sp] + (() if parent[sp] is None else (parent[sp],))
        for sp in order
    }
    return neighbours, {sp: position for position, sp in enumerate(order)}


def _bfs_preorder(root: int, children: dict[int, tuple[int, ...]]) -> list[int]:
    """Breadth-first visitation order of the propagation tree."""
    order = [root]
    cursor = 0
    while cursor < len(order):
        order.extend(children[order[cursor]])
        cursor += 1
    return order
