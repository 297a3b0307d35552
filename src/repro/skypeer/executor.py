"""Algorithm 3 — distributed execution of a subspace skyline query.

The executor runs the *computations* of every super-peer for real
(Algorithm 1 scans, Algorithm 2 merges, BNL for the naive baseline) and
*models* their distributed schedule: query propagation follows the BFS
tree of the super-peer backbone rooted at the initiator, results flow
back up, and every step is stamped on two clocks —

* the **computational clock**, where message transfers are free
  (Figure 3(b)'s "computational time, neglecting network delays"), and
* the **total clock**, where each hop costs ``bytes / bandwidth``
  (Figure 3(c)'s "total response time", 4 KB/s by default).

Both clocks are longest-path times over the same dependency DAG, so a
single pass computes them together.  Durations are measured wall-clock
around the actual Python computations; abstract dominance-comparison
counts are aggregated alongside for machine-independent reporting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..algorithms.bnl import block_nested_loops
from ..core.dataset import PointSet
from ..core.local_skyline import SkylineComputation
from ..core.merging import merge_sorted_skylines
from ..core.store import SortedByF
from ..core.subspace import Subspace, normalize_subspace
from ..data.workload import Query
from ..obs.runtime import active_metrics, active_tracer
from ..p2p.network import SuperPeerNetwork
from ..p2p.simulation import TransferRequest, simulate_transfers
from .variants import Variant

__all__ = ["Clock", "QueryExecution", "execute_query", "make_local_compute"]


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

    def after_transfer(self, seconds: float) -> "Clock":
        return Clock(self.comp, self.total + seconds, self.work)

    @staticmethod
    def latest(clocks: Sequence["Clock"]) -> "Clock":
        """Element-wise max — the join point of parallel branches.

        Each component is an independent longest-path metric over the
        same DAG, so the element-wise max is exact for all three.
        """
        if not clocks:
            return Clock()
        return Clock(
            comp=max(c.comp for c in clocks),
            total=max(c.total for c in clocks),
            work=max(c.work for c in clocks),
        )


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
    critical_path_examined: float = 0.0
    traces: dict[int, SkylineComputation] = field(default_factory=dict)

    @property
    def result_ids(self) -> frozenset[int]:
        return self.result.points.id_set()

    @property
    def volume_kb(self) -> float:
        return self.volume_bytes / 1024.0


#: Strategy signature for per-super-peer local computations: given the
#: super-peer id, the subspace and the incoming threshold, produce the
#: local result.  The default runs Algorithm 1 over the super-peer's
#: store; the query cache substitutes a prefix lookup.
LocalCompute = "Callable[[int, Subspace, float], SkylineComputation]"


def make_local_compute(
    network: SuperPeerNetwork,
    index_kind: str | None = None,
    scan_chunk: int | None = None,
    scan_substrate: str | None = None,
    partitioner: str | None = None,
    partition_parts: int | None = None,
    engine=None,
):
    """Build the default per-super-peer Algorithm-1 strategy.

    The scan cell is selected by ``scan_substrate`` (``sorted``/``bbs``/
    ``salsa``; env ``REPRO_SCAN_SUBSTRATE``) and ``partitioner``
    (``none``/``range``/``angular``; env ``REPRO_PARTITION``) — resolved
    and checked here, once, so every scan of the query agrees and an
    unsupported combination (a partitioner with ``bbs``/``salsa``)
    raises before any scan runs.  This is the one place that decides
    whole-store vs partitioned and pool vs in-process: with a
    partitioner and an ``engine``
    (:class:`~repro.parallel.engine.ParallelEngine`), each scan fans its
    slices over the engine's worker pool
    (:meth:`~repro.parallel.engine.ParallelEngine.run_partitioned_scan`);
    without an engine the slices run in-process, which still realizes
    the angular comparison savings.  Every cell returns results
    byte-identical to the plain sorted scan.
    """
    from ..core.substrates import subspace_skyline
    from ..parallel.partition import (
        partitioned_subspace_skyline,
        resolve_partition_parts,
        resolve_scan_cell,
    )

    index_kind = index_kind or network.index_kind
    substrate, part_kind = resolve_scan_cell(scan_substrate, partitioner)
    if part_kind == "none":
        def local_compute(sp: int, sub, threshold: float) -> SkylineComputation:
            return subspace_skyline(
                network.store_of(sp), sub, initial_threshold=threshold,
                substrate=substrate, index_kind=index_kind, scan_chunk=scan_chunk,
            )
        return local_compute
    # Fixed default on purpose (never the pool size): the slice count
    # shapes `examined`/`comparisons`, and a query must account
    # identically whether it runs serially, with an engine, or on a
    # differently-sized pool.
    parts = resolve_partition_parts(partition_parts)
    if engine is not None:
        def local_compute(sp: int, sub, threshold: float) -> SkylineComputation:
            return engine.run_partitioned_scan(
                network, sp, sub, initial_threshold=threshold,
                partitioner=part_kind, parts=parts, scan_chunk=scan_chunk,
            )
    else:
        def local_compute(sp: int, sub, threshold: float) -> SkylineComputation:
            return partitioned_subspace_skyline(
                network.store_of(sp), sub, initial_threshold=threshold,
                partitioner=part_kind, parts=parts, scan_chunk=scan_chunk,
            )
    return local_compute


def execute_query(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant | str = Variant.FTPM,
    index_kind: str | None = None,
    local_compute=None,
    scan_chunk: int | None = None,
    scan_substrate: str | None = None,
    partitioner: str | None = None,
    partition_parts: int | None = None,
    engine=None,
) -> QueryExecution:
    """Execute a subspace skyline query over the network.

    Parameters
    ----------
    network:
        A pre-processed :class:`~repro.p2p.network.SuperPeerNetwork`.
    query:
        Subspace and initiator super-peer.
    variant:
        One of the four SKYPEER variants or the naive baseline.
    index_kind:
        Dominance index override (defaults to the network's).
    local_compute:
        Optional strategy replacing the per-super-peer Algorithm 1 run
        (see :mod:`repro.skypeer.cache`); ignored by the naive baseline.
        When given, the scan-kernel knobs below are ignored too — the
        strategy owns the scan.
    scan_chunk:
        Batch size override for the vectorized scans (see
        :func:`repro.core.local_skyline.resolve_scan_chunk`).
    scan_substrate, partitioner, partition_parts, engine:
        Scan-kernel selection for the default strategy; see
        :func:`make_local_compute`.  Ignored by the naive baseline.
    """
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    index_kind = index_kind or network.index_kind
    subspace = normalize_subspace(query.subspace, network.dimensionality)
    if query.initiator not in network.superpeers:
        raise KeyError(f"unknown initiator super-peer {query.initiator}")

    if variant is Variant.NAIVE:
        return _execute_naive(network, query, subspace)
    if local_compute is None:
        local_compute = make_local_compute(
            network, index_kind=index_kind, scan_chunk=scan_chunk,
            scan_substrate=scan_substrate, partitioner=partitioner,
            partition_parts=partition_parts, engine=engine,
        )
    return _execute_skypeer(
        network, query, subspace, variant, index_kind, local_compute, scan_chunk
    )


# ----------------------------------------------------------------------
# SKYPEER variants
# ----------------------------------------------------------------------
def _execute_skypeer(
    network: SuperPeerNetwork,
    query: Query,
    subspace: Subspace,
    variant: Variant,
    index_kind: str,
    local_compute,
    scan_chunk: int | None = None,
) -> QueryExecution:
    topology = network.topology
    cost = network.cost_model
    root = query.initiator
    parent, children = topology.bfs_tree(root)
    order = _bfs_preorder(root, children)
    k = len(subspace)
    query_delay = cost.transfer_seconds(cost.query_bytes(k))
    tracer = active_tracer()
    metrics = active_metrics()

    # ------------------------------------------------------------------
    # Phase 1: local computations (Algorithm 1 at every super-peer).
    # The initiator always runs first to obtain the initial threshold t.
    # ------------------------------------------------------------------
    local: dict[int, SkylineComputation] = {}
    local[root] = local_compute(root, subspace, math.inf)
    initial_threshold = local[root].threshold
    refined: dict[int, float] = {root: initial_threshold}
    for sp in order[1:]:
        incoming = refined[parent[sp]] if variant.refined_threshold else initial_threshold
        local[sp] = local_compute(sp, subspace, incoming)
        refined[sp] = local[sp].threshold
    if metrics is not None:
        for sp in order:
            comp = local[sp]
            metrics.counter(
                "skypeer.points_examined",
                variant=variant.value, superpeer=sp, phase="scan",
            ).inc(comp.examined)
            metrics.counter(
                "skypeer.comparisons",
                variant=variant.value, superpeer=sp, phase="scan",
            ).inc(comp.comparisons)
            incoming = (
                math.inf if sp == root
                else refined[parent[sp]] if variant.refined_threshold
                else initial_threshold
            )
            if comp.threshold < incoming:
                metrics.counter(
                    "skypeer.threshold_refinements", variant=variant.value
                ).inc()

    # ------------------------------------------------------------------
    # Phase 2: schedule query propagation on both clocks.
    # RT* forwards only after the local computation; FT* relays at once.
    # ------------------------------------------------------------------
    arrive: dict[int, Clock] = {root: Clock()}
    compute_end: dict[int, Clock] = {}
    forward_ready: dict[int, Clock] = {}
    for sp in order:
        duration = local[sp].duration
        scanned = local[sp].examined
        compute_end[sp] = arrive[sp].after_compute(duration, work=scanned)
        if sp == root or variant.refined_threshold:
            # P_init computes before forwarding (it needs t); RT* nodes
            # refine the threshold before forwarding.
            forward_ready[sp] = compute_end[sp]
        else:
            forward_ready[sp] = arrive[sp]
        if tracer is not None:
            tracer.span(
                "algorithm1 scan", category="compute", track=f"sp{sp}",
                start=arrive[sp], end=compute_end[sp],
                examined=scanned, kept=len(local[sp].result),
                comparisons=local[sp].comparisons,
            )
        for child in children[sp]:
            arrive[child] = forward_ready[sp].after_transfer(query_delay)
            if tracer is not None:
                tracer.span(
                    "query hop", category="transfer",
                    track=f"link sp{sp}->sp{child}",
                    start=forward_ready[sp], end=arrive[child],
                    bytes=cost.query_bytes(k),
                )

    query_messages = len(order) - 1
    volume = cost.query_bytes(k) * query_messages
    messages = query_messages
    comparisons = sum(comp.comparisons for comp in local.values())
    if metrics is not None:
        metrics.counter(
            "skypeer.messages", variant=variant.value, kind="query"
        ).inc(query_messages)
        metrics.counter(
            "skypeer.volume_bytes", variant=variant.value, kind="query"
        ).inc(cost.query_bytes(k) * query_messages)

    # ------------------------------------------------------------------
    # Phase 3: results flow back (merging strategy).
    # ------------------------------------------------------------------
    if variant.progressive_merging:
        up_list: dict[int, SortedByF] = {}
        up_ready: dict[int, Clock] = {}
        merge_traces: dict[int, SkylineComputation] = {}
        for sp in reversed(order):
            kids = children[sp]
            if not kids:
                up_list[sp] = local[sp].result
                up_ready[sp] = compute_end[sp]
                continue
            inbound: list[Clock] = [compute_end[sp]]
            for child in kids:
                child_bytes = cost.result_bytes(len(up_list[child]), k)
                volume += child_bytes
                messages += 1
                delivered_at = up_ready[child].after_transfer(
                    cost.transfer_seconds(child_bytes)
                )
                inbound.append(delivered_at)
                if tracer is not None:
                    tracer.span(
                        "result hop", category="transfer",
                        track=f"link sp{child}->sp{sp}",
                        start=up_ready[child], end=delivered_at,
                        bytes=child_bytes, points=len(up_list[child]),
                    )
                if metrics is not None:
                    metrics.counter(
                        "skypeer.messages", variant=variant.value, kind="result"
                    ).inc()
                    metrics.counter(
                        "skypeer.volume_bytes", variant=variant.value, kind="result"
                    ).inc(child_bytes)
            merged = merge_sorted_skylines(
                [local[sp].result] + [up_list[c] for c in kids],
                subspace,
                index_kind=index_kind,
                scan_chunk=scan_chunk,
            )
            merge_traces[sp] = merged
            comparisons += merged.comparisons
            up_list[sp] = merged.result
            merge_start = Clock.latest(inbound)
            up_ready[sp] = merge_start.after_compute(
                merged.duration, work=merged.examined
            )
            if tracer is not None:
                tracer.span(
                    "algorithm2 merge", category="compute", track=f"sp{sp}",
                    start=merge_start, end=up_ready[sp],
                    inputs=len(kids) + 1, examined=merged.examined,
                    kept=len(merged.result), comparisons=merged.comparisons,
                )
            if metrics is not None:
                metrics.counter(
                    "skypeer.comparisons",
                    variant=variant.value, superpeer=sp, phase="merge",
                ).inc(merged.comparisons)
                metrics.counter(
                    "skypeer.points_examined",
                    variant=variant.value, superpeer=sp, phase="merge",
                ).inc(merged.examined)
        final_result = up_list[root]
        finish = up_ready[root]
    else:
        paths = _paths_to_root(order, parent)
        requests = []
        lists: list[SortedByF] = [local[root].result]
        for sp in order[1:]:
            nbytes = cost.result_bytes(len(local[sp].result), k)
            volume += nbytes * len(paths[sp])
            messages += len(paths[sp])
            requests.append(
                TransferRequest(
                    message_id=sp,
                    ready_at=compute_end[sp].total,
                    path=paths[sp],
                    seconds_per_hop=cost.transfer_seconds(nbytes),
                )
            )
            lists.append(local[sp].result)
        delivered = simulate_transfers(requests)
        inbound = [compute_end[root]] + [
            Clock(comp=compute_end[sp].comp, total=delivered[sp]) for sp in order[1:]
        ]
        if tracer is not None:
            for sp in order[1:]:
                tracer.interval(
                    "result relay", category="transfer", track=f"result sp{sp}",
                    start=compute_end[sp].total, end=delivered[sp],
                    hops=len(paths[sp]), points=len(local[sp].result),
                )
        if metrics is not None:
            for sp in order[1:]:
                nbytes = cost.result_bytes(len(local[sp].result), k)
                metrics.counter(
                    "skypeer.messages", variant=variant.value, kind="result"
                ).inc(len(paths[sp]))
                metrics.counter(
                    "skypeer.volume_bytes", variant=variant.value, kind="result"
                ).inc(nbytes * len(paths[sp]))
        merged = merge_sorted_skylines(
            lists, subspace, index_kind=index_kind, scan_chunk=scan_chunk
        )
        comparisons += merged.comparisons
        final_result = merged.result
        merge_start = Clock.latest(inbound)
        finish = merge_start.after_compute(merged.duration, work=merged.examined)
        if tracer is not None:
            tracer.span(
                "algorithm2 merge", category="compute", track=f"sp{root}",
                start=merge_start, end=finish,
                inputs=len(lists), examined=merged.examined,
                kept=len(merged.result), comparisons=merged.comparisons,
            )
        if metrics is not None:
            metrics.counter(
                "skypeer.comparisons",
                variant=variant.value, superpeer=root, phase="merge",
            ).inc(merged.comparisons)
            metrics.counter(
                "skypeer.points_examined",
                variant=variant.value, superpeer=root, phase="merge",
            ).inc(merged.examined)

    if tracer is not None:
        tracer.span(
            "query", category="query", track="query",
            start=Clock(), end=finish,
            variant=variant.value, subspace=str(tuple(subspace)),
            initiator=root, result_points=len(final_result),
        )
    if metrics is not None:
        metrics.counter("skypeer.queries", variant=variant.value).inc()
        metrics.counter(
            "skypeer.result_points", variant=variant.value
        ).inc(len(final_result))
        metrics.histogram(
            "skypeer.query_seconds", variant=variant.value, clock="comp"
        ).observe(finish.comp)
        metrics.histogram(
            "skypeer.query_seconds", variant=variant.value, clock="total"
        ).observe(finish.total)

    return QueryExecution(
        query=query,
        variant=variant,
        result=final_result,
        computational_time=finish.comp,
        total_time=finish.total,
        volume_bytes=volume,
        message_count=messages,
        comparisons=comparisons,
        initial_threshold=initial_threshold,
        local_result_points=sum(len(comp.result) for comp in local.values()),
        critical_path_examined=finish.work,
        traces=local,
    )


# ----------------------------------------------------------------------
# Naive baseline (section 3.2)
# ----------------------------------------------------------------------
def _execute_naive(
    network: SuperPeerNetwork, query: Query, subspace: Subspace
) -> QueryExecution:
    """Plain distributed skyline: BNL local skylines, central BNL merge.

    No f(p) mapping, no threshold, no early termination: every
    super-peer computes its full local subspace skyline, ships it whole
    to the initiator (intermediates relay), and the initiator removes
    the globally dominated points from the concatenation.
    """
    topology = network.topology
    cost = network.cost_model
    root = query.initiator
    parent, children = topology.bfs_tree(root)
    order = _bfs_preorder(root, children)
    k = len(subspace)
    query_delay = cost.transfer_seconds(cost.query_bytes(k))
    tracer = active_tracer()
    metrics = active_metrics()
    variant_label = Variant.NAIVE.value

    local: dict[int, PointSet] = {}
    durations: dict[int, float] = {}
    bnl_stats: dict = {"comparisons": 0}
    scan_comparisons: dict[int, int] = {}
    for sp in order:
        store = network.store_of(sp)
        started = time.perf_counter()
        before = bnl_stats["comparisons"]
        local[sp] = block_nested_loops(store.points, subspace, stats=bnl_stats)
        durations[sp] = time.perf_counter() - started
        scan_comparisons[sp] = bnl_stats["comparisons"] - before

    arrive: dict[int, Clock] = {root: Clock()}
    compute_end: dict[int, Clock] = {}
    for sp in order:
        compute_end[sp] = arrive[sp].after_compute(
            durations[sp], work=len(network.store_of(sp))
        )
        if tracer is not None:
            tracer.span(
                "bnl scan", category="compute", track=f"sp{sp}",
                start=arrive[sp], end=compute_end[sp],
                examined=len(network.store_of(sp)), kept=len(local[sp]),
                comparisons=scan_comparisons[sp],
            )
        if metrics is not None:
            metrics.counter(
                "skypeer.points_examined",
                variant=variant_label, superpeer=sp, phase="scan",
            ).inc(len(network.store_of(sp)))
            metrics.counter(
                "skypeer.comparisons",
                variant=variant_label, superpeer=sp, phase="scan",
            ).inc(scan_comparisons[sp])
        for child in children[sp]:
            # Nothing to wait for: the query is forwarded on receipt.
            arrive[child] = arrive[sp].after_transfer(query_delay)
            if tracer is not None:
                tracer.span(
                    "query hop", category="transfer",
                    track=f"link sp{sp}->sp{child}",
                    start=arrive[sp], end=arrive[child],
                    bytes=cost.query_bytes(k),
                )

    query_messages = len(order) - 1
    volume = cost.query_bytes(k) * query_messages
    messages = query_messages
    if metrics is not None:
        metrics.counter(
            "skypeer.messages", variant=variant_label, kind="query"
        ).inc(query_messages)
        metrics.counter(
            "skypeer.volume_bytes", variant=variant_label, kind="query"
        ).inc(cost.query_bytes(k) * query_messages)

    paths = _paths_to_root(order, parent)
    requests = []
    for sp in order[1:]:
        nbytes = cost.result_bytes(len(local[sp]), k)
        volume += nbytes * len(paths[sp])
        messages += len(paths[sp])
        if metrics is not None:
            metrics.counter(
                "skypeer.messages", variant=variant_label, kind="result"
            ).inc(len(paths[sp]))
            metrics.counter(
                "skypeer.volume_bytes", variant=variant_label, kind="result"
            ).inc(nbytes * len(paths[sp]))
        requests.append(
            TransferRequest(
                message_id=sp,
                ready_at=compute_end[sp].total,
                path=paths[sp],
                seconds_per_hop=cost.transfer_seconds(nbytes),
            )
        )
    delivered = simulate_transfers(requests)
    inbound = [compute_end[root]] + [
        Clock(comp=compute_end[sp].comp, total=delivered[sp]) for sp in order[1:]
    ]
    if tracer is not None:
        for sp in order[1:]:
            tracer.interval(
                "result relay", category="transfer", track=f"result sp{sp}",
                start=compute_end[sp].total, end=delivered[sp],
                hops=len(paths[sp]), points=len(local[sp]),
            )

    non_empty = [local[sp] for sp in order if len(local[sp])]
    merge_before = bnl_stats["comparisons"]
    if non_empty:
        stacked = PointSet.concat(non_empty)
        started = time.perf_counter()
        final_points = block_nested_loops(stacked, subspace, stats=bnl_stats)
        merge_duration = time.perf_counter() - started
        merge_examined = len(stacked)
    else:
        final_points = PointSet.empty(network.dimensionality)
        merge_duration = 0.0
        merge_examined = 0
    merge_start = Clock.latest(inbound)
    finish = merge_start.after_compute(merge_duration, work=merge_examined)
    if tracer is not None:
        tracer.span(
            "bnl merge", category="compute", track=f"sp{root}",
            start=merge_start, end=finish,
            examined=merge_examined, kept=len(final_points),
            comparisons=bnl_stats["comparisons"] - merge_before,
        )
        tracer.span(
            "query", category="query", track="query",
            start=Clock(), end=finish,
            variant=variant_label, subspace=str(tuple(subspace)),
            initiator=root, result_points=len(final_points),
        )
    if metrics is not None:
        metrics.counter(
            "skypeer.comparisons",
            variant=variant_label, superpeer=root, phase="merge",
        ).inc(bnl_stats["comparisons"] - merge_before)
        metrics.counter(
            "skypeer.points_examined",
            variant=variant_label, superpeer=root, phase="merge",
        ).inc(merge_examined)
        metrics.counter("skypeer.queries", variant=variant_label).inc()
        metrics.counter(
            "skypeer.result_points", variant=variant_label
        ).inc(len(final_points))
        metrics.histogram(
            "skypeer.query_seconds", variant=variant_label, clock="comp"
        ).observe(finish.comp)
        metrics.histogram(
            "skypeer.query_seconds", variant=variant_label, clock="total"
        ).observe(finish.total)

    return QueryExecution(
        query=query,
        variant=Variant.NAIVE,
        result=SortedByF.from_points(final_points),
        computational_time=finish.comp,
        total_time=finish.total,
        volume_bytes=volume,
        message_count=messages,
        comparisons=bnl_stats["comparisons"],
        initial_threshold=math.inf,
        local_result_points=sum(len(ps) for ps in local.values()),
        critical_path_examined=finish.work,
        traces={},
    )


def _bfs_preorder(root: int, children: dict[int, tuple[int, ...]]) -> list[int]:
    """Breadth-first visitation order of the propagation tree."""
    order = [root]
    cursor = 0
    while cursor < len(order):
        order.extend(children[order[cursor]])
        cursor += 1
    return order


def _paths_to_root(
    order: Sequence[int], parent: dict[int, int | None]
) -> dict[int, tuple[tuple[int, int], ...]]:
    """Directed-edge path from every super-peer up to the tree root."""
    paths: dict[int, tuple[tuple[int, int], ...]] = {}
    for sp in order:
        par = parent[sp]
        if par is None:
            paths[sp] = ()
        else:
            paths[sp] = ((sp, par),) + paths[par]
    return paths
