"""The persistent process-pool engine: lifecycle, batching, affinity.

Design notes
------------
*Persistence.*  PR 2 spun a fresh ``ProcessPoolExecutor`` (and shipped
a fresh ``.npz`` snapshot) for every ``run_queries`` call, so pool
startup and per-task IPC dominated exactly the many-small-queries
regimes the paper evaluates.  :class:`ParallelEngine` is created once
and reused: workers stay warm across calls and whole bench sweeps, and
each network is *published* once, into a segment of the shared-memory
data plane (:mod:`repro.parallel.shm`) that workers attach zero-copy.
It is the only way data reaches a worker, and it is byte-faithful: the
worker sees the parent's stores verbatim, so intra-query partition
slices computed on either side agree.

*Batching and subspace affinity.*  Tasks are submitted as chunks, not
one IPC round-trip per (query, variant) pair.  Chunks are formed by
grouping tasks on the query subspace, so queries over the same
subspace run on the same worker, where the block cache replays their
repeated scans and the per-subspace R-tree / SaLSa-order caches on
:class:`~repro.core.store.SortedByF` hit across queries and variants.
Each worker caches a small number of attached networks, so sweeps
alternating between configurations do not re-attach per batch.

*Pool before data.*  Workers fork from whatever heap the parent has
when the engine is created, and never read it — they attach the
published segment instead.  A long-lived host therefore creates the
engine *first* and builds its network with ``build(engine=...)``:
workers fork from an import-only parent, Section 5.3 pre-processing
fans out over them, and the pre-processing publication (the raw
partitions) is withdrawn as soon as that fan-out returns.

*Determinism.*  Every task carries its index in the serial loop's
iteration order and the parent reassembles results by index, so the
aggregated statistics cannot depend on chunking or worker scheduling.
Metric snapshots ride back one per batch and merge commutatively.

*Observability.*  Workers never install a tracer (spans model the
simulated distributed schedule, which the parent owns).  When the
parent has an active :class:`~repro.obs.metrics.MetricsRegistry`, each
batch records into a fresh worker-local registry and ships its
snapshot back; the parent additionally emits ``parallel.*`` counters
and histograms describing the engine itself (batches, tasks, attach
timings) — see :class:`EngineStats`.
"""

from __future__ import annotations

import atexit
import contextlib
import copy
import math
import multiprocessing
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .shm import (
    AttachedNetwork,
    attach_network,
    manifest_data_nbytes,
    publish_network,
    sweep_dead_publishers,
)
from .shmcache import make_key

if TYPE_CHECKING:  # imports deferred at runtime to keep workers lean
    from ..data.workload import Query
    from ..p2p.network import SuperPeerNetwork, SuperPeerPreprocess
    from ..skypeer.executor import QueryExecution
    from ..skypeer.variants import Variant

__all__ = [
    "EngineStats",
    "PIN_ENV",
    "ParallelEngine",
    "UpdateReport",
    "default_workers",
    "get_engine",
    "pin_cpus_enabled",
    "preprocess_network_parallel",
    "resolve_workers",
    "run_queries_parallel",
    "set_default_workers",
    "shutdown_engines",
    "start_method",
]

#: ``REPRO_PIN_CPUS=1`` pins each pool worker to one CPU via
#: ``os.sched_setaffinity`` (round-robin over the parent's affinity
#: mask); default off, and a silent no-op on platforms without it.
PIN_ENV = "REPRO_PIN_CPUS"


def pin_cpus_enabled() -> bool:
    return os.environ.get(PIN_ENV, "").strip().lower() in ("1", "on", "yes", "true")


#: Ambient worker count (CLI ``--workers`` / ``REPRO_WORKERS``) applied
#: when the bench harness is called without an explicit value.
_DEFAULT_WORKERS: int | None = None

#: Chunks per worker targeted by the batcher: small enough to amortize
#: IPC, large enough to rebalance when chunk costs are uneven.
_BATCH_OVERSUBSCRIBE = 4

#: Networks kept attached per worker (sweeps alternate between a
#: handful of configurations; the cap merely bounds memory).
_WORKER_CACHE_CAP = 4

#: Publications kept per engine before the least recently used one is
#: withdrawn (its segments unlinked).
_PUBLICATION_CAP = 8


def set_default_workers(workers: int | None) -> None:
    """Set the ambient worker count (``None`` restores serial/env)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = workers


def default_workers() -> int | None:
    """The ambient worker count: ``set_default_workers`` or env."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    raw = os.environ.get("REPRO_WORKERS")
    return int(raw) if raw else None


def resolve_workers(workers: int | None, use_default: bool = True) -> int:
    """Normalize a worker-count request to an effective pool size.

    ``None`` consults the ambient default (unless ``use_default`` is
    off) and falls back to serial; ``0``/``1`` mean serial; a negative
    value means "one per CPU".
    """
    if workers is None and use_default:
        workers = default_workers()
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


def start_method() -> str:
    """The multiprocessing start method (``REPRO_MP_START`` or platform pick).

    ``fork`` is preferred where available: worker startup is cheap and
    workers attach their data explicitly anyway.
    """
    raw = os.environ.get("REPRO_MP_START")
    available = multiprocessing.get_all_start_methods()
    if raw:
        if raw not in available:
            raise ValueError(
                f"REPRO_MP_START={raw!r} not available; expected one of {available}"
            )
        return raw
    return "fork" if "fork" in available else "spawn"


# ----------------------------------------------------------------------
# worker-side state and task functions
# ----------------------------------------------------------------------
#: token -> attached publication (its network and block cache); LRU, capped.
_WORKER_NETWORKS: "OrderedDict[str, AttachedNetwork]" = OrderedDict()


def _noop() -> None:
    """Warm-up task: forces worker processes to start."""


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.25


def _worker_init(parent_pid: int | None, counter: Any) -> None:
    """Pool initializer: end with the parent; pin to one CPU if asked.

    A SIGKILLed parent runs no shutdown, and its workers would idle on
    the pool queue for good.  Each worker therefore watches its parent
    pid from a daemon thread and exits once it is reparented.  (Not
    ``PR_SET_PDEATHSIG``: that signal fires when the *thread* that forked
    the worker ends, and a pool may fork from a short-lived thread.)
    ``counter`` is ``None`` unless the workers pin themselves: then each
    claims an ordinal from it.  ``parent_pid=None`` watches the parent
    the worker finds at start.
    """
    parent = os.getppid() if parent_pid is None else parent_pid
    threading.Thread(
        target=_exit_when_orphaned, args=(parent,), name="parent-watch", daemon=True
    ).start()
    if counter is None:
        return
    with counter.get_lock():
        ordinal = counter.value
        counter.value += 1
    _apply_pinning(ordinal)


def _exit_when_orphaned(parent_pid: int) -> None:
    """Poll until ``parent_pid`` is no longer this process's parent, then exit."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(0)


def _apply_pinning(ordinal: int) -> int | None:
    """Pin the current process to one CPU; returns it (None = no-op).

    Round-robins over the inherited affinity mask so co-scheduled
    engines interleave rather than pile onto CPU 0.  Platforms without
    ``sched_setaffinity`` (macOS, Windows) fall through silently.
    """
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if not cpus:  # pragma: no cover - defensive
            return None
        cpu = cpus[ordinal % len(cpus)]
        os.sched_setaffinity(0, {cpu})
    except OSError:  # pragma: no cover - containers may forbid it
        return None
    return cpu


def _materialize(spec: dict[str, Any]) -> tuple[AttachedNetwork, dict[str, Any] | None]:
    """Return the spec's attached publication, attaching on first use.

    The second element reports what this call cost (``None`` on a cache
    hit): ``{"mode": "shm", "seconds": ...}`` for a first attach,
    ``"shm-delta"`` plus the re-mapped slots and bytes for a refresh.
    """
    token = spec["token"]
    manifest = spec["manifest"]
    attached = _WORKER_NETWORKS.get(token)
    if attached is not None:
        _WORKER_NETWORKS.move_to_end(token)
        if int(manifest.get("subepoch", 0)) == attached.subepoch:
            return attached, None
        # Same publication, newer sub-epoch: re-map only the slots whose
        # generation advanced instead of attaching the whole network.
        started = time.perf_counter()
        delta = attached.refresh(manifest)
        seconds = time.perf_counter() - started
        return attached, {"mode": "shm-delta", "seconds": seconds, **delta}
    started = time.perf_counter()
    attached = attach_network(manifest)
    seconds = time.perf_counter() - started
    while len(_WORKER_NETWORKS) >= _WORKER_CACHE_CAP:
        _WORKER_NETWORKS.popitem(last=False)[1].close()
    _WORKER_NETWORKS[token] = attached
    return attached, {"mode": "shm", "seconds": seconds}


def _cached_local_compute(
    network: Any,
    cache: Any,
    scan_chunk: int,
    substrate: str,
    partitioner: str,
    parts: int,
):
    """Algorithm 1 with a block-cache probe in front of every scan.

    The scan itself is whatever
    :func:`~repro.skypeer.executor.make_local_compute` picks for the
    (already resolved) knobs.  Hits *replay* the cached scan — result
    rebuilt from store positions (byte-identical, the store arrays are
    shared), work counters restored verbatim — so serial-vs-parallel
    determinism holds even when the scan never runs.  The key carries
    everything the counters depend on (store, subspace, threshold bits,
    index kind, chunk, scan substrate, partitioner and slice count —
    ``examined``/``comparisons`` differ per substrate even though the
    result set does not); FT-variant siblings share thresholds, so their
    scans hit across variants.  Payload views are copied before
    validation and a failed validation falls through to the real scan.
    """
    import numpy as np

    from ..core.local_skyline import SkylineComputation
    from ..skypeer.executor import make_local_compute

    index_kind = network.index_kind
    compute = make_local_compute(
        network, index_kind=index_kind, scan_chunk=scan_chunk,
        scan_substrate=substrate, partitioner=partitioner, partition_parts=parts,
    )

    def local_compute(sp: int, subspace: Any, threshold: float) -> SkylineComputation:
        cols = tuple(int(c) for c in subspace)
        store = network.store_of(sp)
        # The store generation invalidates by *slot*: an update to one
        # super-peer moves only its generation, so every other slot's
        # cached scans keep hitting across the epoch bump.
        generation = network.store_generations.get(sp, 0)
        scan_key = make_key(
            "scan", sp, generation, cols, float(threshold), index_kind, scan_chunk,
            substrate, partitioner, parts,
        )
        hit = cache.get(scan_key)
        if hit is not None:
            meta, arrays, token = hit
            positions = np.array(arrays["positions"], dtype=np.int64, copy=True)
            if cache.still_valid(token):
                try:
                    return SkylineComputation.replay(
                        store, positions,
                        threshold=meta["threshold"], examined=meta["examined"],
                        comparisons=meta["comparisons"],
                        input_size=meta["input_size"],
                    )
                except (IndexError, ValueError):
                    cache.stats.invalid += 1
            else:
                cache.stats.invalid += 1
        computation = compute(sp, cols, threshold)
        if computation.positions is not None:
            cache.put(
                scan_key,
                {
                    "threshold": computation.threshold,
                    "examined": computation.examined,
                    "comparisons": computation.comparisons,
                    "input_size": computation.input_size,
                },
                {"positions": computation.positions},
            )
        return computation

    return local_compute


def _run_query_batch(
    spec: dict[str, Any],
    tasks: Sequence[tuple[int, "Query", str]],
    collect_metrics: bool,
    scan_chunk: int | None,
    substrate: str,
    partitioner: str,
    parts: int,
) -> dict[str, Any]:
    """Execute one chunk of (index, query, variant) tasks.

    ``substrate``/``partitioner``/``parts`` arrive resolved by the
    parent (argument over env), so worker processes never consult their
    own environment and a spawn-started pool behaves like a forked one.
    """
    from ..obs.metrics import MetricsRegistry
    from ..obs.runtime import install, uninstall
    from ..skypeer.executor import execute_query
    from ..skypeer.variants import Variant

    from ..core.local_skyline import resolve_scan_chunk

    attached, attach = _materialize(spec)
    network, cache = attached.network, attached.cache
    started = time.perf_counter()
    # Resolved once per batch: the scans and merges below then never
    # consult the environment again.
    scan_chunk = resolve_scan_chunk(scan_chunk)
    local_compute = _cached_local_compute(
        network, cache, scan_chunk, substrate, partitioner, parts
    )
    runs: list[tuple[int, "QueryExecution"]] = []
    registry = MetricsRegistry() if collect_metrics else None
    if registry is not None:
        install(None, registry)
    try:
        for index, query, variant_value in tasks:
            run = execute_query(
                network,
                query,
                Variant.parse(variant_value),
                local_compute=local_compute,
                scan_chunk=scan_chunk,
            )
            # Per-super-peer scan traces are debugging detail; dropping
            # them keeps the result pickle small.
            run.traces = {}
            runs.append((index, run))
    finally:
        if registry is not None:
            uninstall()
    return {
        "runs": runs,
        "snapshot": registry.snapshot() if registry is not None else None,
        "attach": attach,
        "compute_seconds": time.perf_counter() - started,
        "cache": cache.stats.delta(),
    }


def _run_preprocess_batch(
    spec: dict[str, Any], superpeer_ids: Sequence[int]
) -> dict[str, Any]:
    """Pre-process a chunk of super-peers (pure compute, no obs).

    The pre-processing publication lives for one fan-out (the parent
    withdraws it once the results are in), so it is attached for this
    batch only and never enters the worker's network cache: a serving
    worker keeps no mapping of the raw partitions beside the query
    publication's stores.

    Each result is ``(superpeer_id, uploads, merge)``: the merged store
    travels whole (it is the product), a peer's ext-skyline as ``(peer_id,
    rows, threshold, examined, comparisons, duration)`` with ``rows`` the
    partition rows of its survivors — see :func:`_upload_from_rows`.
    """
    import numpy as np

    from ..core.mapping import f_values

    started = time.perf_counter()
    attached = attach_network(spec["manifest"])
    attach = {"mode": "shm", "seconds": time.perf_counter() - started}
    network = attached.network
    started = time.perf_counter()
    results = []
    try:
        for sp in superpeer_ids:
            computed = network.compute_superpeer_preprocess(sp)
            uploads = []
            for peer_id, _n_points, scan in computed.peer_results:
                # ``scan.positions`` index the f-sorted partition; the stable
                # argsort ``from_points`` sorted it by maps them back to rows.
                order = np.argsort(
                    f_values(network.peers[peer_id].data.values), kind="stable"
                )
                uploads.append((
                    peer_id, order[scan.positions], scan.threshold, scan.examined,
                    scan.comparisons, scan.duration,
                ))
            results.append((sp, uploads, computed.merge))
    finally:
        # The array views over the segment must be garbage before the
        # mapping can be released (results are copies, never views).
        network = computed = None
        attached.close()
    return {
        "results": results,
        "attach": attach,
        "compute_seconds": time.perf_counter() - started,
    }


def _upload_from_rows(
    network: Any, peer_id: int, rows: Any, threshold: float, examined: int,
    comparisons: int, duration: float,
) -> tuple[int, int, Any]:
    """A ``peer_results`` entry rebuilt in the parent from a worker's rows.

    The parent holds every partition, so an upload need not travel: it
    is the peer's partition taken at the surviving rows, which arrive in
    ascending ``f`` — nothing is re-sorted, and ``f = min_i p[i]`` per
    row is the worker's value bit for bit.  ``positions`` stays ``None``:
    it indexes the f-sorted copy of the partition only the worker built.
    """
    from ..core.local_skyline import SkylineComputation
    from ..core.mapping import f_values
    from ..core.store import SortedByF

    data = network.peers[peer_id].data
    points = data.take(rows)
    scan = SkylineComputation(
        result=SortedByF(points, f_values(points.values)),
        threshold=threshold, examined=examined, comparisons=comparisons,
        duration=duration, input_size=len(data),
    )
    return peer_id, len(data), scan


def _run_partition_batch(
    spec: dict[str, Any],
    sp: int,
    cols: tuple,
    threshold: float,
    strict: bool,
    partitioner: str,
    parts: int,
    scan_chunk: int | None,
    part_indices: Sequence[int],
) -> dict[str, Any]:
    """Scan a chunk of partition slices for one intra-query fan-out.

    Workers recompute the split locally (quantile cuts are
    deterministic, so every worker and the parent agree on the slices)
    instead of shipping position arrays over IPC.  Each slice scan sits
    behind a ``"pscan"`` block-cache probe, so a repeated partitioned
    query replays without scanning; only the survivor positions and
    work counters travel back — the parent rebuilds results from its
    own store.
    """
    import numpy as np

    from .partition import partition_positions, scan_partition

    attached, attach = _materialize(spec)
    network, cache = attached.network, attached.cache
    started = time.perf_counter()
    store = network.store_of(sp)
    proj, _dists = store.projection(cols, rows=store.prefix(threshold))
    slices = partition_positions(partitioner, proj, parts)
    generation = network.store_generations.get(sp, 0)
    scans: list[tuple[int, dict[str, Any]]] = []
    for pi in part_indices:
        key = make_key(
            "pscan", sp, generation, cols, float(threshold), strict,
            partitioner, parts, pi, scan_chunk,
        )
        hit = cache.get(key)
        if hit is not None:
            meta, arrays, token = hit
            positions = np.array(arrays["positions"], dtype=np.int64, copy=True)
            if cache.still_valid(token):
                scans.append((pi, {**meta, "positions": positions}))
                continue
            cache.stats.invalid += 1
        computation = scan_partition(
            store, cols, slices[pi],
            initial_threshold=threshold, strict=strict, scan_chunk=scan_chunk,
        )
        meta = {
            "threshold": computation.threshold,
            "examined": computation.examined,
            "comparisons": computation.comparisons,
            "input_size": computation.input_size,
        }
        cache.put(key, meta, {"positions": computation.positions})
        scans.append((pi, {**meta, "positions": computation.positions}))
    return {
        "scans": scans,
        "attach": attach,
        "compute_seconds": time.perf_counter() - started,
        "cache": cache.stats.delta(),
    }


# ----------------------------------------------------------------------
# parent-side engine
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one engine spent where (the bench's pool-overhead fields).

    ``pool_startup_seconds`` covers executor creation plus the warm-up
    barrier; ``publish_seconds`` is the parent-side cost of making
    networks available (the copy into the segment);
    ``submit_seconds`` is parent time spent dispatching batches (the
    per-task share is :meth:`dispatch_overhead_per_task`);
    ``attach_events`` records every worker-side attach (``"shm"``) or
    per-slot refresh (``"shm-delta"``) of a publication.  The
    ``cache_*`` fields aggregate the per-batch block-cache deltas the
    workers ship back (:mod:`repro.parallel.shmcache`); ``cpu_pinning``
    records whether the pool was started with per-worker CPU affinity.
    What a :class:`~repro.serving.QueryGateway` in front of the engine
    counted (coalesce hits, shed requests, queue depth) is its own
    ``GatewayStats``; a query it dispatches is one of ``tasks`` here.

    ``tasks`` counts *whole-query* executions only.  Intra-query
    fan-outs (:meth:`ParallelEngine.run_partitioned_scan`) are counted
    separately — ``intra_query_scans`` per partitioned scan and
    ``intra_query_subtasks`` per slice — so slice subtasks never
    inflate the per-task dispatch overhead or the query throughput
    figures.
    """

    workers: int
    start_method: str
    pool_startup_seconds: float = 0.0
    publish_seconds: float = 0.0
    publications: int = 0
    batches: int = 0
    tasks: int = 0
    intra_query_scans: int = 0
    intra_query_subtasks: int = 0
    submit_seconds: float = 0.0
    worker_compute_seconds: float = 0.0
    attach_events: list[dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_publishes: int = 0
    cache_evictions: int = 0
    cache_oversize: int = 0
    cache_invalid: int = 0
    cpu_pinning: bool = False
    updates_applied: int = 0
    incremental_republishes: int = 0
    full_republishes: int = 0
    republished_bytes: int = 0
    update_seconds: float = 0.0
    update_spliced: int = 0
    update_promoted: int = 0
    update_rebuilt: int = 0
    update_points_examined: int = 0

    def dispatch_overhead_per_task(self) -> float:
        return self.submit_seconds / self.tasks if self.tasks else 0.0

    def cache_hit_rate(self) -> float | None:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else None

    def attach_seconds(self, mode: str | None = None) -> list[float]:
        return [
            event["seconds"]
            for event in self.attach_events
            if mode is None or event["mode"] == mode
        ]

    def mean_attach_seconds(self, mode: str | None = None) -> float | None:
        samples = self.attach_seconds(mode)
        return sum(samples) / len(samples) if samples else None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (what ``skypeer bench --smoke`` embeds)."""
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "pool_startup_seconds": self.pool_startup_seconds,
            "publish_seconds": self.publish_seconds,
            "publications": self.publications,
            "batches": self.batches,
            "tasks": self.tasks,
            "intra_query_scans": self.intra_query_scans,
            "intra_query_subtasks": self.intra_query_subtasks,
            "submit_seconds": self.submit_seconds,
            "dispatch_overhead_per_task_seconds": self.dispatch_overhead_per_task(),
            "worker_compute_seconds": self.worker_compute_seconds,
            "attach_count": len(self.attach_events),
            "shm_attach_mean_seconds": self.mean_attach_seconds("shm"),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate(),
            "cache_publishes": self.cache_publishes,
            "cache_evictions": self.cache_evictions,
            "cache_oversize": self.cache_oversize,
            "cache_invalid": self.cache_invalid,
            "cpu_pinning": self.cpu_pinning,
            "updates_applied": self.updates_applied,
            "incremental_republishes": self.incremental_republishes,
            "full_republishes": self.full_republishes,
            "republished_bytes": self.republished_bytes,
            "update_seconds": self.update_seconds,
            "update_spliced": self.update_spliced,
            "update_promoted": self.update_promoted,
            "update_rebuilt": self.update_rebuilt,
            "update_points_examined": self.update_points_examined,
        }


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`ParallelEngine.apply_update` did, end to end.

    ``republished_bytes`` is the shm delta actually rewritten (0 when no
    publication was live); a slot is one super-peer's store, so
    ``slot_nbytes`` is the touched stores' array bytes and
    ``total_nbytes`` every published store's — the bench asserts
    ``republished_bytes <= slot_nbytes < total_nbytes``, i.e. the delta
    scales with the touched stores, not the network.  ``full_republish``
    marks what cannot go incremental (super-peer set surgery, an update
    that moves every slot): the stale publication is withdrawn and the
    next fan-out republishes in full.

    When the underlying mutation reports a maintenance path (insert/
    delete outcomes, churn events), :meth:`as_dict` surfaces it:
    ``path`` (``spliced``/``promoted``/``rebuilt``/``merged``),
    ``examined`` candidate points dominance-tested and ``promoted``
    points re-admitted — the delta-maintenance accounting the update-
    latency bench gates on.
    """

    kind: str
    epoch: int
    touched_superpeers: tuple[int, ...]
    full_republish: bool
    republished_bytes: int
    slot_nbytes: int
    total_nbytes: int
    seconds: float
    outcome: Any

    def as_dict(self) -> dict[str, Any]:
        out = {
            "kind": self.kind,
            "epoch": self.epoch,
            "touched_superpeers": list(self.touched_superpeers),
            "full_republish": self.full_republish,
            "republished_bytes": self.republished_bytes,
            "slot_nbytes": self.slot_nbytes,
            "total_nbytes": self.total_nbytes,
            "seconds": self.seconds,
        }
        path = getattr(self.outcome, "path", None)
        if path is not None:
            out["path"] = path
            out["examined"] = getattr(self.outcome, "examined", 0)
            out["promoted"] = getattr(self.outcome, "promoted", 0)
            out["store_rebuilt"] = getattr(self.outcome, "store_rebuilt", path == "rebuilt")
        return out


class _EpochGate:
    """Readers–writer gate serializing updates against in-flight fan-outs.

    Query/pre-processing fan-outs hold the *read* side for their whole
    dispatch (submit through result collection), so an update's *write*
    side — which mutates the network, republishes slots and unlinks the
    overlays it supersedes — runs only when no worker can still be
    asked to attach a superseded segment.  Writers get priority (new
    readers queue behind a waiting writer), so a steady query stream
    cannot starve updates; queries observe either the pre-update or the
    post-update epoch, never a torn mix.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _Publication:
    """One network made available to workers: its segments and its spec."""

    __slots__ = ("token", "spec", "shared", "network_ref", "epoch", "warm")

    def __init__(
        self,
        token: str,
        spec: dict[str, Any],
        shared: Any,
        network_ref: "weakref.ref[Any]",
        epoch: int,
    ):
        self.token = token
        self.spec = spec
        self.shared = shared
        self.network_ref = network_ref
        self.epoch = epoch
        #: Subspaces whose scans this publication has already served —
        #: their block-cache entries are likely present, so the
        #: scheduler runs cold subspaces first (they do the publishing)
        #: and warm ones last (they mostly replay).
        self.warm: set[tuple[int, ...]] = set()

    def withdraw(self) -> None:
        self.shared.close(unlink=True)


class ParallelEngine:
    """A persistent worker pool with published-network bookkeeping.

    Create once (or let :func:`get_engine` do it) and reuse across
    ``run_queries`` calls, pre-processing and whole bench sweeps; the
    pool, the worker-side network caches and the publications all
    survive between calls.  Context-manager and ``close()`` tear
    everything down — the pool stops, every segment is unlinked —
    and an ``atexit`` hook guarantees the same at interpreter exit.
    What a hard kill strands, the next engine start removes
    (:func:`~repro.parallel.shm.sweep_dead_publishers`).
    """

    def __init__(
        self,
        workers: int,
        mp_start: str | None = None,
        warm: bool = True,
    ):
        self.workers = max(1, int(workers))
        self.start_method = mp_start if mp_start is not None else start_method()
        self.stats = EngineStats(workers=self.workers, start_method=self.start_method)
        sweep_dead_publishers()
        self._publications: "OrderedDict[int, _Publication]" = OrderedDict()
        self._token_counter = 0
        self._closed = False
        # The serving gateway drives ``run_queries`` from several
        # executor threads at once; the publication table, the stats
        # accumulators and close() serialize on this lock.
        self._lock = threading.Lock()
        # Fan-outs read, ``apply_update`` writes: segments retired by an
        # in-place republish are only unlinked once readers drain.
        self._gate = _EpochGate()
        started = time.perf_counter()
        ctx = multiprocessing.get_context(self.start_method)
        counter = None
        if pin_cpus_enabled():
            # Workers claim ordinals from a shared counter at startup
            # and pin themselves round-robin over the parent's affinity
            # mask; replacement workers keep incrementing the counter,
            # which round-robin absorbs.
            counter = ctx.Value("i", 0)
            self.stats.cpu_pinning = True
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=ctx,
            # Under forkserver the workers' parent is the fork server
            # (which ends with this process); they watch whichever
            # parent they start under.
            initializer=_worker_init,
            initargs=(None if self.start_method == "forkserver" else os.getpid(), counter),
        )
        if warm:
            for future in [self._pool.submit(_noop) for _ in range(self.workers)]:
                future.result()
        self.stats.pool_startup_seconds = time.perf_counter() - started
        atexit.register(self.close)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # publications
    # ------------------------------------------------------------------
    def _publish(self, network: "SuperPeerNetwork") -> _Publication:
        """Publish (or reuse) a network for query fan-outs.

        Publications are keyed on object identity + ``epoch`` (store
        changes bump the epoch, so stale data can never be served).

        The closed check lives *inside* the lock: a concurrent
        ``close()`` either drains this publication or this call raises
        — a segment can never be published after the drain and leak.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            key = id(network)
            cached = self._publications.get(key)
            if cached is not None:
                alive = cached.network_ref()
                if alive is network:
                    if cached.epoch == network.epoch:
                        self._publications.move_to_end(key)
                        return cached
                    if self._republish_incremental(cached, network):
                        self._publications.move_to_end(key)
                        return cached
                del self._publications[key]
                cached.withdraw()
            publication = self._publications[key] = self._new_publication(
                network, partitions=False
            )
            while len(self._publications) > _PUBLICATION_CAP:
                _, old = self._publications.popitem(last=False)
                old.withdraw()
            return publication

    def _new_publication(
        self, network: "SuperPeerNetwork", partitions: bool
    ) -> _Publication:
        """Copy ``network`` into a fresh segment.

        ``partitions`` says what the fan-out reads, and so what the
        segment carries: the raw peer partitions (pre-processing) or
        the super-peer stores (queries).  The caller owns the result:
        it either enters the publication table (:meth:`_publish`) or is
        withdrawn when its one fan-out ends
        (:meth:`preprocess_network`).  Caller must hold ``self._lock``.
        """
        self._token_counter += 1
        token = f"pub-{os.getpid():x}-{id(self):x}-{self._token_counter}"
        started = time.perf_counter()
        shared = publish_network(network, partitions=partitions)
        # Specs carry an immutable *snapshot* of the manifest: a later
        # in-place republish must not tear a spec that a concurrent
        # submit is pickling.
        spec = {"token": token, "manifest": copy.deepcopy(shared.manifest)}
        self.stats.publish_seconds += time.perf_counter() - started
        self.stats.publications += 1
        return _Publication(
            token=token,
            spec=spec,
            shared=shared,
            network_ref=weakref.ref(network),
            epoch=network.epoch,
        )

    def _republish_incremental(
        self, publication: _Publication, network: "SuperPeerNetwork"
    ) -> int | None:
        """Try to refresh a stale publication in place; returns the bytes.

        Republishes only the slots whose generation moved since the
        publication last saw this network, keeping the token (so worker
        LRU entries refresh instead of re-attaching) and swapping the
        spec for a fresh manifest snapshot.  Returns ``None`` when the
        publication cannot go incremental: the super-peer set itself
        changed (topology surgery republishes in full), or every slot
        moved.  Superseded overlays are *not* unlinked here: a reader
        may still be dispatching against the previous spec.  They are
        reaped under the write gate (``apply_update``) or at close.

        Caller must hold ``self._lock``.
        """
        shared = publication.shared
        generations = {int(k): int(v) for k, v in shared.manifest["generations"].items()}
        if set(network.superpeers) != set(generations):
            return None
        touched = sorted(
            sp
            for sp, gen in network.store_generations.items()
            if generations.get(sp) != int(gen)
        )
        if touched and len(touched) >= len(generations):
            # Every slot moved (e.g. a full re-preprocess): overlaying
            # everything would strand the entire base segment as
            # garbage, so republish from scratch instead.
            return None
        started = time.perf_counter()
        nbytes = shared.republish(network, touched)
        publication.spec = {
            **publication.spec, "manifest": copy.deepcopy(shared.manifest),
        }
        publication.epoch = network.epoch
        self.stats.publish_seconds += time.perf_counter() - started
        self.stats.incremental_republishes += 1
        self.stats.republished_bytes += nbytes
        return nbytes

    def published_segments(self) -> list[str]:
        """Paths of the live base segments (tests assert cleanup)."""
        return [p.shared.path for p in self._publications.values()]

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(
        self,
        network: "SuperPeerNetwork",
        kind: str,
        *,
        peer_id: int | None = None,
        points: Any = None,
        point_ids: Sequence[int] | None = None,
        superpeer_id: int | None = None,
        data: Any = None,
    ) -> UpdateReport:
        """Apply one update/churn event to a *live, served* network.

        ``kind`` selects the mutation — ``"insert"``/``"delete"``
        (:mod:`repro.p2p.updates`), ``"join"``/``"fail"``/
        ``"fail-superpeer"`` (:mod:`repro.p2p.churn`) — and the engine
        then refreshes every live publication of this network
        *incrementally*: only the touched super-peers' slots republish
        (under a new sub-epoch), workers re-map just those slots at the
        next batch, and block-cache entries for untouched slots keep
        hitting.  Runs under the write side of the epoch gate, so
        concurrent ``run_queries`` calls see either the old epoch or the
        new one — never a torn mix — and the overlays this update
        supersedes are unlinked only after in-flight fan-outs drain.
        """
        from ..p2p.workload import apply_mutation

        if self._closed:
            raise RuntimeError("engine is closed")
        started = time.perf_counter()
        with self._gate.write():
            before = dict(network.store_generations)
            outcome = apply_mutation(
                network, kind, peer_id=peer_id, points=points, point_ids=point_ids,
                superpeer_id=superpeer_id, data=data,
            )
            touched = tuple(
                sorted(
                    sp
                    for sp, gen in network.store_generations.items()
                    if before.get(sp) != gen
                )
            )
            republished = 0
            slot_nbytes = 0
            total_nbytes = 0
            full = False
            with self._lock:
                publication = self._publications.get(id(network))
                if (
                    publication is not None
                    and publication.network_ref() is network
                    and publication.epoch != network.epoch
                ):
                    nbytes = self._republish_incremental(publication, network)
                    if nbytes is None:
                        # Super-peer set surgery, or every slot moved:
                        # drop the stale publication; the next fan-out
                        # republishes in full.
                        del self._publications[id(network)]
                        publication.withdraw()
                        full = True
                        self.stats.full_republishes += 1
                    else:
                        republished = nbytes
                        manifest = publication.shared.manifest
                        slot_nbytes = sum(
                            int(manifest["slot_nbytes"][sp]) for sp in touched
                        )
                        total_nbytes = manifest_data_nbytes(manifest)
                        # Readers are drained (write gate held): segments
                        # superseded by this republish can go now.
                        publication.shared.reap_retired()
                self.stats.updates_applied += 1
                self.stats.update_seconds += time.perf_counter() - started
                path = getattr(outcome, "path", None)
                if path in ("spliced", "merged"):
                    self.stats.update_spliced += 1
                elif path == "promoted":
                    self.stats.update_promoted += 1
                elif path == "rebuilt":
                    self.stats.update_rebuilt += 1
                self.stats.update_points_examined += getattr(outcome, "examined", 0)
        return UpdateReport(
            kind=kind,
            epoch=network.epoch,
            touched_superpeers=touched,
            full_republish=full,
            republished_bytes=republished,
            slot_nbytes=slot_nbytes,
            total_nbytes=total_nbytes,
            seconds=time.perf_counter() - started,
            outcome=outcome,
        )

    # ------------------------------------------------------------------
    # query fan-out
    # ------------------------------------------------------------------
    def run_queries(
        self,
        network: "SuperPeerNetwork",
        queries: Sequence["Query"],
        variants: Sequence["Variant"],
        scan_chunk: int | None = None,
        scan_substrate: str | None = None,
        partitioner: str | None = None,
        partition_parts: int | None = None,
    ) -> dict["Variant", list["QueryExecution"]]:
        """Fan independent (query, variant) executions out in batches.

        Returns per-variant run lists in the serial loop's order;
        worker metric snapshots merge into the parent's active
        registry.  Results are placed by task index, so they are
        independent of chunking and scheduling.

        ``scan_substrate``/``partitioner``/``partition_parts`` select
        the local-scan kernel each worker runs (``None`` consults
        ``REPRO_SCAN_SUBSTRATE``/``REPRO_PARTITION``/… *in the parent*,
        so workers never read their own environment); a non-``none``
        partitioner splits each scan in-process inside its worker —
        whole queries stay the unit of fan-out here.

        Holds the read side of the epoch gate for the whole dispatch,
        so a concurrent :meth:`apply_update` waits for this fan-out to
        drain before retiring the segments it supersedes.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        with self._gate.read():
            return self._run_queries_gated(
                network, queries, variants, scan_chunk, scan_substrate,
                partitioner, partition_parts,
            )

    def _run_queries_gated(
        self,
        network: "SuperPeerNetwork",
        queries: Sequence["Query"],
        variants: Sequence["Variant"],
        scan_chunk: int | None,
        scan_substrate: str | None,
        partitioner: str | None,
        partition_parts: int | None,
    ) -> dict["Variant", list["QueryExecution"]]:
        from ..obs.runtime import active_metrics
        from ..skypeer.variants import Variant
        from .partition import resolve_partition_parts, resolve_scan_cell

        substrate, part_kind = resolve_scan_cell(scan_substrate, partitioner)
        # Whole-query scans resolve the slice count with the FIXED
        # default (not the pool size): a serial execution of the same
        # queries resolves the same knobs without a pool, and the two
        # must stay byte-identical in work accounting, not just results.
        parts = (
            resolve_partition_parts(partition_parts)
            if part_kind != "none"
            else 0
        )
        metrics = active_metrics()
        publication = self._publish(network)
        spec = publication.spec
        queries = list(queries)
        variants = [Variant.parse(v) if isinstance(v, str) else v for v in variants]
        chunks = _affinity_chunks(queries, variants, self.workers)
        # Cache-aware submission order: cold subspaces first so their
        # scans publish block-cache entries while warm subspaces (which
        # will mostly replay) queue behind them.  Python's sort is
        # stable, so within each class the affinity order is preserved
        # and result placement (by task index) is unaffected.
        with self._lock:
            chunks.sort(
                key=lambda chunk: tuple(chunk[0][1].subspace) in publication.warm
            )
            publication.warm.update(tuple(chunk[0][1].subspace) for chunk in chunks)
        total = len(queries) * len(variants)
        started = time.perf_counter()
        futures = [
            self._pool.submit(
                _run_query_batch, spec, chunk, metrics is not None, scan_chunk,
                substrate, part_kind, parts,
            )
            for chunk in chunks
        ]
        with self._lock:
            self.stats.submit_seconds += time.perf_counter() - started
            self.stats.batches += len(chunks)
            self.stats.tasks += total
        flat: list["QueryExecution" | None] = [None] * total
        for future in futures:
            payload = future.result()
            self._ingest_batch_stats(payload, metrics)
            if payload["snapshot"] is not None and metrics is not None:
                metrics.merge_snapshot(payload["snapshot"])
            for index, run in payload["runs"]:
                flat[index] = run
        runs_by_variant: dict["Variant", list["QueryExecution"]] = {}
        for v, variant in enumerate(variants):
            runs_by_variant[variant] = flat[v * len(queries) : (v + 1) * len(queries)]
        return runs_by_variant

    # ------------------------------------------------------------------
    # intra-query fan-out
    # ------------------------------------------------------------------
    def run_partitioned_scan(
        self,
        network: "SuperPeerNetwork",
        sp: int,
        subspace: Sequence[int],
        initial_threshold: float = math.inf,
        strict: bool = False,
        partitioner: str | None = None,
        parts: int | None = None,
        scan_chunk: int | None = None,
    ) -> Any:
        """One Algorithm-1 scan split across the pool's workers.

        The single-heavy-query counterpart to :meth:`run_queries`:
        instead of whole queries, the unit of fan-out is a partition
        slice of one store, scanned by the sorted substrate
        (:func:`~repro.parallel.partition.partitioned_subspace_skyline`
        with the pool as its slice runner).  Shares the same publication
        (epoch-keyed segment) and block cache as whole-query batches.
        Returns a
        :class:`~repro.core.local_skyline.SkylineComputation`
        byte-identical to the serial scan; accounted under
        ``intra_query_scans``/``intra_query_subtasks``, never ``tasks``.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        with self._gate.read():
            return self._run_partitioned_scan_gated(
                network, sp, subspace, initial_threshold, strict,
                partitioner, parts, scan_chunk,
            )

    def _run_partitioned_scan_gated(
        self,
        network: "SuperPeerNetwork",
        sp: int,
        subspace: Sequence[int],
        initial_threshold: float,
        strict: bool,
        partitioner: str | None,
        parts: int | None,
        scan_chunk: int | None,
    ) -> Any:
        from ..core.local_skyline import SkylineComputation
        from .partition import (
            partitioned_subspace_skyline,
            resolve_partition_parts,
            resolve_partitioner,
        )

        # "none" means "don't partition whole-query scans"; an explicit
        # intra-query fan-out still needs a split, so fall back to the
        # trivial one.
        part_kind = resolve_partitioner(partitioner)
        if part_kind == "none":
            part_kind = "range"
        parts = resolve_partition_parts(parts, default=self.workers)
        threshold = float(initial_threshold)
        cols = tuple(int(c) for c in subspace)
        publication = self._publish(network)
        spec = publication.spec
        with self._lock:
            publication.warm.add(cols)
        store = network.store_of(sp)

        def run_on_pool(slices: list[Any]) -> list[Any]:
            # Only slice indices travel: workers recompute the split.
            indices = list(range(len(slices)))
            target = max(1, math.ceil(len(indices) / max(1, self.workers)))
            chunks = [indices[i : i + target] for i in range(0, len(indices), target)]
            submit_started = time.perf_counter()
            futures = [
                self._pool.submit(
                    _run_partition_batch, spec, sp, cols, threshold, strict,
                    part_kind, parts, scan_chunk, chunk,
                )
                for chunk in chunks
            ]
            with self._lock:
                self.stats.submit_seconds += time.perf_counter() - submit_started
                self.stats.batches += len(chunks)
                self.stats.intra_query_scans += 1
                self.stats.intra_query_subtasks += len(indices)
            scans: list[Any] = [None] * len(slices)
            for future in futures:
                payload = future.result()
                self._ingest_batch_stats(payload, None)
                for pi, meta in payload["scans"]:
                    scans[pi] = SkylineComputation.replay(
                        store,
                        meta["positions"],
                        threshold=meta["threshold"],
                        examined=meta["examined"],
                        comparisons=meta["comparisons"],
                        input_size=meta["input_size"],
                    )
            return scans

        return partitioned_subspace_skyline(
            store, cols, initial_threshold=threshold, strict=strict,
            partitioner=part_kind, parts=parts, scan_chunk=scan_chunk,
            runner=run_on_pool,
        )

    # ------------------------------------------------------------------
    # pre-processing fan-out
    # ------------------------------------------------------------------
    def preprocess_network(
        self, network: "SuperPeerNetwork"
    ) -> list["SuperPeerPreprocess"]:
        """Fan per-super-peer pre-processing out in batches.

        Workers see the network as published (typically before any
        stores exist — building them is the work being distributed);
        results come back in topology order for the parent's
        deterministic ingest (peer uploads as partition rows, rebuilt
        here from ``network.peers``).  The publication is private to
        this call and withdrawn when it returns, so it never sits
        beside the query publication.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        with self._gate.read():
            return self._preprocess_network_gated(network)

    def _preprocess_network_gated(
        self, network: "SuperPeerNetwork"
    ) -> list["SuperPeerPreprocess"]:
        from ..p2p.network import SuperPeerPreprocess

        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            publication = self._new_publication(network, partitions=True)
        futures: list[Future] = []
        try:
            sp_ids = list(network.topology.superpeer_ids)
            target = max(
                1, math.ceil(len(sp_ids) / (self.workers * _BATCH_OVERSUBSCRIBE))
            )
            chunks = [sp_ids[i : i + target] for i in range(0, len(sp_ids), target)]
            started = time.perf_counter()
            futures = [
                self._pool.submit(_run_preprocess_batch, publication.spec, chunk)
                for chunk in chunks
            ]
            self.stats.submit_seconds += time.perf_counter() - started
            self.stats.batches += len(chunks)
            self.stats.tasks += len(sp_ids)
            results: list["SuperPeerPreprocess"] = []
            for future in futures:
                payload = future.result()
                self._ingest_batch_stats(payload, None)
                results.extend(
                    SuperPeerPreprocess(
                        sp, [_upload_from_rows(network, *upload) for upload in uploads], merge
                    )
                    for sp, uploads, merge in payload["results"]
                )
            return results
        finally:
            # The raw partitions were needed for this fan-out only: the
            # stores it produced travel with the query publication.  On
            # an error or interrupt, batches may still be queued or
            # running; they finish (or never start) before the segment
            # they attach by name goes.
            for future in futures:
                future.cancel()
            wait(futures)
            publication.withdraw()

    def _ingest_batch_stats(self, payload: dict[str, Any], metrics: Any) -> None:
        with self._lock:
            self.stats.worker_compute_seconds += payload["compute_seconds"]
            attach = payload["attach"]
            if attach is not None:
                self.stats.attach_events.append(attach)
            cache = payload.get("cache")
            if cache is not None:
                for name in (
                    "hits", "misses", "publishes", "evictions", "oversize", "invalid",
                ):
                    setattr(
                        self.stats,
                        f"cache_{name}",
                        getattr(self.stats, f"cache_{name}") + int(cache.get(name, 0)),
                    )
        if metrics is not None:
            if attach is not None:
                metrics.histogram(
                    "parallel.attach_seconds", mode=attach["mode"]
                ).observe(attach["seconds"])
            if cache is not None:
                for name in (
                    "hits", "misses", "publishes", "evictions", "oversize", "invalid",
                ):
                    count = int(cache.get(name, 0))
                    if count:
                        metrics.counter(f"parallel.cache.{name}").inc(count)
            metrics.counter("parallel.batches").inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and withdraw every publication.

        Idempotent and thread-safe: concurrent callers race on the
        ``_closed`` flag under the engine lock, exactly one of them
        tears down, and nothing raises on the second call.  Publishes
        racing a close serialize on the same lock (see
        :meth:`_publish`), so the drain below is final — no segment can
        appear afterwards and leak.  Also runs at interpreter exit, so
        segments are provably unlinked even when the caller forgets.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        atexit.unregister(self.close)
        self._pool.shutdown(wait=True)
        with self._lock:
            while self._publications:
                _, publication = self._publications.popitem(last=False)
                publication.withdraw()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelEngine(workers={self.workers}, start={self.start_method}, "
            f"closed={self._closed})"
        )


def _affinity_chunks(
    queries: Sequence["Query"], variants: Sequence["Variant"], workers: int
) -> list[list[tuple[int, "Query", str]]]:
    """Chunk (query, variant) tasks with subspace affinity.

    Tasks are indexed in the serial loop's order (variant-major), then
    grouped by query subspace so one chunk — hence one worker — serves
    one subspace and its repeated scans replay from the block cache
    across the chunk.  Groups larger than the load-balancing target
    split into consecutive chunks; ordering is deterministic
    (first-appearance groups, ascending indices within).
    """
    groups: "OrderedDict[tuple[int, ...], list[tuple[int, Query, str]]]" = OrderedDict()
    index = 0
    for variant in variants:
        for query in queries:
            groups.setdefault(tuple(query.subspace), []).append(
                (index, query, variant.value)
            )
            index += 1
    target = max(1, math.ceil(index / (max(1, workers) * _BATCH_OVERSUBSCRIBE)))
    chunks: list[list[tuple[int, "Query", str]]] = []
    for group in groups.values():
        for start in range(0, len(group), target):
            chunks.append(group[start : start + target])
    return chunks


# ----------------------------------------------------------------------
# shared engines (one per configuration, reused process-wide)
# ----------------------------------------------------------------------
_ENGINES: dict[tuple, ParallelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(workers: int | None = None) -> ParallelEngine:
    """The process-wide persistent engine for the given worker count.

    Keyed on (pool size, start method, pinning toggle) so an env change
    yields a fresh engine rather than a stale one;
    engines persist across calls and are torn down by
    :func:`shutdown_engines` or at interpreter exit.
    """
    n_workers = resolve_workers(workers)
    key = (n_workers, start_method(), pin_cpus_enabled())
    with _ENGINES_LOCK:
        engine = _ENGINES.get(key)
        if engine is None or engine.closed:
            engine = ParallelEngine(n_workers)
            _ENGINES[key] = engine
        return engine


def shutdown_engines() -> None:
    """Close every shared engine (tests and long-lived hosts).

    Idempotent under concurrency and exception-safe: the registry is
    swapped out under its lock first (a second caller sees it empty and
    returns immediately), and a close that raises does not strand the
    remaining engines un-closed — every engine's ``close`` is attempted
    before the first failure, if any, is re-raised.
    """
    with _ENGINES_LOCK:
        engines = list(_ENGINES.values())
        _ENGINES.clear()
    first_error: BaseException | None = None
    for engine in engines:
        try:
            engine.close()
        except BaseException as exc:  # noqa: BLE001 - close the rest first
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error


# ----------------------------------------------------------------------
# one-shot conveniences (the PR 2 entry points, now engine-backed)
# ----------------------------------------------------------------------
def run_queries_parallel(
    network: "SuperPeerNetwork",
    queries: Sequence["Query"],
    variants: Sequence["Variant"],
    workers: int,
    scan_chunk: int | None = None,
    engine: ParallelEngine | None = None,
    scan_substrate: str | None = None,
    partitioner: str | None = None,
    partition_parts: int | None = None,
) -> dict["Variant", list["QueryExecution"]]:
    """Fan (query, variant) executions out over the shared engine.

    Results, work counts and metric totals are identical to a serial
    run; see :meth:`ParallelEngine.run_queries`.
    """
    engine = engine if engine is not None else get_engine(workers)
    return engine.run_queries(
        network, queries, variants, scan_chunk=scan_chunk,
        scan_substrate=scan_substrate, partitioner=partitioner,
        partition_parts=partition_parts,
    )


def preprocess_network_parallel(
    network: "SuperPeerNetwork",
    workers: int,
    engine: ParallelEngine | None = None,
) -> list["SuperPeerPreprocess"]:
    """Fan per-super-peer pre-processing out over the shared engine."""
    engine = engine if engine is not None else get_engine(workers)
    return engine.preprocess_network(network)
