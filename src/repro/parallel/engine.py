"""The persistent process-pool engine: lifecycle, publications, updates.

Design notes
------------
*Persistence.*  PR 2 spun a fresh ``ProcessPoolExecutor`` (and shipped
a fresh ``.npz`` snapshot) for every call, so pool startup dominated
exactly the many-small-queries regimes the paper evaluates.
:class:`ParallelEngine` is created once and reused: workers stay warm
across calls, and each network is *published* once, one segment per
super-peer slot of the shared-memory data plane
(:mod:`repro.parallel.shm`), which workers attach zero-copy.  After an update the publication *syncs*: only the
slots whose store generation moved are rewritten, and a worker re-maps
only those at its next task.  It is the only way data reaches a
worker, and it is byte-faithful: the worker sees the parent's stores
verbatim, so a scan run on either side agrees.  A worker scans each store whole
through its attached network's scan memo
(:meth:`~repro.p2p.network.SuperPeerNetwork.scan`), as every other
caller does — the engine has no scan path of its own.

*One query, one task.*  :meth:`ParallelEngine.run_query` submits one
(query, variant) execution to the pool, which runs it on whichever
worker is free; that worker's attached network's scan memo
(:class:`~repro.p2p.network.ScanMemo`) replays the scans it has
already run.  Each worker keeps as many networks attached as the
engine keeps published, so callers alternating between networks
neither re-attach per task nor lose their scan memos.  Only
pre-processing batches: its per-super-peer computations go out in
chunks, several per worker.

*Pool before data.*  Workers fork from whatever heap the parent has
when the engine is created, and never read it — they attach the
published segment instead.  A long-lived host therefore creates the
engine *first* and builds its network with ``build(engine=...)``:
workers fork before any network exists, Section 5.3 pre-processing
fans out over them, and the pre-processing publication (the raw
partitions) is withdrawn as soon as that fan-out returns.  The parent
is not import-only when they fork: ``skypeer serve`` has by then
imported nearly all of ``repro`` through the package ``__init__``s,
``asyncio``, ``ssl``, the gateway and the socket transport included,
and every worker inherits those modules.

*Determinism.*  A task reads a publication that is byte-faithful to
the parent's stores, so its result, work counts and metric totals
equal a serial run's.  Metric snapshots ride back one per task and
merge commutatively.

*A dead worker.*  When a worker process dies (SIGKILL, the OOM killer)
``concurrent.futures`` marks the whole pool broken, and every later
submit to it raises ``BrokenProcessPool``.  A fan-out that meets a
broken pool replaces it once, under the engine lock, and resubmits all
of its batches: a batch only reads a publication, which the new
workers attach by its token like any first attach, so a rerun returns
what the first run would have.  A second break in the same fan-out
propagates (the gateway answers it as a backend error).

*Observability.*  Workers never install a tracer (spans model the
simulated distributed schedule, which the parent owns).  When the
parent has an active :class:`~repro.obs.metrics.MetricsRegistry`, each
task records into a fresh worker-local registry and ships its
snapshot back; the parent additionally emits ``parallel.*`` counters
and histograms describing the engine itself (batches, tasks, sync
timings) — see :class:`EngineStats`.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from ..p2p.network import EpochGate
from .shm import (
    AttachedNetwork,
    SharedNetwork,
    manifest_data_nbytes,
    sweep_dead_publishers,
)

if TYPE_CHECKING:  # annotations only; ``repro/__init__`` imports these anyway
    from ..data.workload import Query
    from ..p2p.network import SuperPeerNetwork, SuperPeerPreprocess
    from ..p2p.updates import UpdateReport
    from ..skypeer.executor import QueryExecution
    from ..skypeer.variants import Variant

__all__ = [
    "EngineStats",
    "ParallelEngine",
    "get_engine",
    "preprocess_network_parallel",
    "resolve_workers",
    "shutdown_engines",
    "start_method",
]

#: Pre-processing chunks per worker: small enough to amortize IPC,
#: large enough to rebalance when chunk costs are uneven.
_BATCH_OVERSUBSCRIBE = 4

#: Publications kept per engine before the least recently used one is
#: withdrawn (its segments unlinked), and networks kept attached per
#: worker: a sweep cycling through as many configurations as the parent
#: keeps published finds each one still attached, its scan memo warm.
_PUBLICATION_CAP = 8


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request to an effective pool size.

    ``None``, ``0`` and ``1`` mean serial; a negative value means "one
    per CPU".
    """
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
#: token -> attached publication (its network owns its scan memo); LRU, capped.
_WORKER_NETWORKS: "OrderedDict[str, AttachedNetwork]" = OrderedDict()


def _noop() -> None:
    """Warm-up task: forces worker processes to start."""


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.25


def _worker_init(parent_pid: int | None) -> None:
    """Pool initializer: end with the parent.

    A SIGKILLed parent runs no shutdown, and its workers would idle on
    the pool queue for good.  Each worker therefore watches its parent
    pid from a daemon thread and exits once it is reparented.  (Not
    ``PR_SET_PDEATHSIG``: that signal fires when the *thread* that forked
    the worker ends, and a pool may fork from a short-lived thread.)
    ``parent_pid=None`` watches the parent the worker finds at start.
    """
    parent = os.getppid() if parent_pid is None else parent_pid
    threading.Thread(
        target=_exit_when_orphaned, args=(parent,), name="parent-watch", daemon=True
    ).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    """Poll until ``parent_pid`` is no longer this process's parent, then exit."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(0)


def _timed_sync(attached: AttachedNetwork, manifest: dict[str, Any]) -> dict[str, Any]:
    """Sync ``attached`` to ``manifest``: its seconds and re-mapped slots and bytes."""
    started = time.perf_counter()
    remapped = attached.sync(manifest)
    return {"seconds": time.perf_counter() - started, **remapped}


def _materialize(spec: dict[str, Any]) -> tuple[AttachedNetwork, dict[str, Any] | None]:
    """Return the spec's attached publication, synced to the spec's manifest.

    The first batch of a publication maps every slot; a later one whose
    manifest is of a newer epoch re-maps only the slots that changed,
    and the network's scan memo stays (its keys carry each slot's
    generation).  The second element reports the sync (``None`` when
    none was needed).
    """
    token = spec["token"]
    manifest = spec["manifest"]
    attached = _WORKER_NETWORKS.get(token)
    if attached is None:
        while len(_WORKER_NETWORKS) >= _PUBLICATION_CAP:
            _WORKER_NETWORKS.popitem(last=False)[1].close()
        attached = _WORKER_NETWORKS[token] = AttachedNetwork()
    else:
        _WORKER_NETWORKS.move_to_end(token)
    if attached.epoch == manifest["epoch"]:
        return attached, None
    return attached, _timed_sync(attached, manifest)


def _run_query_task(
    spec: dict[str, Any], query: "Query", variant_value: str, collect_metrics: bool
) -> dict[str, Any]:
    """Execute one query under one variant against the spec's publication."""
    from ..obs.metrics import MetricsRegistry
    from ..obs.runtime import install, uninstall
    from ..skypeer.executor import execute_query
    from ..skypeer.variants import Variant

    attached, attach = _materialize(spec)
    network = attached.network
    before = network.scan_memo.counts()
    started = time.perf_counter()
    registry = MetricsRegistry() if collect_metrics else None
    if registry is not None:
        install(None, registry)
    try:
        run = execute_query(network, query, Variant.parse(variant_value))
    finally:
        if registry is not None:
            uninstall()
    # Per-super-peer scan traces are debugging detail; dropping them
    # keeps the result pickle small.
    run.traces = {}
    return {
        "run": run,
        "snapshot": registry.snapshot() if registry is not None else None,
        "attach": attach,
        "compute_seconds": time.perf_counter() - started,
        "cache": {
            name: count - before[name] for name, count in network.scan_memo.counts().items()
        },
    }


def _run_preprocess_batch(
    spec: dict[str, Any], superpeer_ids: Sequence[int]
) -> dict[str, Any]:
    """Pre-process a chunk of super-peers (pure compute, no obs).

    A batch maps only the chunk's slots of the pre-processing
    publication: the partitions it reads.  The publication lives for
    one fan-out (the parent withdraws it once the results are in), so
    it is attached for this batch only and never enters the worker's
    network cache: a serving worker keeps no mapping of the raw
    partitions beside the query publication's stores.

    Each result is ``(superpeer_id, uploads, merge)``: the merged store
    travels whole (it is the product), a peer's ext-skyline as ``(peer_id,
    rows, threshold, examined, comparisons, duration)`` with ``rows`` the
    partition rows of its survivors — see :func:`_upload_from_rows`.
    """
    import numpy as np

    from ..core.mapping import f_values

    attached = AttachedNetwork()
    results = []
    try:
        manifest = spec["manifest"]
        slots = {sp: manifest["slots"][sp] for sp in superpeer_ids}
        attach = _timed_sync(attached, {**manifest, "slots": slots})
        network = attached.network
        started = time.perf_counter()
        for sp in superpeer_ids:
            computed = network.compute_superpeer_preprocess(sp)
            uploads = []
            for peer_id, _n_points, scan in computed.peer_results:
                # ``scan.positions`` index the partition sorted on (f, id);
                # the order ``from_points`` sorted it by maps them back to rows.
                data = network.peers[peer_id].data
                order = np.lexsort((data.ids, f_values(data.values)))
                uploads.append((
                    peer_id, order[scan.positions], scan.threshold, scan.examined,
                    scan.comparisons, scan.duration,
                ))
            results.append((sp, uploads, computed.merge))
    finally:
        # The array views over the segments must be garbage before the
        # mappings can be released (results are copies, never views).
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
    ``(f, id)`` order — nothing is re-sorted, and ``f = min_i p[i]`` per
    row is the worker's value bit for bit.  ``positions`` stays ``None``:
    it indexes the sorted copy of the partition only the worker built.
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


# ----------------------------------------------------------------------
# parent-side engine
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one engine spent where: pool start-up, dispatch, attach, cache.

    ``pool_startup_seconds`` covers executor creation plus the warm-up
    barrier; ``publish_seconds`` is the parent-side cost of making
    networks available (the copies into the slot segments);
    ``submit_seconds`` is parent time spent dispatching batches (the
    per-task share is :meth:`dispatch_overhead_per_task`);
    ``attaches`` counts the worker-side syncs of a publication (a first
    attach maps every slot, a later one the changed slots), with their
    running sums of seconds, slots and bytes re-mapped.  A republish is
    a sync of a live publication after an update: ``full_republishes``
    counts those that rewrote every live slot, ``incremental_republishes``
    the rest, ``republished_bytes`` what both wrote.  The ``cache_*``
    fields aggregate the per-batch deltas of the workers' scan memos
    (:class:`~repro.p2p.network.ScanMemo`, one per attached network)
    that the workers ship back.  ``pool_replacements`` counts the broken
    pools replaced after a worker died.
    What a :class:`~repro.serving.QueryGateway` in front of the engine
    counted (coalesce hits, shed requests, queue depth) is its own
    ``GatewayStats``; a query it dispatches is one of ``tasks`` here.
    """

    workers: int
    start_method: str
    pool_startup_seconds: float = 0.0
    publish_seconds: float = 0.0
    publications: int = 0
    batches: int = 0
    tasks: int = 0
    submit_seconds: float = 0.0
    worker_compute_seconds: float = 0.0
    attaches: int = 0
    attach_seconds: float = 0.0
    attached_slots: int = 0
    attached_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    updates_applied: int = 0
    incremental_republishes: int = 0
    full_republishes: int = 0
    republished_bytes: int = 0
    pool_replacements: int = 0

    def dispatch_overhead_per_task(self) -> float:
        return self.submit_seconds / self.tasks if self.tasks else 0.0

    def cache_hit_rate(self) -> float | None:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (the gateway's ``stats`` reply carries it as ``engine``)."""
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "pool_startup_seconds": self.pool_startup_seconds,
            "publish_seconds": self.publish_seconds,
            "publications": self.publications,
            "batches": self.batches,
            "tasks": self.tasks,
            "submit_seconds": self.submit_seconds,
            "dispatch_overhead_per_task_seconds": self.dispatch_overhead_per_task(),
            "worker_compute_seconds": self.worker_compute_seconds,
            "attach_count": self.attaches,
            "shm_attach_mean_seconds": (
                self.attach_seconds / self.attaches if self.attaches else None
            ),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate(),
            "cache_evictions": self.cache_evictions,
            "updates_applied": self.updates_applied,
            "incremental_republishes": self.incremental_republishes,
            "full_republishes": self.full_republishes,
            "republished_bytes": self.republished_bytes,
            "pool_replacements": self.pool_replacements,
        }


class _Publication:
    """One network made available to workers: its segments and its spec."""

    __slots__ = ("token", "shared", "network_ref")

    def __init__(self, token: str, shared: SharedNetwork, network_ref: "weakref.ref[Any]"):
        self.token = token
        self.shared = shared
        self.network_ref = network_ref

    @property
    def spec(self) -> dict[str, Any]:
        """What a batch carries: the token and the current manifest (a
        sync swaps the manifest in whole, so a spec never tears)."""
        return {"token": self.token, "manifest": self.shared.manifest}


class ParallelEngine:
    """A persistent worker pool with published-network bookkeeping.

    Create once (or let :func:`get_engine` do it) and reuse across
    ``run_query`` calls and pre-processing; the pool, the worker-side
    network caches and the publications all survive between calls.  Context-manager and ``close()`` tear
    everything down — the pool stops, every segment is unlinked —
    and an ``atexit`` hook guarantees the same at interpreter exit.
    What a hard kill strands, the next engine start removes
    (:func:`~repro.parallel.shm.sweep_dead_publishers`).
    """

    def __init__(self, workers: int, mp_start: str | None = None):
        self.workers = max(1, int(workers))
        self.start_method = mp_start if mp_start is not None else start_method()
        self.stats = EngineStats(workers=self.workers, start_method=self.start_method)
        sweep_dead_publishers()
        self._publications: "OrderedDict[int, _Publication]" = OrderedDict()
        self._token_counter = 0
        self._closed = False
        # The serving gateway drives ``run_query`` from several
        # executor threads at once; the publication table, the stats
        # accumulators and close() serialize on this lock (reentrant:
        # ``apply_update`` syncs through ``_publish`` while holding it).
        self._lock = threading.RLock()
        # Fan-outs read, ``apply_update`` writes: segments retired by a
        # sync are only unlinked once readers drain.
        self._gate = EpochGate()
        started = time.perf_counter()
        self._pool = self._new_pool()
        for future in [self._pool.submit(_noop) for _ in range(self.workers)]:
            future.result()
        self.stats.pool_startup_seconds = time.perf_counter() - started
        atexit.register(self.close)

    def _new_pool(self, method: str | None = None) -> ProcessPoolExecutor:
        method = method or self.start_method
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(method),
            # Under forkserver the workers' parent is the fork server
            # (which ends with this process); they watch whichever
            # parent they start under.
            initializer=_worker_init,
            initargs=(None if method == "forkserver" else os.getpid(),),
        )

    def _fan_out(self, fn: Any, batches: Sequence[tuple[Any, ...]]) -> list[Any]:
        """Run ``fn(*batch)`` for every batch on the pool; their results
        in batch order.

        If the pool is broken — already, or by a worker dying mid-batch —
        it is replaced once and every batch resubmitted; a second break
        raises ``BrokenProcessPool``.
        """
        pool = self._pool
        try:
            return self._run_batches(pool, fn, batches)
        except BrokenProcessPool:
            self._replace_pool(pool)
        return self._run_batches(self._pool, fn, batches)

    def _run_batches(
        self, pool: ProcessPoolExecutor, fn: Any, batches: Sequence[tuple[Any, ...]]
    ) -> list[Any]:
        """One submission of every batch.  Whatever a batch raises
        propagates only once every batch has finished or been cancelled,
        so nothing still reads a publication the caller may withdraw."""
        futures: list[Future] = []
        started = time.perf_counter()
        try:
            for batch in batches:
                futures.append(pool.submit(fn, *batch))
            with self._lock:
                self.stats.submit_seconds += time.perf_counter() - started
                self.stats.batches += len(batches)
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            wait(futures)

    def _replace_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap ``broken`` for a fresh pool, unless a concurrent fan-out
        already did.

        The new pool spawns, whatever the start method: a fork now would
        copy the serving parent's heap, its built network and all, into
        every new worker for the rest of the server's life (``serve
        --backend engine`` forks its first pool before it builds
        anything).  The new workers attach the live publications by
        token, as forked ones do."""
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            if self._pool is broken:
                self._pool = self._new_pool("spawn")
                self.stats.pool_replacements += 1
        broken.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # publications
    # ------------------------------------------------------------------
    def _publish(
        self, network: "SuperPeerNetwork", partitions: bool = False
    ) -> tuple[_Publication, list[int]]:
        """The network's publication, synced to its epoch, and the
        super-peers whose slots this call wrote.

        A query publication (the default) is kept in the table, keyed on
        the network object's identity, and every later call syncs it:
        only the slots whose store generation moved are rewritten, the
        token stays (so workers re-map those slots instead of attaching
        anew), and the spec takes the new manifest.  Replaced segments
        are *not* unlinked here — a reader may still be dispatching
        against the previous spec — but under the write gate
        (:meth:`apply_update`) or at close.  ``partitions=True`` makes
        the pre-processing publication instead, which the caller owns
        and withdraws when its one fan-out ends.

        The closed check lives *inside* the lock: a concurrent
        ``close()`` either drains this publication or this call raises
        — a segment can never be published after the drain and leak.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            key = id(network)
            publication = None if partitions else self._publications.get(key)
            if publication is not None and publication.network_ref() is not network:
                del self._publications[key]
                publication.shared.close()
                publication = None
            fresh = publication is None
            if fresh:
                self._token_counter += 1
                token = f"pub-{os.getpid():x}-{id(self):x}-{self._token_counter}"
                publication = _Publication(
                    token, SharedNetwork(partitions), weakref.ref(network)
                )
                self.stats.publications += 1
                if not partitions:
                    self._publications[key] = publication
                    while len(self._publications) > _PUBLICATION_CAP:
                        self._publications.popitem(last=False)[1].shared.close()
            else:
                self._publications.move_to_end(key)
            shared = publication.shared
            if shared.manifest["epoch"] == network.epoch:
                return publication, []
            started = time.perf_counter()
            written = shared.sync(network)
            self.stats.publish_seconds += time.perf_counter() - started
            if not fresh:
                if written and len(written) == len(shared.manifest["slots"]):
                    self.stats.full_republishes += 1
                else:
                    self.stats.incremental_republishes += 1
                self.stats.republished_bytes += sum(
                    shared.manifest["slots"][sp]["nbytes"] for sp in written
                )
            return publication, written

    def published_segments(self) -> list[str]:
        """Paths of the live publications' slot segments (tests assert cleanup)."""
        return [path for p in self._publications.values() for path in p.shared.paths]

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_update(
        self, network: "SuperPeerNetwork", kind: str, **change: Any
    ) -> "UpdateReport":
        """Apply one update/churn event to a *live, served* network.

        ``kind`` and ``change`` are those of :func:`repro.p2p.workload.
        apply_mutation`, which this runs and whose report it returns.
        The engine adds what it alone owns.  The write side of the epoch
        gate: concurrent ``run_query`` calls see either the old epoch
        or the new one — never a torn mix.  The republish: the network's
        live publication syncs — only the touched super-peers' slots are
        rewritten (a failed super-peer's slot is dropped), workers re-map
        just those slots at the next task, and their memoized scans of
        untouched slots keep hitting — and the segments this update
        replaced are unlinked, since in-flight fan-outs have drained.
        The report gains the publication fields, and its ``seconds``
        covers the whole call.
        """
        from ..p2p.workload import apply_mutation

        if self._closed:
            raise RuntimeError("engine is closed")
        started = time.perf_counter()
        with self._gate.write():
            report = apply_mutation(network, kind, **change)
            published: dict[str, Any] = {}
            with self._lock:
                publication = self._publications.get(id(network))
                if publication is not None and publication.network_ref() is network:
                    publication, written = self._publish(network)
                    slots = publication.shared.manifest["slots"]
                    published = {
                        "full_republish": bool(written) and len(written) == len(slots),
                        "republished_bytes": sum(slots[sp]["nbytes"] for sp in written),
                        "slot_nbytes": sum(
                            slots[sp]["nbytes"] for sp in report.touched_superpeers
                        ),
                        "total_nbytes": manifest_data_nbytes(publication.shared.manifest),
                    }
                    # Readers are drained (write gate held): the segments
                    # this sync replaced or dropped can go now.
                    publication.shared.reap_retired()
                self.stats.updates_applied += 1
        return replace(report, seconds=time.perf_counter() - started, **published)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def run_query(
        self, network: "SuperPeerNetwork", query: "Query", variant: "Variant | str"
    ) -> "QueryExecution":
        """Execute one query under one variant on a pool worker.

        One task, one pool submission.  The worker's metric snapshot
        merges into the parent's active registry.  Holds the read side
        of the epoch gate for the whole dispatch, so a concurrent
        :meth:`apply_update` waits for this query to drain before
        retiring the segments it supersedes.
        """
        from ..obs.runtime import active_metrics
        from ..skypeer.variants import Variant

        if self._closed:
            raise RuntimeError("engine is closed")
        variant = Variant.parse(variant) if isinstance(variant, str) else variant
        metrics = active_metrics()
        with self._gate.read():
            spec = self._publish(network)[0].spec
            (payload,) = self._fan_out(
                _run_query_task, [(spec, query, variant.value, metrics is not None)]
            )
        with self._lock:
            self.stats.tasks += 1
        self._ingest_batch_stats(payload, metrics)
        if payload["snapshot"] is not None and metrics is not None:
            metrics.merge_snapshot(payload["snapshot"])
        return payload["run"]

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

        publication = self._publish(network, partitions=True)[0]
        try:
            sp_ids = list(network.topology.superpeer_ids)
            target = max(
                1, math.ceil(len(sp_ids) / (self.workers * _BATCH_OVERSUBSCRIBE))
            )
            chunks = [sp_ids[i : i + target] for i in range(0, len(sp_ids), target)]
            # ``_fan_out`` returns (or raises) only once no batch still
            # reads the raw partitions, so the segments can go after it.
            payloads = self._fan_out(
                _run_preprocess_batch, [(publication.spec, chunk) for chunk in chunks]
            )
            with self._lock:
                self.stats.tasks += len(sp_ids)
            results: list["SuperPeerPreprocess"] = []
            for payload in payloads:
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
            # stores it produced travel with the query publication.
            publication.shared.close()

    def _ingest_batch_stats(self, payload: dict[str, Any], metrics: Any) -> None:
        with self._lock:
            self.stats.worker_compute_seconds += payload["compute_seconds"]
            attach = payload["attach"]
            if attach is not None:
                self.stats.attaches += 1
                self.stats.attach_seconds += attach["seconds"]
                self.stats.attached_slots += attach["slots"]
                self.stats.attached_bytes += attach["bytes"]
            cache = payload.get("cache")
            if cache is not None:
                for name, count in cache.items():
                    setattr(
                        self.stats,
                        f"cache_{name}",
                        getattr(self.stats, f"cache_{name}") + count,
                    )
        if metrics is not None:
            if attach is not None:
                metrics.histogram("parallel.attach_seconds").observe(attach["seconds"])
            if cache is not None:
                for name, count in cache.items():
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
                self._publications.popitem(last=False)[1].shared.close()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelEngine(workers={self.workers}, start={self.start_method}, "
            f"closed={self._closed})"
        )


# ----------------------------------------------------------------------
# shared engines (one per configuration, reused process-wide)
# ----------------------------------------------------------------------
_ENGINES: dict[tuple, ParallelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(workers: int | None = None) -> ParallelEngine:
    """The process-wide persistent engine for the given worker count.

    Keyed on (pool size, start method) so an env change yields a fresh
    engine rather than a stale one;
    engines persist across calls and are torn down by
    :func:`shutdown_engines` or at interpreter exit.
    """
    n_workers = resolve_workers(workers)
    key = (n_workers, start_method())
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
# one-shot convenience (engine-backed)
# ----------------------------------------------------------------------
def preprocess_network_parallel(
    network: "SuperPeerNetwork",
    workers: int,
    engine: ParallelEngine | None = None,
) -> list["SuperPeerPreprocess"]:
    """Fan per-super-peer pre-processing out over the shared engine."""
    engine = engine if engine is not None else get_engine(workers)
    return engine.preprocess_network(network)
