"""The persistent process-pool engine: lifecycle, batching, affinity.

Design notes
------------
*Persistence.*  PR 2 spun a fresh ``ProcessPoolExecutor`` (and shipped
a fresh ``.npz`` snapshot) for every ``run_queries`` call, so pool
startup and per-task IPC dominated exactly the many-small-queries
regimes the paper evaluates.  :class:`ParallelEngine` is created once
and reused: workers stay warm across calls and whole bench sweeps, and
each network is *published* once, one segment per super-peer slot of
the shared-memory data plane (:mod:`repro.parallel.shm`), which workers
attach zero-copy.  After an update the publication *syncs*: only the
slots whose store generation moved are rewritten, and a worker re-maps
only those at its next batch.  It is the only way data reaches a
worker, and it is byte-faithful: the worker sees the parent's stores
verbatim, so a scan run on either side agrees.  A worker scans each store whole with
:func:`~repro.skypeer.executor.make_local_compute`'s default scan — the
engine has no scan selector of its own.

*Batching and subspace affinity.*  Tasks are submitted as chunks, not
one IPC round-trip per (query, variant) pair.  Chunks are formed by
grouping tasks on the query subspace, so queries over the same
subspace run on the same worker, where its scan memo (:class:`ScanMemo`)
replays their repeated scans across queries and variants.
Each worker keeps as many networks attached as the engine keeps
published, so sweeps alternating between configurations neither
re-attach per batch nor lose their scan memos.

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

*Determinism.*  Every task carries its index in the serial loop's
iteration order and the parent reassembles results by index, so the
aggregated statistics cannot depend on chunking or worker scheduling.
Metric snapshots ride back one per batch and merge commutatively.

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
batch records into a fresh worker-local registry and ships its
snapshot back; the parent additionally emits ``parallel.*`` counters
and histograms describing the engine itself (batches, tasks, sync
timings) — see :class:`EngineStats`.
"""

from __future__ import annotations

import atexit
import contextlib
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

from .shm import (
    AttachedNetwork,
    SharedNetwork,
    manifest_data_nbytes,
    sweep_dead_publishers,
)

if TYPE_CHECKING:  # annotations only; ``repro/__init__`` imports these anyway
    from ..core.local_skyline import SkylineComputation
    from ..data.workload import Query
    from ..p2p.network import SuperPeerNetwork, SuperPeerPreprocess
    from ..p2p.updates import UpdateReport
    from ..skypeer.executor import QueryExecution
    from ..skypeer.variants import Variant

__all__ = [
    "EngineStats",
    "ParallelEngine",
    "ScanMemo",
    "default_workers",
    "get_engine",
    "preprocess_network_parallel",
    "resolve_workers",
    "run_queries_parallel",
    "set_default_workers",
    "shutdown_engines",
    "start_method",
]

#: Ambient worker count (CLI ``--workers`` / ``REPRO_WORKERS``) applied
#: when the bench harness is called without an explicit value.
_DEFAULT_WORKERS: int | None = None

#: Chunks per worker targeted by the batcher: small enough to amortize
#: IPC, large enough to rebalance when chunk costs are uneven.
_BATCH_OVERSUBSCRIBE = 4

#: Scans a worker memoizes per attached network: a skewed serving
#: workload's working set (a few hundred (super-peer, subspace,
#: threshold) keys) fits; the cap only bounds a cold sweep's memory.
_SCAN_MEMO_CAP = 1024

#: Publications kept per engine before the least recently used one is
#: withdrawn (its segments unlinked), and networks kept attached per
#: worker: a sweep cycling through as many configurations as the parent
#: keeps published finds each one still attached, its scan memo warm.
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
#: token -> attached publication and its scan memo; LRU, capped.
_WORKER_NETWORKS: "OrderedDict[str, tuple[AttachedNetwork, ScanMemo]]" = OrderedDict()


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


def _materialize(
    spec: dict[str, Any],
) -> tuple[AttachedNetwork, "ScanMemo", dict[str, Any] | None]:
    """Return the spec's attached publication and its scan memo, synced
    to the spec's manifest.

    The first batch of a publication maps every slot; a later one whose
    manifest is of a newer epoch re-maps only the slots that changed,
    and the memo stays (its keys carry each slot's generation).  The
    last element reports the sync (``None`` when none was needed).
    """
    token = spec["token"]
    manifest = spec["manifest"]
    entry = _WORKER_NETWORKS.get(token)
    if entry is None:
        while len(_WORKER_NETWORKS) >= _PUBLICATION_CAP:
            _WORKER_NETWORKS.popitem(last=False)[1][0].close()
        attached = AttachedNetwork()
        entry = _WORKER_NETWORKS[token] = (attached, ScanMemo(attached.network, _SCAN_MEMO_CAP))
    else:
        _WORKER_NETWORKS.move_to_end(token)
    attached, memo = entry
    if attached.epoch == manifest["epoch"]:
        return attached, memo, None
    return attached, memo, _timed_sync(attached, manifest)


class ScanMemo:
    """A worker-private LRU of one network's Algorithm-1 scans.

    A scan is a pure function of its store and parameters, so an entry
    is keyed ``(sp, store generation, cols, threshold)`` and
    holds only the surviving store positions plus the scalar counters.
    A hit *replays* the scan (:meth:`SkylineComputation.replay`): the
    result is rebuilt from the store, the work counters are restored
    verbatim, so serial-vs-parallel determinism holds even when the scan
    never runs.  The generation invalidates by *slot*: an update to one
    super-peer moves only its generation, so every other slot's entries
    keep hitting.  FT-variant siblings share thresholds, so their scans
    hit across variants.  Past ``cap`` entries the least recently used
    one goes.
    """

    def __init__(self, network: Any, cap: int):
        self.network = network
        self.cap = cap
        self._scans: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._scans)

    def counts(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def local_compute(self):
        """A ``local_compute`` strategy: the default scan, memoized."""
        from ..core.local_skyline import SkylineComputation
        from ..skypeer.executor import make_local_compute

        network = self.network
        compute = make_local_compute(network)
        scans = self._scans

        def local_compute(sp: int, subspace: Any, threshold: float) -> "SkylineComputation":
            cols = tuple(int(c) for c in subspace)
            key = (sp, network.store_generations.get(sp, 0), cols, float(threshold))
            entry = scans.get(key)
            if entry is not None:
                scans.move_to_end(key)
                self.hits += 1
                positions, threshold, examined, comparisons, input_size = entry
                return SkylineComputation.replay(
                    network.store_of(sp), positions, threshold=threshold,
                    examined=examined, comparisons=comparisons, input_size=input_size,
                )
            self.misses += 1
            computation = compute(sp, cols, threshold)
            if computation.positions is not None:
                computation.positions.setflags(write=False)  # shared with replays
                scans[key] = (
                    computation.positions, computation.threshold,
                    computation.examined, computation.comparisons,
                    computation.input_size,
                )
                if len(scans) > self.cap:
                    scans.popitem(last=False)
                    self.evictions += 1
            return computation

        return local_compute


def _run_query_batch(
    spec: dict[str, Any],
    tasks: Sequence[tuple[int, "Query", str]],
    collect_metrics: bool,
) -> dict[str, Any]:
    """Execute one chunk of (index, query, variant) tasks."""
    from ..obs.metrics import MetricsRegistry
    from ..obs.runtime import install, uninstall
    from ..skypeer.executor import execute_query
    from ..skypeer.variants import Variant

    attached, memo, attach = _materialize(spec)
    network = attached.network
    before = memo.counts()
    started = time.perf_counter()
    local_compute = memo.local_compute()
    runs: list[tuple[int, "QueryExecution"]] = []
    registry = MetricsRegistry() if collect_metrics else None
    if registry is not None:
        install(None, registry)
    try:
        for index, query, variant_value in tasks:
            run = execute_query(
                network, query, Variant.parse(variant_value), local_compute=local_compute
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
        "cache": {name: count - before[name] for name, count in memo.counts().items()},
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
    fields aggregate the per-batch scan-memo deltas the workers ship
    back (:class:`ScanMemo`).  ``pool_replacements`` counts the broken
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


class _EpochGate:
    """Readers–writer gate serializing updates against in-flight fan-outs.

    Query/pre-processing fan-outs hold the *read* side for their whole
    dispatch (submit through result collection), so an update's *write*
    side — which mutates the network, syncs the publication and unlinks
    the slot segments it replaced — runs only when no worker can still
    be asked to attach a replaced segment.  Writers get priority (new
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
    ``run_queries`` calls, pre-processing and whole bench sweeps; the
    pool, the worker-side network caches and the publications all
    survive between calls.  Context-manager and ``close()`` tear
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
        # The serving gateway drives ``run_queries`` from several
        # executor threads at once; the publication table, the stats
        # accumulators and close() serialize on this lock (reentrant:
        # ``apply_update`` syncs through ``_publish`` while holding it).
        self._lock = threading.RLock()
        # Fan-outs read, ``apply_update`` writes: segments retired by a
        # sync are only unlinked once readers drain.
        self._gate = _EpochGate()
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
        gate: concurrent ``run_queries`` calls see either the old epoch
        or the new one — never a torn mix.  The republish: the network's
        live publication syncs — only the touched super-peers' slots are
        rewritten (a failed super-peer's slot is dropped), workers re-map
        just those slots at the next batch, and their memoized scans of
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
    # query fan-out
    # ------------------------------------------------------------------
    def run_queries(
        self,
        network: "SuperPeerNetwork",
        queries: Sequence["Query"],
        variants: Sequence["Variant"],
    ) -> dict["Variant", list["QueryExecution"]]:
        """Fan independent (query, variant) executions out in batches.

        Returns per-variant run lists in the serial loop's order;
        worker metric snapshots merge into the parent's active
        registry.  Results are placed by task index, so they are
        independent of chunking and scheduling.

        Holds the read side of the epoch gate for the whole dispatch,
        so a concurrent :meth:`apply_update` waits for this fan-out to
        drain before retiring the segments it supersedes.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        with self._gate.read():
            return self._run_queries_gated(network, queries, variants)

    def _run_queries_gated(
        self,
        network: "SuperPeerNetwork",
        queries: Sequence["Query"],
        variants: Sequence["Variant"],
    ) -> dict["Variant", list["QueryExecution"]]:
        from ..obs.runtime import active_metrics
        from ..skypeer.variants import Variant

        metrics = active_metrics()
        spec = self._publish(network)[0].spec
        queries = list(queries)
        variants = [Variant.parse(v) if isinstance(v, str) else v for v in variants]
        chunks = _affinity_chunks(queries, variants, self.workers)
        total = len(queries) * len(variants)
        payloads = self._fan_out(
            _run_query_batch, [(spec, chunk, metrics is not None) for chunk in chunks]
        )
        with self._lock:
            self.stats.tasks += total
        flat: list["QueryExecution" | None] = [None] * total
        for payload in payloads:
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


def _affinity_chunks(
    queries: Sequence["Query"], variants: Sequence["Variant"], workers: int
) -> list[list[tuple[int, "Query", str]]]:
    """Chunk (query, variant) tasks with subspace affinity.

    Tasks are indexed in the serial loop's order (variant-major), then
    grouped by query subspace so one chunk — hence one worker — serves
    one subspace and its repeated scans replay from that worker's scan
    memo across the chunk.  Groups larger than the load-balancing target
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
# one-shot conveniences (the PR 2 entry points, now engine-backed)
# ----------------------------------------------------------------------
def run_queries_parallel(
    network: "SuperPeerNetwork",
    queries: Sequence["Query"],
    variants: Sequence["Variant"],
    workers: int,
) -> dict["Variant", list["QueryExecution"]]:
    """Fan (query, variant) executions out over the shared engine.

    Results, work counts and metric totals are identical to a serial
    run; see :meth:`ParallelEngine.run_queries`.
    """
    return get_engine(workers).run_queries(network, queries, variants)


def preprocess_network_parallel(
    network: "SuperPeerNetwork",
    workers: int,
    engine: ParallelEngine | None = None,
) -> list["SuperPeerPreprocess"]:
    """Fan per-super-peer pre-processing out over the shared engine."""
    engine = engine if engine is not None else get_engine(workers)
    return engine.preprocess_network(network)
