"""Parallel execution: shared-memory data plane + persistent pool.

The simulator's two embarrassingly parallel workloads — the bench
harness's independent (query, variant) executions and pre-processing's
independent per-super-peer computations — fan out over a persistent
``concurrent.futures`` process pool (:class:`ParallelEngine`).  The
network travels to workers over the shared-memory data plane
(:mod:`repro.parallel.shm`), and over nothing else: published once into
one segment per super-peer slot — a file the plane itself creates, maps
and unlinks (no helper process tracks it), in ``/dev/shm`` where the
segment fits and in the temp directory where it does not — attached
zero-copy by every worker, and synced slot by slot after an update.  Tasks are submitted
in subspace-affine batches so the scan memo of a worker's attached
network (:class:`~repro.p2p.network.ScanMemo`, the one every caller
scans through) replays repeated scans across queries, and all
aggregation happens in the parent in deterministic
task order, so parallel runs produce results, work counts and metric
totals identical to serial ones (wall-clock fields aside).  See
``docs/PERFORMANCE.md``.

The unit of fan-out is a whole query: each super-peer's Algorithm-1
scan runs whole, inside the worker that executes its query, as SKYPEER
runs it — the parallelism is across super-peers and queries, never
inside one store's scan.
"""

from .engine import (
    EngineStats,
    ParallelEngine,
    default_workers,
    get_engine,
    preprocess_network_parallel,
    resolve_workers,
    run_queries_parallel,
    set_default_workers,
    shutdown_engines,
    start_method,
)
from .shm import AttachedNetwork, SharedNetwork, attach_network, publish_network

__all__ = [
    "AttachedNetwork",
    "EngineStats",
    "ParallelEngine",
    "SharedNetwork",
    "attach_network",
    "default_workers",
    "get_engine",
    "preprocess_network_parallel",
    "publish_network",
    "resolve_workers",
    "run_queries_parallel",
    "set_default_workers",
    "shutdown_engines",
    "start_method",
]
