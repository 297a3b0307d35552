"""Parallel execution: shared-memory data plane + persistent pool.

The serving gateway's queries and pre-processing's independent
per-super-peer computations run on a persistent ``concurrent.futures``
process pool (:class:`ParallelEngine`): a query is one task, and
pre-processing fans out in chunks.  The
network travels to workers over the shared-memory data plane
(:mod:`repro.parallel.shm`), and over nothing else: published once into
one segment per super-peer slot — a file the plane itself creates, maps
and unlinks (no helper process tracks it), in ``/dev/shm`` where the
segment fits and in the temp directory where it does not — attached
zero-copy by every worker, and synced slot by slot after an update.
The scan memo of a worker's attached network
(:class:`~repro.p2p.network.ScanMemo`, the one every caller scans
through) replays the scans that worker has already run, and a task's
result, work counts and metric totals are a serial run's (wall-clock
fields aside).  See ``docs/PERFORMANCE.md``.

The unit of fan-out is a whole query: each super-peer's Algorithm-1
scan runs whole, inside the worker that executes its query, as SKYPEER
runs it — the parallelism is across super-peers and queries, never
inside one store's scan.
"""

from .engine import (
    EngineStats,
    ParallelEngine,
    get_engine,
    preprocess_network_parallel,
    resolve_workers,
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
    "get_engine",
    "preprocess_network_parallel",
    "publish_network",
    "resolve_workers",
    "shutdown_engines",
    "start_method",
]
