"""Parallel execution: shared-memory data plane + persistent pool.

The simulator's two embarrassingly parallel workloads — the bench
harness's independent (query, variant) executions and pre-processing's
independent per-super-peer computations — fan out over a persistent
``concurrent.futures`` process pool (:class:`ParallelEngine`).  The
network travels to workers over the shared-memory data plane
(:mod:`repro.parallel.shm`), and over nothing else: published once into
a segment — a file the plane itself creates, maps and unlinks (no
helper process tracks it), in ``/dev/shm`` where the segment fits and
in the temp directory where it does not — and attached zero-copy by
every worker.  Tasks are submitted
in subspace-affine batches so per-subspace projection caches hit across
queries, and all aggregation happens in the parent in deterministic
task order, so parallel runs produce results, work counts and metric
totals identical to serial ones (wall-clock fields aside).  See
``docs/PERFORMANCE.md``.

A third workload splits *one* heavy Algorithm-1 scan into disjoint
slices of a single store (:mod:`repro.parallel.partition`): the
partitioner (``range``/``angular``) decides the split, each
slice is scanned independently — in-process or fanned over the same
pool via :meth:`ParallelEngine.run_partitioned_scan` — and the
per-slice skylines merge back byte-identically to the serial scan.
"""

from .engine import (
    EngineStats,
    ParallelEngine,
    UpdateReport,
    default_workers,
    get_engine,
    preprocess_network_parallel,
    resolve_workers,
    run_queries_parallel,
    set_default_workers,
    shutdown_engines,
    start_method,
)
from .partition import (
    PARTITION_ENV,
    PARTITION_PARTS_ENV,
    PARTITIONERS,
    SCAN_CELLS,
    merge_partition_scans,
    partition_positions,
    partition_skew,
    partitioned_subspace_skyline,
    resolve_partition_parts,
    resolve_partitioner,
    resolve_scan_cell,
    scan_partition,
)
from .shm import AttachedNetwork, SharedNetwork, attach_network, publish_network

__all__ = [
    "AttachedNetwork",
    "EngineStats",
    "PARTITIONERS",
    "PARTITION_ENV",
    "PARTITION_PARTS_ENV",
    "ParallelEngine",
    "SCAN_CELLS",
    "SharedNetwork",
    "UpdateReport",
    "attach_network",
    "default_workers",
    "get_engine",
    "merge_partition_scans",
    "partition_positions",
    "partition_skew",
    "partitioned_subspace_skyline",
    "preprocess_network_parallel",
    "publish_network",
    "resolve_partition_parts",
    "resolve_partitioner",
    "resolve_scan_cell",
    "resolve_workers",
    "run_queries_parallel",
    "scan_partition",
    "set_default_workers",
    "shutdown_engines",
    "start_method",
]
