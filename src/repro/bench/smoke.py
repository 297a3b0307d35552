"""Machine-readable performance baseline (``skypeer bench --smoke``).

Runs the Figure 3(b) dimensionality sweep over pre-built networks —
once serial, then through persistent :class:`repro.parallel`
engines — and emits one JSON document with the harness wall-clocks,
the engine overhead breakdown (pool startup, per-task dispatch, worker
attach), a field-by-field equality check of the deterministic
statistics for every parallel run, and the per-variant means the
paper's figures are drawn from.  CI uploads the document as an
artifact; the committed ``BENCH_baseline.json`` gives successive
revisions an honest, diffable perf baseline.

The sweep runs on an engine per start method — the primary one, then
the other of fork/spawn where the platform has it — so the
serial-vs-parallel equality verdict covers both lifecycles; runs are
labelled by start method.

Wall-clock fields are hardware-dependent by nature: on a single-core
host the pool cannot beat the serial loop (the JSON records
``cpu_count`` so readers can tell).  Everything under ``"variants"``
and ``"per_dimension"`` is deterministic and must be identical across
machines, worker counts and start methods.

Schema 3 adds ``"cache"``: a repeated-subspace workload run twice
through one engine (the cold pass fills the workers' scan memos, the
warm pass replays them), with hit rates per pass and an
``identical`` verdict: every deterministic statistic of both passes must
equal the serial reference, which is how "cache hits are byte-identical
to recomputation" shows up at this level.  ``check_regression.py``
gates on the verdict.

Schema 4 adds ``"serving"``: an open-loop load run against the asyncio
query gateway (:mod:`repro.serving`) — a Zipf-skewed workload offered
at a fixed arrival rate over ≥ 32 pipelined connections, dispatched
onto a warm engine.  The section reports p50/p90/p99 latency, shed
counts and the gateway's coalescing counters, plus two gated verdicts:
``results_match`` (every gateway response byte-identical to serial
re-execution of its subspace) and ``coalesce_hits > 0`` (the skewed
workload must actually exercise coalescing).  ``skypeer bench
--serve`` emits the same section standalone via
:func:`bench_serving`.  Latency percentiles are hardware-dependent and
informational, like every wall-clock here.

Schema 5 adds ``"kernels"``: the scan matrix.  The *crossover* runs
the paper's sorted scan and the whole-store alternative of
:mod:`repro.core.substrates` (``salsa``) over small stores
across dimensionalities and distributions, reporting deterministic
comparisons-per-point so the crossover is diffable across revisions,
and one verdict ``check_regression.py`` gates: ``identical`` (every
scan's result byte-identical to the sorted scan).

Schema 6 adds two things.  ``"kernels.salsa"``: the sort-based-
filtering section — the crossover datasets re-queried on the
low-dimensional pivot subspace ``(0, 1)`` (the regime SaLSa targets:
``f`` is a full-space statistic, so on a *proper* subspace the sorted
scan's prefix pruning weakens while SaLSa's stop-point, computed from
the subspace coordinates themselves, does not), with the
early-termination fraction, comparisons-per-point against ``sorted``
and two gated verdicts: ``identical`` (SaLSa byte-identical to
``sorted`` on every cell) and ``terminates_early``
(every correlated cell skips ≥ 20 % of its points and spends strictly
fewer comparisons than the sorted scan — comparison counters are
deterministic, so this gate is machine-stable).  And
``"degraded_parallelism"``: true when ``cpu_count < 2``, so readers
can tell a single-core host's wall-clock ratios apart.

Schema 7 adds ``"incremental"``: the churn gauntlet.  Each cell of an
update-rate × churn-rate grid replays a deterministic write schedule
(:mod:`repro.p2p.workload`) against a live, multi-super-peer network
*served by a warm engine* — every op routes through
:meth:`~repro.parallel.ParallelEngine.apply_update`, so the shm
publication refreshes per-slot under a new sub-epoch instead of
republishing the network.  Two gated verdicts: ``identical`` (after
the full schedule, engine results are byte-identical to a serial run
over :func:`~repro.p2p.workload.rebuild_reference`'s from-scratch
recomputation, at every cell) and ``delta_bounded`` (every incremental
op's republished bytes are bounded by its touched slots' size, which
is strictly less than the publication — the delta scales with the
update, not the network); ``exercised`` requires that some op took the
incremental path at all.  ``skypeer bench --churn`` emits the same
section standalone via :func:`bench_churn`.

Schema 8 adds ``"update_latency"``: the *compute* side of the same
churn grid.  Each op runs serially (no engine — shm republish is
schema 7's concern) through the delta-maintenance paths
(:mod:`repro.p2p.updates`, :mod:`repro.core.ledger`), timing the
incremental application against a from-scratch
:func:`~repro.p2p.workload.rebuild_reference` after every op and
recording the maintenance ``path`` (``spliced``/``promoted``/
``rebuilt``/``merged``), the candidate points ``examined`` and the
``store.from_points`` full re-sorts the op triggered.  Gated verdicts:
``identical`` (every post-op store byte-identical to the rebuild, all
cells), ``delete_incremental`` (at least one skyline-touching delete
resolved via the eviction ledger — ``path="promoted"``, no delete fell
back to ``rebuilt``, and each ledger delete examined strictly fewer
candidates than the rebuild-equivalent work of re-scanning the peer's
data plus the super-peer's lists) and ``insert_no_resort`` (no
``SortedByF.from_points`` full re-sort ran during any incremental
insert — stores move only by O(k log n) sorted splices).  Both
:func:`bench_smoke` and :func:`bench_churn` embed the section.

Schema 9 adds no section: there is one data plane and one scan cache
to run on, so runs are labelled by start method alone and nothing tells
planes or cache kinds apart; ``serving`` reports the gateway's counters
beside the engine's, neither mirrored into the other.

Schema 10 removes schema 3's other section, a comparison of two socket
initiator merges: there is one now, the buffered Algorithm 2.

Schema 11 removes ``kernels.headline`` (one 20 000-point scan split
into slices in-process and over a pool) and the crossover's two slice
columns: a scan is never split any more, and ``comparisons_per_point``
is keyed by substrate name.

Schema 12 drops ``cache.publishes`` and ``cache.invalid``, and the
engines' publish, oversize and invalid counters: the scan cache is a
worker-private LRU (:class:`repro.parallel.engine.ScanMemo`) that keeps
every scan it runs and has no entry a reader could find torn.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Iterable, Sequence

from ..parallel import ParallelEngine, resolve_workers, start_method
from ..skypeer.variants import Variant
from .config import ExperimentConfig, Scale, resolve_scale
from .harness import VariantStats, build_network, make_queries, run_queries

__all__ = ["SMOKE_SCHEMA", "bench_churn", "bench_serving", "bench_smoke", "write_bench_smoke"]

SMOKE_SCHEMA = "repro-bench-smoke/12"

#: VariantStats fields that do not depend on wall-clock measurement —
#: these must match exactly between serial and parallel runs.
DETERMINISTIC_FIELDS = (
    "queries",
    "mean_volume_kb",
    "mean_messages",
    "mean_result_size",
    "mean_comparisons",
    "mean_critical_path_examined",
)


def _stats_dict(stats: VariantStats) -> dict[str, Any]:
    return {
        "queries": stats.queries,
        "mean_computational_time": stats.mean_computational_time,
        "mean_total_time": stats.mean_total_time,
        "mean_volume_kb": stats.mean_volume_kb,
        "mean_messages": stats.mean_messages,
        "mean_result_size": stats.mean_result_size,
        "mean_comparisons": stats.mean_comparisons,
        "mean_critical_path_examined": stats.mean_critical_path_examined,
    }


def _run_sweep(
    prepared: Sequence[tuple[int, Any, Any]],
    variants: Sequence[Variant],
    workers: int,
    engine: ParallelEngine | None = None,
) -> tuple[float, dict[int, dict[Variant, VariantStats]]]:
    """Time one pass over the prepared (d, network, queries) list."""
    results: dict[int, dict[Variant, VariantStats]] = {}
    started = time.perf_counter()
    for d, network, queries in prepared:
        results[d] = run_queries(network, queries, variants, workers=workers, engine=engine)
    return time.perf_counter() - started, results


def _mismatches(
    serial: dict[int, dict[Variant, VariantStats]],
    parallel: dict[int, dict[Variant, VariantStats]],
) -> list[str]:
    out: list[str] = []
    for d, by_variant in serial.items():
        for variant, stats in by_variant.items():
            other = parallel[d][variant]
            for field in DETERMINISTIC_FIELDS:
                if getattr(stats, field) != getattr(other, field):
                    out.append(f"d={d} {variant.value} {field}")
    return out


def _bench_cache(
    prepared: Sequence[tuple[int, Any, Any]],
    serial: dict[int, dict[Variant, VariantStats]],
    variants: Sequence[Variant],
    n_workers: int,
    primary: str,
) -> dict[str, Any]:
    """Repeated-subspace workload through one engine: cold then warm pass.

    The sweep queries repeat subspaces across variants and passes, so the
    workers' scan memos get real hits.  ``identical`` asserts that both
    passes reproduce every deterministic statistic of the serial
    reference — cached scans replay the exact examined/comparison
    counters of the scan that stored them.
    """
    with ParallelEngine(n_workers, mp_start=primary) as engine:
        cold_wall, cold = _run_sweep(prepared, variants, n_workers, engine=engine)
        cold_hits = engine.stats.cache_hits
        cold_misses = engine.stats.cache_misses
        warm_wall, warm = _run_sweep(prepared, variants, n_workers, engine=engine)
        stats = engine.stats
    warm_hits = stats.cache_hits - cold_hits
    warm_misses = stats.cache_misses - cold_misses
    mismatched = [f"cold: {m}" for m in _mismatches(serial, cold)]
    mismatched += [f"warm: {m}" for m in _mismatches(serial, warm)]

    def _rate(hits: int, misses: int) -> float | None:
        return hits / (hits + misses) if hits + misses else None

    return {
        "cold": {
            "wall_seconds": cold_wall,
            "hits": cold_hits,
            "misses": cold_misses,
            "hit_rate": _rate(cold_hits, cold_misses),
        },
        "warm": {
            "wall_seconds": warm_wall,
            "hits": warm_hits,
            "misses": warm_misses,
            "hit_rate": _rate(warm_hits, warm_misses),
        },
        "hit_rate": stats.cache_hit_rate(),
        "evictions": stats.cache_evictions,
        "identical": not mismatched,
        "mismatched_fields": mismatched,
    }


def _bench_serving(
    network: Any,
    *,
    n_workers: int,
    primary: str,
    concurrency: int = 32,
    requests: int = 96,
    distinct_subspaces: int = 4,
    rate: float = 400.0,
    variant: Variant = Variant.FTPM,
) -> dict[str, Any]:
    """Open-loop skewed load through the gateway onto a warm engine.

    The Zipf workload concentrates arrivals on a few subspaces, so with
    ``concurrency`` pipelined connections and a fixed arrival rate the
    gateway's in-flight table must coalesce (``coalesce_hits > 0`` is a
    gated verdict).  Every distinct subspace the gateway answered is
    then re-executed serially and compared **byte-for-byte** against
    the canonical result encoding the clients received
    (``results_match``, also gated).  Percentiles and shed counts are
    informational.
    """
    import asyncio

    import numpy as np

    from ..data.workload import Query, generate_skewed_workload
    from ..serving.gateway import GatewayConfig, QueryGateway
    from ..serving.loadgen import run_open_loop
    from ..serving.proto import encode_payload, result_payload
    from ..skypeer.executor import execute_query

    rng = np.random.default_rng(17)
    queries = generate_skewed_workload(
        requests,
        network.dimensionality,
        min(3, network.dimensionality),
        list(network.topology.superpeer_ids),
        rng,
        distinct_subspaces=distinct_subspaces,
    )
    config = GatewayConfig(
        max_pending=max(64, concurrency),
        dispatchers=4,
        request_timeout=60.0,
        shutdown_timeout=10.0,
    )
    with ParallelEngine(n_workers, mp_start=primary) as engine:

        async def scenario():
            gateway = QueryGateway(
                network, engine=engine, backend="engine", config=config
            )
            host, port = await gateway.start()
            try:
                load = await run_open_loop(
                    host, port, queries,
                    rate=rate, connections=concurrency, variant=variant.value,
                )
            finally:
                await gateway.close()
            return load, gateway.stats

        load, stats = asyncio.run(scenario())
        engine_stats = engine.stats.as_dict()

    initiator = network.topology.superpeer_ids[0]
    mismatched: list[str] = []
    for subspace, blob in sorted(load.result_bytes.items()):
        run = execute_query(
            network, Query(subspace=subspace, initiator=initiator), variant
        )
        if encode_payload(result_payload(run.result)) != blob:
            mismatched.append(str(subspace))
    return {
        "backend": "engine",
        "variant": variant.value,
        "concurrency": concurrency,
        "rate_per_second": rate,
        "distinct_subspaces": len({tuple(q.subspace) for q in queries}),
        "load": load.as_dict(),
        "gateway": stats.as_dict(),
        "engine": engine_stats,
        "coalesce_hits": stats.coalesce_hits,
        "coalesce_hit_rate": stats.coalesce_hit_rate(),
        "shed_total": stats.shed_total,
        "results_match": not mismatched and load.inconsistent == 0 and bool(
            load.result_bytes
        ),
        "mismatched_subspaces": mismatched,
    }


def _computations_identical(reference: Any, other: Any) -> bool:
    """Byte-identity of two scans: result arrays, positions, threshold."""
    import numpy as np

    return bool(
        reference.threshold == other.threshold
        and np.array_equal(reference.positions, other.positions)
        and np.array_equal(reference.result.points.values, other.result.points.values)
        and np.array_equal(reference.result.points.ids, other.result.points.ids)
        and np.array_equal(reference.result.f, other.result.f)
    )


def _bench_salsa(
    n: int,
    dims: Sequence[int],
    distributions: Sequence[str],
    pivot_subspace: Sequence[int] = (0, 1),
    min_skip: float = 0.20,
) -> dict[str, Any]:
    """SaLSa early-termination cells on the crossover datasets.

    Each crossover dataset is re-queried on a *proper* low-dimensional
    subspace — the regime sort-based filtering targets: ``f`` is the
    full-space minimum, so the sorted scan's threshold prefix loosens
    on a subspace, while the SaLSa stop-point is computed from the
    subspace coordinates themselves and keeps cutting.  Cells report
    the skipped fraction (``pruned_by_threshold / input_size``) and
    comparisons-per-point for both scans, all deterministic.
    ``terminates_early`` gates the
    correlated cells: skipped fraction at least ``min_skip`` *and*
    strictly fewer comparisons than the sorted scan.
    """
    import numpy as np

    from ..core.dataset import PointSet
    from ..core.local_skyline import local_subspace_skyline
    from ..core.store import SortedByF
    from ..core.substrates import salsa_subspace_skyline
    from ..data.generators import make_generator

    subspace = tuple(pivot_subspace)
    cells: list[dict[str, Any]] = []
    identical = True
    terminates_early = True
    for dist_index, distribution in enumerate(distributions):
        for d in dims:
            cell_rng = np.random.default_rng(20070415 + 1000 * dist_index + d)
            store = SortedByF.from_points(
                PointSet(make_generator(distribution)(n, d, cell_rng))
            )
            reference = local_subspace_skyline(store, subspace)
            salsa = salsa_subspace_skyline(store, subspace)
            cell_identical = _computations_identical(reference, salsa)
            skipped = salsa.pruned_by_threshold / n
            cell_early = skipped >= min_skip and salsa.comparisons < reference.comparisons
            if distribution == "correlated":
                terminates_early = terminates_early and cell_early
            identical = identical and cell_identical
            cells.append(
                {
                    "distribution": distribution,
                    "d": d,
                    "n": n,
                    "subspace": list(subspace),
                    "result_size": len(reference.result),
                    "skipped_fraction": skipped,
                    "sorted_skipped_fraction": reference.pruned_by_threshold / n,
                    "comparisons_per_point": {
                        "sorted": reference.comparisons / n,
                        "salsa": salsa.comparisons / n,
                    },
                    "identical": cell_identical,
                    "terminates_early": cell_early,
                }
            )
    return {
        "pivot_subspace": list(subspace),
        "min_skip_fraction": min_skip,
        "cells": cells,
        "identical": identical,
        "terminates_early": terminates_early,
    }


def _bench_kernels(
    *,
    crossover_n: int = 1200,
    crossover_dims: Sequence[int] = (3, 5, 7),
    crossover_distributions: Sequence[str] = (
        "uniform", "correlated", "anticorrelated",
    ),
) -> dict[str, Any]:
    """Scan matrix: the paper's scan and the alternative of
    :mod:`repro.core.substrates`, identity-gated.

    The *crossover* runs both over small full-space stores across
    dimensionalities and distributions, reporting deterministic
    comparisons-per-point; ``identical`` gates each against the sorted
    scan.
    """
    import numpy as np

    from ..core.dataset import PointSet
    from ..core.local_skyline import local_subspace_skyline
    from ..core.store import SortedByF
    from ..core.substrates import salsa_subspace_skyline
    from ..data.generators import make_generator

    scans = {
        "sorted": local_subspace_skyline,
        "salsa": salsa_subspace_skyline,
    }
    crossover: list[dict[str, Any]] = []
    crossover_identical = True
    for dist_index, distribution in enumerate(crossover_distributions):
        for d in crossover_dims:
            # str hashes are per-process randomized; derive the seed
            # from stable integers so the datasets diff across runs.
            cell_rng = np.random.default_rng(20070415 + 1000 * dist_index + d)
            cell_store = SortedByF.from_points(
                PointSet(make_generator(distribution)(crossover_n, d, cell_rng))
            )
            cell_subspace = tuple(range(d))
            reference = local_subspace_skyline(cell_store, cell_subspace)
            cells: dict[str, float] = {}
            cell_identical = True
            for substrate, scan_fn in scans.items():
                scan = scan_fn(cell_store, cell_subspace)
                cell_identical = cell_identical and _computations_identical(
                    reference, scan
                )
                cells[substrate] = scan.comparisons / crossover_n
            crossover_identical = crossover_identical and cell_identical
            crossover.append(
                {
                    "distribution": distribution,
                    "d": d,
                    "n": crossover_n,
                    "result_size": len(reference.result),
                    "comparisons_per_point": cells,
                    "identical": cell_identical,
                }
            )

    salsa = _bench_salsa(crossover_n, crossover_dims, crossover_distributions)

    return {
        "crossover": crossover,
        "salsa": salsa,
        "identical": crossover_identical and salsa["identical"],
    }


def _stores_identical(a: Any, b: Any) -> bool:
    """Byte-identity of two skyline stores: values, ids, f ordering."""
    import numpy as np

    return bool(
        np.array_equal(a.points.values, b.points.values)
        and np.array_equal(a.points.ids, b.points.ids)
        and np.array_equal(a.f, b.f)
    )


def _churn_network(
    seed: int,
    d: int = 4,
    n_peers: int = 9,
    n_superpeers: int = 3,
    points_per_peer: int = 12,
) -> Any:
    """A small multi-super-peer network for the churn gauntlet.

    Incremental republish needs ≥ 2 super-peers to be distinguishable
    from a full republish (a one-super-peer network's every update
    touches every slot, which the engine deliberately republishes in
    full), so this builder does not reuse the fig3b configs.
    """
    import numpy as np

    from ..core.dataset import PointSet
    from ..p2p.network import SuperPeerNetwork
    from ..p2p.topology import Topology

    rng = np.random.default_rng(seed)
    topology = Topology.generate(
        n_peers=n_peers, n_superpeers=n_superpeers, degree=3.0, seed=seed
    )
    partitions = {}
    next_id = 0
    for peers in topology.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((points_per_peer, d)),
                np.arange(next_id, next_id + points_per_peer),
            )
            next_id += points_per_peer
    return SuperPeerNetwork.from_partitions(topology, partitions)


def _bench_incremental(
    n_workers: int,
    primary: str,
    grid_cells: Sequence[tuple[float, float]] = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
    ops_per_cell: int = 4,
    subspaces: Sequence[Sequence[int]] = ((0, 1, 2), (1, 3), (0, 2, 3)),
    variant: Variant = Variant.FTPM,
) -> dict[str, Any]:
    """The incremental churn grid: live updates vs from-scratch rebuild.

    Every cell replays a deterministic :func:`~repro.p2p.workload.
    churn_schedule` through :meth:`~repro.parallel.ParallelEngine.
    apply_update` on a *live* engine whose publication was warmed by a
    query pass, then compares the engine's post-churn answers
    byte-for-byte against a serial run over the from-scratch
    :func:`~repro.p2p.workload.rebuild_reference`.  Each op's report
    must show the republished delta bounded by the touched super-peers'
    *stores* — ``touched_store_nbytes``, measured here on the live
    network, not read back from the manifest — and strictly below the
    whole publication (super-peer set surgery is an honest full
    republish), and some op must take the incremental path.
    """
    from ..data.workload import Query
    from ..p2p.workload import churn_schedule, plan_op, rebuild_reference
    from ..skypeer.executor import execute_query

    cells: list[dict[str, Any]] = []
    identical = True
    delta_bounded = True
    incremental_ops_total = 0
    with ParallelEngine(n_workers, mp_start=primary) as engine:
        for cell_index, (update_rate, churn_rate) in enumerate(grid_cells):
            network = _churn_network(seed=101 + cell_index)
            queries = [
                Query(subspace=tuple(s), initiator=network.topology.superpeer_ids[0])
                for s in subspaces
            ]
            engine.run_queries(network, queries, [variant])  # warm the publication
            ops: list[dict[str, Any]] = []
            schedule = churn_schedule(
                ops_per_cell, update_rate, churn_rate, seed=cell_index
            )
            for op in schedule:
                kind, kwargs = plan_op(network, op)
                report = engine.apply_update(network, kind, **kwargs)
                touched_store_nbytes = sum(
                    network.store_of(sp).nbytes for sp in report.touched_superpeers
                )
                bounded = report.full_republish or (
                    report.republished_bytes <= touched_store_nbytes
                    and report.republished_bytes < report.total_nbytes
                )
                delta_bounded = delta_bounded and bounded
                if not report.full_republish:
                    incremental_ops_total += 1
                ops.append(
                    {
                        **report.as_dict(),
                        "touched_store_nbytes": touched_store_nbytes,
                        "delta_bounded": bounded,
                    }
                )
            reference = rebuild_reference(network)
            live = engine.run_queries(network, queries, [variant])[variant]
            cell_identical = True
            for query, execution in zip(queries, live):
                ref_query = Query(
                    subspace=query.subspace,
                    initiator=reference.topology.superpeer_ids[0],
                )
                ref = execute_query(reference, ref_query, variant)
                cell_identical = cell_identical and _stores_identical(
                    execution.result, ref.result
                )
            identical = identical and cell_identical
            cells.append(
                {
                    "update_rate": update_rate,
                    "churn_rate": churn_rate,
                    "ops": ops,
                    "republished_bytes": sum(o["republished_bytes"] for o in ops),
                    "publication_nbytes": ops[-1]["total_nbytes"] if ops else 0,
                    "incremental_ops": sum(
                        1 for o in ops if not o["full_republish"]
                    ),
                    "identical": cell_identical,
                    "delta_bounded": all(o["delta_bounded"] for o in ops),
                }
            )
    return {
        "grid": [list(cell) for cell in grid_cells],
        "ops_per_cell": ops_per_cell,
        "variant": variant.value,
        "subspaces": [list(s) for s in subspaces],
        "cells": cells,
        "identical": identical,
        "delta_bounded": delta_bounded,
        "exercised": incremental_ops_total > 0,
        "incremental_ops_total": incremental_ops_total,
    }


def _bench_update_latency(
    grid_cells: Sequence[tuple[float, float]] = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
    ops_per_cell: int = 6,
) -> dict[str, Any]:
    """Per-op incremental-vs-rebuild latency over the churn grid.

    Replays the deterministic churn schedules serially through the
    delta-maintenance paths, timing each op and the from-scratch
    rebuild it must match, and recording the path taken, the candidate
    points examined and any ``store.from_points`` full re-sorts.  The
    rebuild-equivalent work of a delete — what the pre-ledger code
    recomputed — is the peer's remaining data plus every list its
    super-peer holds; ``delete_incremental`` asserts ledger deletes
    examine strictly less than that.
    """
    from ..obs.metrics import MetricsRegistry
    from ..obs.runtime import observed
    from ..p2p.workload import (
        apply_mutation,
        churn_schedule,
        plan_op,
        rebuild_reference,
    )

    cells: list[dict[str, Any]] = []
    identical = True
    deletes = inserts = 0
    promoted_deletes = rebuilt_deletes = 0
    delete_bounded = True
    insert_from_points = 0
    incremental_seconds_total = 0.0
    rebuild_seconds_total = 0.0
    for cell_index, (update_rate, churn_rate) in enumerate(grid_cells):
        network = _churn_network(seed=131 + cell_index)
        schedule = churn_schedule(ops_per_cell, update_rate, churn_rate, seed=17 + cell_index)
        ops: list[dict[str, Any]] = []
        for op in schedule:
            kind, kwargs = plan_op(network, op)
            rebuild_work = 0
            if kind in ("insert", "delete", "fail"):
                sp_id = network.topology.superpeer_of_peer(kwargs["peer_id"])
                superpeer = network.superpeers[sp_id]
                rebuild_work = len(network.peers[kwargs["peer_id"]].data) + sum(
                    len(lst) for lst in superpeer.peer_skylines.values()
                )
            registry = MetricsRegistry()
            started = time.perf_counter()
            with observed(metrics=registry):
                outcome = apply_mutation(network, kind, **kwargs)
            incremental_seconds = time.perf_counter() - started
            from_points_runs = int(registry.total("store.from_points"))
            started = time.perf_counter()
            reference = rebuild_reference(network)
            rebuild_seconds = time.perf_counter() - started
            op_identical = all(
                _stores_identical(
                    network.superpeers[sp].require_store(),
                    reference.superpeers[sp].require_store(),
                )
                for sp in network.superpeers
            )
            identical = identical and op_identical
            incremental_seconds_total += incremental_seconds
            rebuild_seconds_total += rebuild_seconds
            path = outcome.path
            examined = outcome.examined
            if kind == "delete":
                deletes += 1
                if path == "promoted":
                    promoted_deletes += 1
                    delete_bounded = delete_bounded and examined < rebuild_work
                elif path == "rebuilt":
                    rebuilt_deletes += 1
            elif kind == "insert":
                inserts += 1
                insert_from_points += from_points_runs
            ops.append(
                {
                    "kind": kind,
                    "path": path,
                    "examined": examined,
                    "promoted": getattr(outcome, "promoted", 0),
                    "rebuild_work": rebuild_work,
                    "from_points_runs": from_points_runs,
                    "incremental_seconds": incremental_seconds,
                    "rebuild_seconds": rebuild_seconds,
                    "identical": op_identical,
                }
            )
        cells.append(
            {
                "update_rate": update_rate,
                "churn_rate": churn_rate,
                "ops": ops,
                "identical": all(o["identical"] for o in ops),
            }
        )
    return {
        "grid": [list(cell) for cell in grid_cells],
        "ops_per_cell": ops_per_cell,
        "cells": cells,
        "deletes": deletes,
        "promoted_deletes": promoted_deletes,
        "rebuilt_deletes": rebuilt_deletes,
        "inserts": inserts,
        "insert_from_points": insert_from_points,
        "incremental_seconds_total": incremental_seconds_total,
        "rebuild_seconds_total": rebuild_seconds_total,
        "rebuild_over_incremental": (
            rebuild_seconds_total / incremental_seconds_total
            if incremental_seconds_total > 0
            else None
        ),
        "identical": identical,
        "delete_incremental": (
            promoted_deletes > 0 and rebuilt_deletes == 0 and delete_bounded
        ),
        "insert_no_resort": inserts > 0 and insert_from_points == 0,
    }


def _other_start_method(primary: str) -> str | None:
    """The fork/spawn counterpart of ``primary``, when available."""
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    for candidate in ("fork", "spawn"):
        if candidate != primary and candidate in available:
            return candidate
    return None


def bench_smoke(
    scale: str | Scale | None = None,
    workers: int | None = None,
    dims: Iterable[int] = range(5, 11),
    variants: Sequence[Variant | str] = tuple(Variant),
) -> dict[str, Any]:
    """Serial-vs-parallel baseline over the fig3b dimensionality sweep."""
    scale = resolve_scale(scale)
    n_workers = resolve_workers(workers)
    if n_workers <= 1:
        n_workers = 2  # the smoke exists to exercise the pool
    variant_list = [Variant.parse(v) if isinstance(v, str) else v for v in variants]
    primary = start_method()

    dims = list(dims)
    prepared = []
    for d in dims:
        config = ExperimentConfig(dimensionality=d).scaled(scale)
        network = build_network(config)
        prepared.append((d, network, make_queries(network, config, scale.queries)))

    serial_wall, serial = _run_sweep(prepared, variant_list, workers=1)

    # One run per start method, the primary first: it supplies the
    # top-level parallel fields.
    methods = [primary]
    secondary = _other_start_method(primary)
    if secondary is not None:
        methods.append(secondary)

    engines: dict[str, dict[str, Any]] = {}
    equality: dict[str, dict[str, Any]] = {}
    walls: dict[str, float] = {}
    for method in methods:
        with ParallelEngine(n_workers, mp_start=method) as engine:
            wall, results = _run_sweep(prepared, variant_list, n_workers, engine=engine)
            engines[method] = engine.stats.as_dict()
        walls[method] = wall
        mismatched = _mismatches(serial, results)
        equality[method] = {"matches": not mismatched, "mismatched_fields": mismatched}

    primary_stats = engines[primary]
    all_mismatches = [
        f"{method}: {entry}" for method, eq in equality.items()
        for entry in eq["mismatched_fields"]
    ]

    # Worker attach: the mean across every engine of the run (each
    # worker's first materialization reports).
    attach_samples = [
        e["shm_attach_mean_seconds"] for e in engines.values()
        if e["shm_attach_mean_seconds"] is not None
    ]
    shm_attach = sum(attach_samples) / len(attach_samples) if attach_samples else None

    # Per-variant means across the sweep, from the serial (reference) run.
    variant_means: dict[str, dict[str, float]] = {}
    for variant in variant_list:
        rows = [serial[d][variant] for d in dims]
        variant_means[variant.value] = {
            "mean_computational_time": sum(r.mean_computational_time for r in rows) / len(rows),
            "mean_total_time": sum(r.mean_total_time for r in rows) / len(rows),
            "mean_volume_kb": sum(r.mean_volume_kb for r in rows) / len(rows),
            "mean_messages": sum(r.mean_messages for r in rows) / len(rows),
            "mean_comparisons": sum(r.mean_comparisons for r in rows) / len(rows),
            "mean_critical_path_examined": sum(
                r.mean_critical_path_examined for r in rows
            ) / len(rows),
        }

    cache = _bench_cache(prepared, serial, variant_list, n_workers, primary)

    serving_dim, serving_network, _queries = prepared[0]
    serving = _bench_serving(
        serving_network,
        n_workers=n_workers,
        primary=primary,
        variant=Variant.FTPM if Variant.FTPM in variant_list else variant_list[0],
    )
    serving["dimensionality"] = serving_dim

    kernels = _bench_kernels()

    incremental = _bench_incremental(n_workers, primary=primary)

    update_latency = _bench_update_latency()

    parallel_wall = walls[primary]
    return {
        "schema": SMOKE_SCHEMA,
        "sweep": "fig3b-dimensionality",
        "scale": scale.name,
        "dimensions": dims,
        "queries_per_config": scale.queries,
        "workers": n_workers,
        "start_method": primary,
        "start_methods": methods,
        "cpu_count": os.cpu_count(),
        "degraded_parallelism": (os.cpu_count() or 1) < 2,
        "python": platform.python_version(),
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "parallel_wall_seconds_by_run": walls,
        "speedup": serial_wall / parallel_wall if parallel_wall else float("nan"),
        "pool_startup_seconds": primary_stats["pool_startup_seconds"],
        "dispatch_overhead_per_task_seconds": primary_stats[
            "dispatch_overhead_per_task_seconds"
        ],
        "shm_attach_mean_seconds": shm_attach,
        "cache": cache,
        "serving": serving,
        "kernels": kernels,
        "incremental": incremental,
        "update_latency": update_latency,
        "engines": engines,
        "equality": equality,
        "parallel_matches_serial": all(eq["matches"] for eq in equality.values()),
        "mismatched_fields": all_mismatches,
        "variants": variant_means,
        "per_dimension": {
            str(d): {v.value: _stats_dict(serial[d][v]) for v in variant_list}
            for d in dims
        },
    }


def bench_serving(
    scale: str | Scale | None = None,
    workers: int | None = None,
    dim: int = 5,
    concurrency: int = 32,
    requests: int = 96,
    rate: float = 400.0,
    variant: Variant | str = Variant.FTPM,
) -> dict[str, Any]:
    """Standalone open-loop gateway bench (``skypeer bench --serve``).

    Emits a document whose only measurement section is
    ``"serving"`` — the same section :func:`bench_smoke` embeds — so
    ``benchmarks/check_regression.py`` applies the same gated verdicts
    (``results_match``, ``coalesce_hits > 0``) to either report kind.
    """
    scale = resolve_scale(scale)
    n_workers = resolve_workers(workers)
    if n_workers <= 1:
        n_workers = 2
    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    primary = start_method()
    config = ExperimentConfig(dimensionality=dim).scaled(scale)
    network = build_network(config)
    serving = _bench_serving(
        network,
        n_workers=n_workers,
        primary=primary,
        concurrency=concurrency,
        requests=requests,
        rate=rate,
        variant=variant,
    )
    serving["dimensionality"] = dim
    return {
        "schema": SMOKE_SCHEMA,
        "sweep": "serving-open-loop",
        "scale": scale.name,
        "dimensions": [dim],
        "workers": n_workers,
        "start_method": primary,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "serving": serving,
    }


def bench_churn(
    scale: str | Scale | None = None,
    workers: int | None = None,
) -> dict[str, Any]:
    """Standalone churn gauntlet (``skypeer bench --churn``).

    Emits a document whose measurement sections are
    ``"incremental"`` (live-engine slot republish) and
    ``"update_latency"`` (serial delta-maintenance compute) — the same
    sections :func:`bench_smoke` embeds — so
    ``benchmarks/check_regression.py`` applies the same gated verdicts
    (``identical``, ``delta_bounded``, ``delete_incremental``,
    ``insert_no_resort``) to either report kind.  CI uploads it as the
    churn-grid artifact.
    """
    scale = resolve_scale(scale)
    n_workers = resolve_workers(workers)
    if n_workers <= 1:
        n_workers = 2
    primary = start_method()
    incremental = _bench_incremental(n_workers, primary=primary)
    update_latency = _bench_update_latency()
    return {
        "schema": SMOKE_SCHEMA,
        "sweep": "incremental-churn-grid",
        "scale": scale.name,
        "workers": n_workers,
        "start_method": primary,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "incremental": incremental,
        "update_latency": update_latency,
    }


def write_bench_smoke(path: str, report: dict[str, Any]) -> None:
    """Write a smoke report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
