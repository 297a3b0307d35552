"""Bench-regression gate: compare a fresh ``skypeer bench --smoke`` report
against the committed baseline.

CI runs the smoke benchmark, then::

    python benchmarks/check_regression.py BENCH_current.json \
        --baseline BENCH_baseline.json

The *tracked* metrics are the deterministic work measures — comparisons,
transferred volume, message count, critical-path points examined, result
size — which are identical for the same code on any machine, so a >2x
change is a real algorithmic regression, not scheduler noise.  Timing
fields (wall seconds, computational time) vary with CI hardware and are
reported informationally only.

Exit status 1 when any tracked metric of any variant worsens by more
than ``--max-ratio`` (default 2.0) against any baseline, or when the
current run's parallel execution diverged from serial.

Schema-3 reports carry a correctness verdict that is gated the same
way (timings inside the section stay informational): the scan-cache
``identical`` flag (cache hits must replay the exact deterministic
statistics of the scans that stored them).  The section is optional
so older reports still pass.

Schema-4 reports add a ``serving`` section (``bench --smoke`` embeds
it; ``bench --serve`` emits it standalone).  Its gated verdicts are
``results_match`` (gateway responses byte-identical to serial
re-execution) and ``coalesce_hits > 0`` (the skewed open-loop workload
must exercise coalescing); p50/p99 latency and the shed rate are
printed informationally — they move with CI hardware, correctness does
not.

Schema-5 reports add a ``kernels`` section (the whole-store scans
``sorted``/``salsa``).  Its gated verdict is
``identical`` (every substrate returns results byte-identical to the
sorted scan); comparison counts per point are printed informationally.

Schema-6 reports add ``kernels.salsa`` with two more gated verdicts —
``identical`` (the SaLSa scan byte-identical to the sorted scan on
every pivot-subspace cell) and ``terminates_early``
(every correlated cell skips at least 20% of its points *and* spends
strictly fewer comparisons than the sorted scan; both sides are
deterministic counters, so the gate is machine-stable).

Schema-7 reports add ``incremental`` (``bench --smoke`` embeds it;
``bench --churn`` emits it standalone): the churn gauntlet's grid of
live updates applied through ``ParallelEngine.apply_update``.  Its
gated verdicts are ``identical`` (after every cell's schedule, engine
answers byte-identical to a serial run over the from-scratch rebuild),
``delta_bounded`` (each incremental op's republished bytes bounded by
its touched slots and strictly below the publication — deterministic
byte counters, machine-stable) and ``exercised`` (at least one op must
actually take the incremental path).

Schema-8 reports add ``update_latency`` (embedded by ``bench --smoke``
and ``bench --churn``): the compute side of the same churn grid,
replayed serially through the delta-maintenance paths (eviction
ledgers + sorted splices).  Its gated verdicts are ``identical``
(every post-op store byte-identical to a from-scratch rebuild),
``delete_incremental`` (at least one skyline-touching delete resolved
via the eviction ledger with no delete falling back to a rebuild, each
examining strictly fewer candidates than the rebuild-equivalent work —
deterministic counters) and ``insert_no_resort`` (zero
``SortedByF.from_points`` full re-sorts during incremental inserts).
The incremental-vs-rebuild wall-clock ratio is printed
informationally.

Schema-12 reports drop ``cache.publishes`` and ``cache.invalid`` (the
scan cache is a worker-private LRU now); the ``cache`` gates above read
only ``identical`` and the hit rates, so they hold for every schema.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Deterministic per-variant metrics: same code => same numbers, any host.
#: "Worse" means larger for every one of these.
TRACKED = (
    "mean_comparisons",
    "mean_volume_kb",
    "mean_messages",
    "mean_critical_path_examined",
)

#: Host-dependent metrics, printed for context but never gated on.
INFORMATIONAL = (
    "mean_computational_time",
    "mean_total_time",
)


def compare(current: dict, baseline: dict, name: str, max_ratio: float) -> list[str]:
    """Return a list of human-readable regression descriptions."""
    problems: list[str] = []
    baseline_variants = baseline.get("variants", {})
    for variant, stats in sorted(current.get("variants", {}).items()):
        base = baseline_variants.get(variant)
        if base is None:
            continue
        for metric in TRACKED:
            now, then = stats.get(metric), base.get(metric)
            if now is None or then is None:
                continue
            if then <= 0:
                continue
            ratio = now / then
            if ratio > max_ratio:
                problems.append(
                    f"{variant}.{metric}: {now:.4g} vs {then:.4g} in {name} "
                    f"({ratio:.2f}x > {max_ratio:.1f}x limit)"
                )
    return problems


def report_timing(current: dict, baseline: dict, name: str) -> None:
    for variant, stats in sorted(current.get("variants", {}).items()):
        base = baseline.get("variants", {}).get(variant)
        if base is None:
            continue
        for metric in INFORMATIONAL:
            now, then = stats.get(metric), base.get(metric)
            if now and then:
                print(
                    f"  [info] {variant}.{metric}: {now:.4g} "
                    f"(baseline {name}: {then:.4g}, {now / then:.2f}x)"
                )


def check_current_verdicts(current: dict) -> list[str]:
    """Correctness verdicts of the current run itself (schema 3+).

    These do not need a baseline: a cache hit that is not byte-identical
    to recomputation is wrong on any machine.  Hit rates are printed for
    context only.
    """
    problems: list[str] = []
    cache = current.get("cache")
    if cache is not None:
        if not cache.get("identical", True):
            problems.append(
                f"cache replay diverged from serial: {cache.get('mismatched_fields')}"
            )
        hit_rate = cache.get("hit_rate")
        if not hit_rate:
            problems.append(
                "cache hit rate is zero: repeated-subspace workload never hit"
            )
        else:
            print(f"  [info] cache.hit_rate: {hit_rate:.3f}")
        warm = cache.get("warm", {})
        if warm.get("hit_rate") is not None:
            print(f"  [info] cache.warm.hit_rate: {warm['hit_rate']:.3f}")
    serving = current.get("serving")
    if serving is not None:
        if not serving.get("results_match", True):
            problems.append(
                "gateway responses diverged from serial re-execution: "
                f"{serving.get('mismatched_subspaces')}"
            )
        if not serving.get("coalesce_hits", 0):
            problems.append(
                "gateway coalesce hits are zero: the skewed open-loop "
                "workload never coalesced"
            )
        load = serving.get("load", {})
        latency = load.get("latency_seconds", {})
        if latency:
            print(
                f"  [info] serving latency: p50 {latency.get('p50', 0):.4g}s, "
                f"p90 {latency.get('p90', 0):.4g}s, p99 {latency.get('p99', 0):.4g}s"
            )
        print(
            f"  [info] serving: {load.get('offered', 0)} offered, "
            f"{load.get('ok', 0)} ok, shed rate {load.get('shed_rate', 0):.3f}, "
            f"coalesce hit rate {serving.get('coalesce_hit_rate', 0):.3f}"
        )
    kernels = current.get("kernels")
    if kernels is not None:
        if not kernels.get("identical", True):
            broken = [
                f"{cell.get('distribution')}/d={cell.get('d')}"
                for cell in kernels.get("crossover", [])
                if not cell.get("identical", True)
            ]
            problems.append(
                f"scan kernels diverged from the serial sorted scan: {broken}"
            )
        salsa = kernels.get("salsa")
        if salsa is not None:
            if not salsa.get("identical", True):
                broken = [
                    f"{cell.get('distribution')}/d={cell.get('d')}"
                    for cell in salsa.get("cells", [])
                    if not cell.get("identical", True)
                ]
                problems.append(
                    f"salsa substrate diverged from the sorted scan: {broken}"
                )
            if not salsa.get("terminates_early", True):
                lazy = [
                    f"{cell.get('distribution')}/d={cell.get('d')} "
                    f"(skip {cell.get('skipped_fraction', 0):.2f}, "
                    f"cmp/pt {cell.get('comparisons_per_point', {}).get('salsa', 0):.1f}"
                    f" vs sorted "
                    f"{cell.get('comparisons_per_point', {}).get('sorted', 0):.1f})"
                    for cell in salsa.get("cells", [])
                    if cell.get("distribution") == "correlated"
                    and not cell.get("terminates_early", True)
                ]
                problems.append(
                    "salsa failed to terminate early on correlated cells: "
                    f"{lazy}"
                )
            for cell in salsa.get("cells", []):
                cpp = cell.get("comparisons_per_point", {})
                print(
                    f"  [info] kernels.salsa {cell.get('distribution')} "
                    f"d={cell.get('d')}: skip "
                    f"{cell.get('skipped_fraction', 0):.2f}, cmp/pt "
                    f"sorted {cpp.get('sorted', 0):.1f} / salsa "
                    f"{cpp.get('salsa', 0):.1f}"
                )
        for cell in kernels.get("crossover", []):
            cpp = cell.get("comparisons_per_point", {})
            base = cpp.get("sorted")
            best = min(cpp.items(), key=lambda kv: kv[1]) if cpp else None
            if base and best:
                print(
                    f"  [info] kernels.crossover {cell.get('distribution')} "
                    f"d={cell.get('d')}: sorted {base:.1f} cmp/pt, best "
                    f"{best[0]} {best[1]:.1f} cmp/pt"
                )
    incremental = current.get("incremental")
    if incremental is not None:
        if not incremental.get("identical", True):
            broken = [
                f"u={cell.get('update_rate')},c={cell.get('churn_rate')}"
                for cell in incremental.get("cells", [])
                if not cell.get("identical", True)
            ]
            problems.append(
                "incremental maintenance diverged from from-scratch "
                f"recomputation at: {broken}"
            )
        if not incremental.get("delta_bounded", True):
            oversized = [
                f"u={cell.get('update_rate')},c={cell.get('churn_rate')} "
                f"op#{i} ({op.get('kind')}: {op.get('republished_bytes')}B "
                f"vs touched stores {op.get('touched_store_nbytes')}B / "
                f"publication {op.get('total_nbytes')}B)"
                for cell in incremental.get("cells", [])
                for i, op in enumerate(cell.get("ops", []))
                if not op.get("delta_bounded", True)
            ]
            problems.append(
                f"incremental republish rewrote more than the touched stores: "
                f"{oversized}"
            )
        if not incremental.get("exercised", True):
            problems.append(
                "incremental path never exercised: every op fell back to a "
                "full republish"
            )
        for cell in incremental.get("cells", []):
            ops = cell.get("ops", [])
            print(
                f"  [info] incremental u={cell.get('update_rate')} "
                f"c={cell.get('churn_rate')}: "
                f"{cell.get('incremental_ops', 0)}/{len(ops)} "
                f"ops incremental, {cell.get('republished_bytes', 0)}B "
                f"republished vs "
                f"{sum(op.get('touched_store_nbytes', 0) for op in ops)}B "
                f"of touched stores, {cell.get('publication_nbytes', 0)}B "
                f"publication"
            )
    update_latency = current.get("update_latency")
    if update_latency is not None:
        if not update_latency.get("identical", True):
            broken = [
                f"u={cell.get('update_rate')},c={cell.get('churn_rate')} "
                f"op#{i} ({op.get('kind')}/{op.get('path')})"
                for cell in update_latency.get("cells", [])
                for i, op in enumerate(cell.get("ops", []))
                if not op.get("identical", True)
            ]
            problems.append(
                "delta maintenance diverged from from-scratch rebuild at: "
                f"{broken}"
            )
        if not update_latency.get("delete_incremental", True):
            problems.append(
                "ledger delete path not effective: "
                f"{update_latency.get('promoted_deletes', 0)} promoted / "
                f"{update_latency.get('rebuilt_deletes', 0)} rebuilt of "
                f"{update_latency.get('deletes', 0)} deletes (promoted ops "
                "must exist, none may rebuild, and each must examine fewer "
                "candidates than the rebuild-equivalent work)"
            )
        if not update_latency.get("insert_no_resort", True):
            problems.append(
                "incremental insert ran a full re-sort: "
                f"{update_latency.get('insert_from_points', 0)} "
                f"SortedByF.from_points call(s) across "
                f"{update_latency.get('inserts', 0)} insert(s)"
            )
        ratio = update_latency.get("rebuild_over_incremental")
        print(
            f"  [info] update_latency: {update_latency.get('deletes', 0)} "
            f"deletes ({update_latency.get('promoted_deletes', 0)} via "
            f"ledger), {update_latency.get('inserts', 0)} inserts "
            f"({update_latency.get('insert_from_points', 0)} re-sorts), "
            "rebuild/incremental wall "
            + (f"{ratio:.2f}x" if ratio else "n/a")
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh bench --smoke --json output")
    parser.add_argument(
        "--baseline", action="append", default=[], metavar="PATH",
        help="committed baseline JSON (repeatable); missing files are skipped "
             "with a warning so partial baselines do not brick CI",
    )
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current/baseline exceeds this (default 2.0)")
    args = parser.parse_args(argv)

    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)

    failures: list[str] = []
    if not current.get("parallel_matches_serial", True):
        failures.append(
            f"parallel run diverged from serial: {current.get('mismatched_fields')}"
        )
    failures.extend(check_current_verdicts(current))

    compared = 0
    for path in args.baseline:
        try:
            with open(path, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except OSError as exc:
            print(f"warning: skipping baseline {path}: {exc}", file=sys.stderr)
            continue
        if baseline.get("schema") != current.get("schema"):
            print(
                f"warning: {path} has schema {baseline.get('schema')!r}, "
                f"current is {current.get('schema')!r}; comparing anyway",
                file=sys.stderr,
            )
        compared += 1
        print(f"comparing against {path}:")
        failures.extend(compare(current, baseline, path, args.max_ratio))
        report_timing(current, baseline, path)

    if compared == 0:
        print("error: no baseline could be read", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} tracked metric(s) regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: tracked metrics within {args.max_ratio:.1f}x of {compared} baseline(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
