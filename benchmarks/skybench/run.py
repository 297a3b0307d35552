"""skybench: the gateway-level end-to-end benchmark, with a per-layer traced run.

    python3 benchmarks/skybench/run.py --seed 20070415 --out skybench.json

runs the four workloads one after the other, each as an untraced
end-to-end run against ``python -m repro.cli serve`` in a subprocess and
then a traced in-process replay, checks every answer, prints every
metric by name with its unit and writes the JSON.

    run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    run.py --compare A.json B.json [...]

prints workload x metric for two result sets with the verdict against
the bounds of BENCHMARK.json and exits 1 if anything regressed.

See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

from e2e import Run
from measures import compare, declared, with_units
from server import REPO, SRC, contained
from traced import traced_run
from workloads import DATA_SEED, WORKLOADS, Workload

DEFAULT_SEED = 20070415

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    end_to_end: bool,
    per_layer: bool,
    quick: bool = False,
    trace_out: Path | None = None,
) -> dict[str, Any]:
    """One workload: the end-to-end run, the answer check and, if asked, the traced run."""
    from repro.p2p.network import SuperPeerNetwork

    decl = declared()
    run = Run(workload, seed, seconds, workdir)
    asyncio.run(run.execute(SETUPS if end_to_end and not quick else 1))
    # Pre-processed only where backbone_kb_per_query needs to execute on it.
    network = SuperPeerNetwork.build(preprocess=end_to_end, **workload.network.build_kwargs())
    failed = run.check_answers(network)
    leaked = sum(run.leaks.values())
    out: dict[str, Any] = {
        "correct": failed == 0 and leaked == 0,
        "attempted": run.attempted,
        "failed": failed,
        "samples": {
            "queries": len(run.query_replies),
            "updates": len(run.update_replies),
            "setups": len(run.setups),
            "measured_seconds": run.wall,
        },
    }
    if end_to_end:
        out["end_to_end"] = with_units(run.end_to_end(network), decl["end_to_end"])
    if per_layer:
        layers = run.serving_layer(failed)
        traced, tracer = traced_run(workload, seed, quick)
        layers.update(traced)
        out["per_layer"] = with_units(layers, decl["per_layer"])
        if trace_out is not None:
            tracer.write(trace_out)
    return out


def print_metrics(name: str, workload: Workload, result: dict[str, Any]) -> None:
    samples = result["samples"]
    print(f"== {name}: {workload.why}")
    print(
        f"   {workload.clients} closed-loop query client(s); samples: {samples['queries']} queries, "
        f"{samples['updates']} updates in {samples['measured_seconds']:.1f} s, "
        f"{samples['setups']} set-up(s); attempted {result['attempted']}, failed {result['failed']}"
    )
    for group in ("end_to_end", "per_layer"):
        for metric, entry in result.get(group, {}).items():
            print(f"   {metric:<40}{entry['value']:>16.4f} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the request lists (order, Zipf draws, update rows)")
    parser.add_argument("--seconds", type=float,
                        help="sizes the measured request list: the workload's fixed count per "
                             "40 s, scaled (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the request list and of the traced prefix, one set-up; "
                             "the numbers are marked non-comparable")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    parser.add_argument("--trace-out", type=Path, default=Path("skybench-trace.json"),
                        help="where the traced run writes its spans")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="RESULT.json")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) < 2:
            parser.error("--compare needs at least two result files")
        return compare(args.compare)
    if args.trace is not None and args.workload is None:
        parser.error("--trace selects the metrics of one workload: give --workload")

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"skybench: nothing to measure, {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # measure this checkout, not an installed copy
    seconds = args.seconds if args.seconds is not None else float(declared()["run_seconds"])
    if args.quick:
        seconds /= 10.0
    scratch = REPO / ".skybench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    # The traced run's in-process engine puts its lock files and snapshot
    # directory under the temporary directory: keep that inside the checkout.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    work = _one if args.workload is not None else _all
    try:
        # In a child, so that no process started for the run outlives this one.
        return contained(lambda: work(args, seconds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()


def _one(args: argparse.Namespace, seconds: float, workdir: Path) -> int:
    """The driver's contract: one workload, one metric group, result on the last line."""
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    result = run_workload(
        workload, args.seed, seconds, workdir, end_to_end=not traced, per_layer=traced,
        quick=args.quick, trace_out=args.trace_out,
    )
    print_metrics(args.workload, workload, result)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer" if traced else "end_to_end"],
    }))
    return 0


def _all(args: argparse.Namespace, seconds: float, workdir: Path) -> int:
    nproc = os.cpu_count() or 1
    report: dict[str, Any] = {
        "seed": args.seed,
        "data_seed": DATA_SEED,
        "seconds": seconds,
        "comparable": not args.quick,
        "host": {"nproc": nproc, "degraded_parallelism": nproc < 2, "network": "loopback"},
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        trace_out = args.trace_out.with_name(f"{args.trace_out.stem}-{name}{args.trace_out.suffix}")
        result = run_workload(
            workload, args.seed, seconds, workdir, end_to_end=True, per_layer=True,
            quick=args.quick, trace_out=trace_out,
        )
        print_metrics(name, workload, result)
        report["workloads"][name] = result
    if args.quick:
        print("note: --quick run; the numbers are not comparable")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
