"""Percentiles, the metric declarations of BENCHMARK.json, and ``--compare``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; an empty sample is an error, not a zero."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def declared() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def with_units(values: dict[str, float], declarations: list[dict[str, Any]]) -> dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    missing = [d["name"] for d in declarations if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]} for d in declarations
    }


def relative_change(metric: dict[str, Any], a: list[float], b: list[float]) -> float:
    """Change of the median from ``a`` to ``b`` as a share of ``a``'s; positive = worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    return sign * (med_b - med_a) / abs(med_a) if med_a else 0.0


def verdict(metric: dict[str, Any], a: list[float], b: list[float]) -> tuple[float, str]:
    """``relative_change`` and its verdict against the metric's bound.

    ``regressed`` / ``improved`` need the medians to differ by more than
    the bound; when the runs of one side spread wider than the bound the
    difference is ``unresolved``, unless every run of one side beats
    every run of the other.
    """
    change = relative_change(metric, a, b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    if abs(change) <= bound:
        return change, "unchanged"
    spread = max(
        (max(side) - min(side)) / abs(statistics.median(side)) for side in (a, b)
    )
    worse, better = (b, a) if change > 0 else (a, b)
    separated = min(sign * w for w in worse) > max(sign * x for x in better)
    if spread > bound and not separated:
        return change, "unresolved"
    return change, "regressed" if change > 0 else "improved"


#: Per-layer metrics ``--compare`` lists beside the bounded ones: the run's
#: timings, which hold no bound on a shared host and so carry no verdict.
UNBOUNDED_TIMINGS = (
    "query_p50_ms", "query_p95_ms", "query_qps", "update_p50_ms", "update_p95_ms",
    "cpu_ms_per_query",
)


def compare(result_files: Sequence[Path]) -> int:
    """Print workload x metric for result sets A and B; 1 if anything regressed.

    With two files, each is one side; with more, the first half is A and
    the second half B, so that repeated runs give each side a spread.
    """
    results = [json.loads(Path(f).read_text()) for f in result_files]
    half = len(results) // 2
    sides = (results[:half], results[half:])
    decl = declared()
    rows = [("end_to_end", m) for m in decl["end_to_end"]]
    rows += [("per_layer", m) for m in decl["per_layer"] if m["name"] in UNBOUNDED_TIMINGS]
    regressed = False
    print(f"{'workload':<16}{'metric':<24}{'A':>12}{'B':>12}{'change':>9}  verdict")
    for workload in results[0]["workloads"]:
        for group, metric in rows:
            name = metric["name"]
            a, b = (
                [r["workloads"][workload][group][name]["value"] for r in side]
                for side in sides
            )
            if "bound" in metric:
                change, word = verdict(metric, a, b)
            elif any(a + b):
                change, word = relative_change(metric, a, b), "no bound"
            else:
                continue  # update latencies where no update client runs
            regressed |= word == "regressed"
            print(
                f"{workload:<16}{name:<24}{statistics.median(a):>12.4f}"
                f"{statistics.median(b):>12.4f}{change:>+9.1%}  {word}"
            )
    if not all(r.get("comparable", True) for r in results):
        print("note: at least one side is a --quick run; its numbers are not comparable")
    return 1 if regressed else 0
