"""``benchmarks/check_regression.py`` on small synthetic reports.

The gate walks the baseline: a report that lacks a variant, a tracked
metric, the parallel verdict or a gated section its baseline has fails,
however little it still carries.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT

SCRIPT = f"{REPO_ROOT}/benchmarks/check_regression.py"

REPORT = {
    "schema": "repro-bench-smoke/13",
    "parallel_matches_serial": True,
    "mismatched_fields": [],
    "variants": {
        "FTPM": {
            "mean_comparisons": 120.0,
            "mean_volume_kb": 3.5,
            "mean_messages": 14.0,
            "mean_critical_path_examined": 40.0,
            "mean_total_time": 0.01,
        },
        "naive": {
            "mean_comparisons": 900.0,
            "mean_volume_kb": 20.0,
            "mean_messages": 14.0,
            "mean_critical_path_examined": 300.0,
        },
    },
    "cache": {"identical": True, "hit_rate": 0.5, "mismatched_fields": []},
    "serving": {"results_match": True, "coalesce_hits": 3, "load": {}},
    "incremental": {"identical": True, "delta_bounded": True, "exercised": True},
    "update_latency": {
        "identical": True,
        "delete_incremental": True,
        "insert_no_resort": True,
    },
}


def gate(tmp_path, current: dict, baseline: dict) -> subprocess.CompletedProcess:
    current_path = tmp_path / "current.json"
    baseline_path = tmp_path / "baseline.json"
    current_path.write_text(json.dumps(current))
    baseline_path.write_text(json.dumps(baseline))
    return subprocess.run(
        [sys.executable, SCRIPT, str(current_path), "--baseline", str(baseline_path)],
        capture_output=True, text=True, timeout=60,
    )


def without(path: tuple[str, ...]) -> dict:
    report = copy.deepcopy(REPORT)
    holder = report
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    return report


def test_a_report_compared_with_itself_passes(tmp_path):
    proc = gate(tmp_path, REPORT, REPORT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_an_empty_report_fails(tmp_path):
    proc = gate(tmp_path, {}, REPORT)
    assert proc.returncode == 1
    assert "variants.FTPM" in proc.stderr


@pytest.mark.parametrize(
    "missing",
    [
        ("cache",),
        ("serving",),
        ("incremental",),
        ("update_latency",),
        ("parallel_matches_serial",),
        ("variants", "naive"),
        ("variants", "FTPM", "mean_volume_kb"),
    ],
    ids=lambda path: ".".join(path),
)
def test_a_report_missing_what_its_baseline_has_fails(tmp_path, missing):
    proc = gate(tmp_path, without(missing), REPORT)
    assert proc.returncode == 1
    assert "missing from the current report" in proc.stderr


@pytest.mark.parametrize("missing", [("cache",), ("variants", "naive")], ids=".".join)
def test_a_baseline_without_it_asks_for_nothing(tmp_path, missing):
    """A ``bench --serve`` or ``--churn`` report carries only its own
    sections; it passes against itself."""
    report = without(missing)
    proc = gate(tmp_path, report, report)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_the_committed_baseline_rejects_an_empty_report(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    proc = subprocess.run(
        [sys.executable, SCRIPT, str(empty), "--baseline",
         f"{REPO_ROOT}/BENCH_baseline.json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
