"""The machine-readable perf baseline (``skypeer bench --smoke``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.smoke import DETERMINISTIC_FIELDS, SMOKE_SCHEMA, bench_smoke, write_bench_smoke
from repro.cli import main as cli_main


# The smoke fixture and the standalone churn run each spin up worker
# pools and replay whole benchmark sweeps: give them a deadline well
# beyond CI's per-test --timeout default.
pytestmark = pytest.mark.timeout(900)


@pytest.fixture(scope="module")
def report():
    """One micro smoke run shared across assertions (it spins a pool)."""
    return bench_smoke(scale="tiny", workers=2, dims=[5], variants=["FTPM"])


def test_schema_and_shape(report):
    assert report["schema"] == SMOKE_SCHEMA
    assert report["sweep"] == "fig3b-dimensionality"
    assert report["scale"] == "tiny"
    assert report["workers"] == 2
    assert report["dimensions"] == [5]
    assert report["serial_wall_seconds"] > 0
    assert report["parallel_wall_seconds"] > 0
    assert report["speedup"] > 0
    assert isinstance(report["cpu_count"], int)


def test_parallel_matches_serial(report):
    assert report["parallel_matches_serial"] is True
    assert report["mismatched_fields"] == []
    # One run per start method, nothing else to tell runs apart.
    assert sorted(report["engines"]) == sorted(report["equality"]) == ["fork", "spawn"]
    assert report["start_methods"][0] == report["start_method"]


def test_per_variant_means_present(report):
    means = report["variants"]["FTPM"]
    for field in (
        "mean_computational_time",
        "mean_total_time",
        "mean_volume_kb",
        "mean_messages",
        "mean_comparisons",
        "mean_critical_path_examined",
    ):
        assert field in means
    per_dim = report["per_dimension"]["5"]["FTPM"]
    for field in DETERMINISTIC_FIELDS:
        assert field in per_dim


def test_serving_section_present_and_passing(report):
    serving = report["serving"]
    assert serving["results_match"] is True
    assert serving["mismatched_subspaces"] == []
    assert serving["coalesce_hits"] > 0
    assert 0.0 < serving["coalesce_hit_rate"] <= 1.0
    load = serving["load"]
    assert load["ok"] + load["shed"] + load["errors"] == load["offered"]
    assert load["responses_consistent"] is True
    for q in ("p50", "p90", "p99"):
        assert load["latency_seconds"][q] >= 0.0


def test_degraded_parallelism_flag(report):
    import os

    assert report["degraded_parallelism"] is ((os.cpu_count() or 1) < 2)


def test_kernels_salsa_section(report):
    salsa = report["kernels"]["salsa"]
    assert salsa["identical"] is True
    assert salsa["terminates_early"] is True
    assert tuple(salsa["pivot_subspace"]) == (0, 1)
    assert salsa["min_skip_fraction"] == pytest.approx(0.20)
    assert salsa["cells"]
    for cell in salsa["cells"]:
        assert cell["identical"] is True
        cpp = cell["comparisons_per_point"]
        assert set(cpp) == {"sorted", "salsa"}
        assert 0.0 <= cell["skipped_fraction"] <= 1.0
        if cell["distribution"] == "correlated":
            # The acceptance gate: ≥ 20 % of points skipped and strictly
            # fewer comparisons than the sorted scan on correlated cells.
            assert cell["terminates_early"] is True
            assert cell["skipped_fraction"] >= 0.20
            assert cpp["salsa"] < cpp["sorted"]


def test_kernels_identity_verdict_includes_salsa(report):
    # The rolled-up kernels.identical verdict folds the salsa section
    # in: it cannot be true while the salsa gate is false.
    if report["kernels"]["identical"]:
        assert report["kernels"]["salsa"]["identical"] is True


def test_incremental_section_identical_at_every_cell(report):
    incremental = report["incremental"]
    assert incremental["identical"] is True
    assert incremental["delta_bounded"] is True
    assert incremental["exercised"] is True
    assert incremental["cells"]
    for cell in incremental["cells"]:
        assert cell["identical"] is True
        assert cell["delta_bounded"] is True
        assert len(cell["ops"]) == incremental["ops_per_cell"]


def test_incremental_deltas_scale_with_the_touched_slot(report):
    incremental = report["incremental"]
    saw_incremental = False
    for cell in incremental["cells"]:
        for op in cell["ops"]:
            if op["full_republish"]:
                continue
            saw_incremental = True
            assert op["republished_bytes"] <= op["touched_store_nbytes"]
            assert op["republished_bytes"] == op["slot_nbytes"]
            assert op["republished_bytes"] < op["total_nbytes"]
            assert op["touched_superpeers"]
    assert saw_incremental


def test_bench_churn_standalone_report():
    from repro.bench.smoke import bench_churn

    churn = bench_churn(scale="tiny", workers=2)
    assert churn["schema"] == SMOKE_SCHEMA
    assert churn["sweep"] == "incremental-churn-grid"
    assert churn["incremental"]["identical"] is True
    assert churn["incremental"]["delta_bounded"] is True


def test_report_is_json_serializable(report, tmp_path):
    path = tmp_path / "BENCH_test.json"
    write_bench_smoke(str(path), report)
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == SMOKE_SCHEMA
    assert loaded["parallel_matches_serial"] is True


def test_cli_bench_requires_smoke(capsys):
    assert cli_main(["bench"]) == 2
    assert "--smoke" in capsys.readouterr().err
