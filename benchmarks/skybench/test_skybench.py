"""Tests of the benchmark itself.  Not part of tier-1: ``pytest benchmarks/skybench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from measures import compare, declared, percentile, verdict  # noqa: E402
from oracle import Dataset, skyline_ids  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, query_list, update_list, volume_probe  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_lists_are_a_function_of_the_seed(name):
    workload = WORKLOADS[name]

    def blob(seed: int) -> str:
        return json.dumps([query_list(workload, seed), update_list(workload, seed)])

    assert blob(7) == blob(7)
    assert blob(7) != blob(8)
    assert volume_probe(workload) == volume_probe(workload)


def test_measured_request_counts_are_fixed_by_the_seconds_alone():
    counts = {name: w.measured_requests(40) for name, w in WORKLOADS.items()}
    assert counts == {"cold_subspaces": 800, "hot_subspaces": 2800, "wide_skyline": 360, "mixed_updates": 400}
    assert WORKLOADS["cold_subspaces"].measured_requests(16) == 320
    assert WORKLOADS["wide_skyline"].measured_requests(0.01) == 1


def test_cold_list_meets_every_subspace_with_every_variant():
    pairs = {(tuple(r["subspace"]), r["variant"]) for r in query_list(WORKLOADS["cold_subspaces"], 7)}
    assert len(pairs) == 154 * 4


def test_update_list_keeps_cardinality_stationary():
    live: set[int] = set()
    for op in update_list(WORKLOADS["mixed_updates"], 7, count=200):
        if op["kind"] == "insert":
            assert not live & set(op["points"]["ids"])
            live |= set(op["points"]["ids"])
        else:
            assert set(op["point_ids"]) <= live
            live -= set(op["point_ids"])
        assert len(live) <= 20


@pytest.mark.parametrize("seed", range(20))
def test_oracle_agrees_with_skyline_mask(seed):
    from repro.core.dominance import skyline_mask

    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 200)), int(rng.integers(2, 6))
    # Every other seed draws from a coarse grid, for ties and duplicate points.
    values = rng.integers(0, 4, (n, d)).astype(float) if seed % 2 else rng.random((n, d))
    ids = rng.permutation(n) + 1000
    subspace = sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
    expected = frozenset(ids[skyline_mask(values, subspace)].tolist())
    assert skyline_ids(values, ids, subspace) == expected


def test_dataset_mirrors_updates():
    data = Dataset(np.array([[0.5, 0.5], [0.9, 0.1]]), np.array([1, 2]))
    assert data.skyline((0, 1)) == {1, 2}
    data.apply({"kind": "insert", "points": {"values": [[0.1, 0.1]], "ids": [3]}})
    assert data.skyline((0, 1)) == {3}
    data.apply({"kind": "delete", "point_ids": [3]})
    assert data.skyline((0, 1)) == {1, 2}


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile(list(range(1, 101)), 95) == 95
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        Span("parent", 0.0, 10.0, None, "w/0"),
        Span("a", 1.0, 4.0, 0, "w/0"),
        Span("b", 3.0, 6.0, 0, "w/0"),  # overlaps a: [1, 6] is covered once
        Span("c", 9.0, 12.0, 0, "w/0"),  # clipped to the parent's end
        Span("grandchild", 1.5, 2.0, 1, "w/0"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 3.0, 0.5])


def test_tracer_nests_and_adopts_spans_from_other_threads():
    tracer = Tracer()
    with tracer.span("request", "w/3") as request:
        with tracer.span("roundtrip") as roundtrip:
            pass
        tracer.add("dispatch", tracer.spans[roundtrip].start, tracer.spans[roundtrip].end, roundtrip)
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("request", None, "w/3"), ("roundtrip", request, "w/3"), ("dispatch", roundtrip, "w/3")]
    assert self_times(tracer.spans)[roundtrip] == pytest.approx(0.0)


def test_verdicts():
    lower = {"better": "lower", "bound": 0.10}
    higher = {"better": "higher", "bound": 0.10}
    assert verdict(lower, [100.0], [105.0])[1] == "unchanged"
    assert verdict(lower, [100.0], [120.0])[1] == "regressed"
    assert verdict(lower, [100.0], [80.0])[1] == "improved"
    assert verdict(higher, [100.0], [80.0])[1] == "regressed"
    assert verdict(higher, [100.0], [120.0])[1] == "improved"
    # One side spreads wider than the bound and the sides overlap.
    assert verdict(lower, [90.0, 100.0, 130.0], [100.0, 120.0, 125.0])[1] == "unresolved"
    # Wide spread, but every run of B is worse than every run of A.
    assert verdict(lower, [90.0, 100.0, 115.0], [120.0, 130.0, 150.0])[1] == "regressed"


def test_compare_exits_nonzero_only_on_a_regression(tmp_path, capsys):
    decl = declared()

    def result(path, factor):
        groups = {
            group: {
                m["name"]: {"value": 100.0 * (factor if m["better"] == "lower" else 1 / factor), "unit": m["unit"]}
                for m in decl[group]
            }
            for group in ("end_to_end", "per_layer")
        }
        path.write_text(json.dumps({"workloads": {"hot_subspaces": groups}}))
        return path

    base = result(tmp_path / "a.json", 1.0)
    assert compare([base, result(tmp_path / "same.json", 1.0)]) == 0
    assert compare([base, result(tmp_path / "better.json", 0.5)]) == 0
    assert "improved" in capsys.readouterr().out
    assert compare([base, result(tmp_path / "worse.json", 1.5)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out
    # The timings are listed with their change, but carry no verdict.
    assert [line.split()[-2:] for line in out.splitlines() if "query_p50_ms" in line] == [["no", "bound"]]


def test_contained_returns_only_after_every_process_the_work_started(tmp_path):
    pid_file = tmp_path / "orphan.pid"
    script = (
        "import subprocess, sys\n"
        "from server import contained\n"
        "def work():\n"
        "    orphan = subprocess.Popen(['sleep', '0.5'], start_new_session=True)\n"
        "    open(sys.argv[1], 'w').write(str(orphan.pid))\n"
        "    return 7\n"
        "sys.exit(contained(work))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(pid_file)], cwd=HERE, timeout=60)
    assert done.returncode == 7
    assert not Path("/proc", pid_file.read_text()).exists()


@pytest.mark.timeout(900)
def test_quick_run_end_to_end(tmp_path):
    out, trace = tmp_path / "skybench.json", tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7",
         "--out", str(out), "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert report["comparable"] is False
    decl = declared()
    assert list(report["workloads"]) == [w["name"] for w in decl["workloads"]]
    for name, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["end_to_end"]) == {m["name"] for m in decl["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in decl["per_layer"]}
        assert all(m["value"] > 0 for m in result["end_to_end"].values()), name
        layers = result["per_layer"]
        assert layers["failed_share"]["value"] == 0
        assert layers["parallel.leaked_processes"]["value"] == 0
        assert layers["parallel.leaked_shm_segments"]["value"] == 0
        assert f"{name}" in done.stdout

        # The roundtrip's own self time and its children's add up to its duration.
        spans = [Span(**s) for s in json.loads(trace.with_name(f"trace-{name}.json").read_text())]
        own = self_times(spans)
        roundtrips = [i for i, s in enumerate(spans) if s.name == "serving.gateway_roundtrip"]
        assert roundtrips
        for i in roundtrips:
            children = [own[j] for j, s in enumerate(spans) if s.parent == i]
            assert children and own[i] >= 0
            assert own[i] + sum(children) == pytest.approx(spans[i].duration)
            assert spans[i].request.startswith(f"{name}/")
