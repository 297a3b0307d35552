"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3a", "fig3f", "fig4h"):
            assert name in out


class TestFigure:
    def test_runs_figure_text(self, capsys):
        assert main(["figure", "fig3a", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "SEL_p" in out

    def test_runs_figure_markdown(self, capsys):
        assert main(["figure", "fig3a", "--scale", "tiny", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### fig3a")

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig3b", "--workers", "2"],
            ["all", "--workers", "2"],
            ["serve", "--backend", "socket"],
        ],
        ids=["figure-workers", "all-workers", "serve-socket"],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        """Figures run serially, and ``serve`` has no socket backend."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: skypeer" in capsys.readouterr().err


class TestQuery:
    def test_single_query(self, capsys):
        code = main([
            "query", "--peers", "20", "--points-per-peer", "15",
            "--dims", "4", "--subspace", "0,2", "--variant", "rtpm",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RTPM" in out
        assert "computational time" in out
        assert "transferred volume" in out

    def test_naive_variant(self, capsys):
        code = main([
            "query", "--peers", "10", "--points-per-peer", "10",
            "--dims", "3", "--subspace", "0,1", "--variant", "naive",
        ])
        assert code == 0

    def test_clustered_dataset(self, capsys):
        code = main([
            "query", "--peers", "10", "--points-per-peer", "10",
            "--dims", "3", "--subspace", "0,1,2", "--dataset", "clustered",
        ])
        assert code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--smoke"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_explain(self, capsys):
        code = main([
            "query", "--peers", "12", "--points-per-peer", "10",
            "--dims", "3", "--subspace", "0,1", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scan effort" in out
        assert "busiest super-peers" in out

    def test_json_report(self, capsys):
        import json

        code = main([
            "query", "--peers", "12", "--points-per-peer", "10",
            "--dims", "3", "--subspace", "0,1", "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["query"]["subspace"] == [0, 1]


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "trace", "--peers", "16", "--points-per-peer", "10",
            "--dims", "4", "--subspace", "0,2", "--variant", "ftpm",
            "--seed", "1", "--output", str(trace_path),
            "--metrics-output", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        assert "metrics:" in out
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases <= {"X", "M"} and "X" in phases
        with open(metrics_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["totals"]["skypeer.queries"] == 1

    def test_trace_leaves_observability_uninstalled(self, tmp_path, capsys):
        from repro.obs import active_metrics, active_tracer

        code = main([
            "trace", "--peers", "10", "--points-per-peer", "8",
            "--dims", "3", "--subspace", "0,1",
            "--output", str(tmp_path / "t.json"),
        ])
        assert code == 0
        assert active_tracer() is None
        assert active_metrics() is None


class TestExport:
    def test_export_writes_file(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        code = main(["export", "--scale", "tiny", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "fig3a" in target.read_text()


class TestSocketTransport:
    # 60 peers -> 3 super-peers, so queries really cross sockets
    _NET = ["--peers", "60", "--points-per-peer", "8", "--dims", "4",
            "--subspace", "0,2"]

    @staticmethod
    def _json_tail(out: str):
        """Parse the JSON document after the build-progress preamble."""
        import json

        return json.loads(out[out.index("{"):])

    def test_query_over_sockets_reports_measured_vs_estimated(self, capsys):
        code = main(["query", *self._NET, "--variant", "FTPM",
                     "--transport", "socket"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|SKY_U|" in out
        assert "transport          : socket," in out
        assert "measured bytes" in out
        assert "estimated bytes" in out

    def test_query_json_includes_transport_report(self, capsys):
        code = main(["query", *self._NET, "--variant", "RTFM",
                     "--transport", "socket", "--json"])
        assert code == 0
        payload = self._json_tail(capsys.readouterr().out)
        assert payload["transport"] == "socket"
        assert payload["payload_bytes"] > 0
        assert payload["estimated_bytes"] > payload["payload_bytes"]
        assert payload["result_ids"]

    def test_socket_and_sim_agree_on_result_size(self, capsys):
        sizes = {}
        for transport in ("sim", "socket"):
            code = main(["query", *self._NET, "--variant", "naive",
                         "--transport", transport, "--json"])
            assert code == 0
            payload = self._json_tail(capsys.readouterr().out)
            sizes[transport] = (
                payload["result_size"]
                if transport == "socket"
                else payload["result_points"]
            )
        assert sizes["sim"] == sizes["socket"]

    def test_transport_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", *self._NET, "--transport", "socket",
                  "--transport-mode", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --transport-mode" in capsys.readouterr().err

    def test_environment_does_not_pick_the_transport(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "socket")
        code = main(["query", *self._NET, "--variant", "FTFM"])
        assert code == 0
        out = capsys.readouterr().out
        assert "transferred volume" in out
        assert "measured bytes" not in out

    def test_trace_surfaces_byte_comparison(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        code = main(["trace", *self._NET, "--variant", "FTPM",
                     "--transport", "socket", "--output", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured bytes" in out
        assert "estimated bytes" in out
        trace = json.loads(target.read_text())
        names = {event.get("name") for event in trace["traceEvents"]}
        assert "socket query" in names


class TestLeanStart:
    """``serve``, ``update``, ``query`` and ``trace`` start without
    :mod:`repro.bench` (the figure modules, harness and sweeps): neither
    importing the CLI nor parsing one of their command lines loads it."""

    def test_runtime_commands_do_not_import_bench(self):
        source = (
            "import sys\n"
            "import repro.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('repro.bench'))\n"
            "print(loaded())\n"
            "for argv in (['serve'], ['update', 'insert'], ['query'], ['trace']):\n"
            "    repro.cli._build_parser().parse_args(argv)\n"
            "print(loaded())\n"
            "repro.cli._build_parser().parse_args(['figure', 'fig3a'])\n"
            "print('repro.bench' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:3] == ["[]", "[]", "True"]
