"""``benchmarks/check_leaks.py``: the one leak check every CI job ends with."""

from __future__ import annotations

import contextlib
import os
import pathlib
import signal
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "check_leaks.py"


def _run(tmpdir: pathlib.Path, rundir: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, TMPDIR=str(tmpdir), REPRO_TRANSPORT_RUNDIR=str(rundir))
    return subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=60
    )


def test_names_every_kind_of_leftover_and_exits_1(tmp_path):
    tmpdir, rundir = tmp_path / "tmp", tmp_path / "run"
    tmpdir.mkdir()
    rundir.mkdir()
    (tmpdir / "repro-shm-1f-0-deadbeef").touch()  # a segment off /dev/shm
    (tmpdir / "unrelated.txt").touch()
    (rundir / "repro-transport-1.pid").write_text(f"{os.getpid()}\n")  # alive: us
    (rundir / "repro-transport-2.pid").write_text("not a pid\n")
    # A stand-in for an orphaned tracker: same command line, our uid.
    tracker = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; sys.stdin.readline()  # multiprocessing.resource_tracker"],
        stdin=subprocess.PIPE,
    )
    try:
        out = _run(tmpdir, rundir)
    finally:
        tracker.communicate(b"\n", timeout=30)
    assert out.returncode == 1, out.stdout + out.stderr
    for expected in (
        "leaked segments:", str(tmpdir / "repro-shm-1f-0-deadbeef"),
        "leaked transport pidfiles:", "repro-transport-2.pid",
        "leaked live endpoint processes:",
        "leaked resource-tracker processes:", f"{tracker.pid}: ",
    ):
        assert expected in out.stdout, (expected, out.stdout)
    live = out.stdout.split("leaked live endpoint processes:")[1]
    assert "repro-transport-1.pid" in live.split("leaked")[0]
    assert "repro-transport-2.pid" not in live.split("leaked")[0]
    assert "unrelated.txt" not in out.stdout


def test_clean_directories_report_nothing_of_theirs(tmp_path):
    # /dev/shm is shared with whatever engines this test session still
    # holds, so only the private directories' verdicts are asserted.
    out = _run(tmp_path, tmp_path)
    assert str(tmp_path) not in out.stdout
    for label in ("transport pidfiles", "live endpoint processes"):
        assert f"leaked {label}:" not in out.stdout


def test_names_a_worker_that_outlived_its_group_leader(tmp_path):
    # A stand-in for a SIGKILLed server: it leads its own process group
    # and forks one child (whose command line, like a pool worker's, is
    # its parent's) before it dies.
    leader = subprocess.Popen(
        [sys.executable, "-c",
         "import os, sys, time  # repro.cli serve\n"
         "pid = os.fork()\n"
         "if pid == 0:\n"
         "    time.sleep(60)\n"
         "    os._exit(0)\n"
         "print(pid, flush=True)\n"
         "time.sleep(60)\n"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    worker = int(leader.stdout.readline())
    try:
        out = _run(tmp_path, tmp_path)
        assert f"{worker}: " not in out.stdout  # its leader still lives
        leader.kill()
        leader.wait(timeout=30)
        out = _run(tmp_path, tmp_path)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker, signal.SIGKILL)
        leader.kill()
        leader.wait(timeout=30)
        leader.stdout.close()
    assert out.returncode == 1, out.stdout + out.stderr
    orphans = out.stdout.split("leaked orphaned pool workers:")[1]
    assert f"{worker}: " in orphans
