"""``skypeer serve`` end to end.

The CLI stands up a real gateway that answers queries until its
``--duration`` elapses — or until SIGTERM or SIGINT, which must take
the pool and its segments with it — and a SIGKILL leaves no worker
behind.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.parallel import start_method
from repro.serving.client import GatewayClient

from .conftest import run

REPO = pathlib.Path(__file__).resolve().parents[2]

# Each serve run spins a pool and builds a network: allow well beyond
# CI's per-test --timeout default.
pytestmark = pytest.mark.timeout(900)


class TestCliServe:
    def test_serve_answers_queries_until_duration(self, tmp_path, capsys):
        port_file = tmp_path / "gateway.addr"
        argv = [
            "serve", "--peers", "9", "--points-per-peer", "8", "--dims", "4",
            "--backend", "serial", "--duration", "6",
            "--port-file", str(port_file),
        ]
        codes: list[int] = []
        server = threading.Thread(target=lambda: codes.append(cli_main(argv)))
        server.start()
        try:
            deadline = time.monotonic() + 10.0
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert port_file.exists(), "serve never wrote its port file"
            host, port = port_file.read_text().split()

            async def scenario():
                async with await GatewayClient.connect(host, int(port)) as client:
                    pong = await client.ping()
                    result = await client.query([0, 1])
                return pong, result

            pong, result = run(scenario())
            assert pong.payload["op"] == "pong"
            assert result.ok
            assert result.payload["result"]["ids"]
        finally:
            server.join(timeout=30.0)
        capsys.readouterr()
        assert codes == [0]
        assert not server.is_alive()

    needs_proc_and_shm = pytest.mark.skipif(
        not os.access("/dev/shm", os.W_OK | os.X_OK)
        or not os.path.exists("/proc/self/stat"),
        reason="needs Linux /proc and a writable /dev/shm",
    )

    @needs_proc_and_shm
    @pytest.mark.parametrize("when", ["preprocessing", "serving"])
    def test_sigterm_stops_pool_and_unlinks_shm(self, tmp_path, when):
        """SIGTERM takes the SIGINT path: gateway closed, workers gone,
        no segment left — whether it lands on a serving gateway or in the
        middle of the pre-processing fan-out that precedes it."""
        self._signal_stops_pool(tmp_path, when, signal.SIGTERM)

    @needs_proc_and_shm
    @pytest.mark.parametrize("when", ["preprocessing", "serving"])
    def test_sigint_stops_pool_and_unlinks_shm(self, tmp_path, when):
        self._signal_stops_pool(tmp_path, when, signal.SIGINT)

    @needs_proc_and_shm
    def test_sigkill_leaves_no_worker_behind(self, tmp_path):
        """SIGKILL runs no shutdown, yet the pool workers follow their
        server within 5 s: each watches its parent pid."""
        server, tmpdir, port_file = _spawn_serve(tmp_path, ["24", "12", "4"])
        try:
            deadline = time.monotonic() + 60.0
            while not (port_file.exists() and port_file.read_text().endswith("\n")):
                assert server.poll() is None, "serve exited before binding"
                assert time.monotonic() < deadline, "serve never wrote its port file"
                time.sleep(0.05)
            host, port = port_file.read_text().split()

            async def scenario():
                async with await GatewayClient.connect(host, int(port)) as client:
                    return await client.query([0, 1])

            assert run(scenario()).ok  # the workers have attached and served
            workers = [pid for pid in _session_pids(server.pid) if pid != server.pid]
            assert len(workers) >= 2

            server.kill()
            server.wait(timeout=30.0)
            deadline = time.monotonic() + 5.0
            while _session_pids(server.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_pids(server.pid) == []
        finally:
            if _session_pids(server.pid):
                os.killpg(server.pid, signal.SIGKILL)
            server.wait(timeout=10.0)
            # What a hard kill does leave: the server's segments.
            for directory in (pathlib.Path("/dev/shm"), tmpdir):
                for path in directory.glob(f"repro-shm-{server.pid:x}-*"):
                    path.unlink()

    def _signal_stops_pool(self, tmp_path, when, signum):
        """On ``/dev/shm`` the server's segments are its only files: its
        own ``TMPDIR`` holds nothing of its making at any look and is
        empty once it has gone, so there is nothing a signal at a bad
        moment can strand."""
        # Pre-processing must outlast the poll below: ~1 s of it.
        size = ["800", "250", "8"] if when == "preprocessing" else ["24", "12", "4"]
        server, tmpdir, port_file = _spawn_serve(tmp_path, size)

        def segments() -> list[pathlib.Path]:
            return [
                path
                for directory in (pathlib.Path("/dev/shm"), tmpdir)
                for path in directory.glob(f"repro-shm-{server.pid:x}-*")
            ]

        def made_in_tmpdir() -> list[pathlib.Path]:
            # Not everything seen there is the server's: ``tempfile`` itself
            # tries a directory out with a file that comes and goes.
            return list(tmpdir.glob("repro-*"))

        try:
            deadline = time.monotonic() + 60.0
            if when == "preprocessing":
                # The partitions' segment exists exactly while the
                # fan-out runs.
                while not segments():
                    assert server.poll() is None, "serve exited before publishing"
                    assert time.monotonic() < deadline, "no pre-processing segment"
                    assert made_in_tmpdir() == []
                    time.sleep(0.002)
                time.sleep(0.2)  # batches attached and computing
            else:
                while not (
                    port_file.exists() and port_file.read_text().endswith("\n")
                ):
                    assert server.poll() is None, "serve exited before binding"
                    assert time.monotonic() < deadline, "serve never wrote its port file"
                    assert made_in_tmpdir() == []
                    time.sleep(0.05)
                host, port = port_file.read_text().split()

                async def scenario():
                    async with await GatewayClient.connect(host, int(port)) as client:
                        pong = await client.ping()
                        result = await client.query([0, 1])
                    return pong, result

                pong, result = run(scenario())
                assert pong.payload["op"] == "pong" and result.ok
                # What a hard kill would leave behind is really there.
                assert segments()
            assert made_in_tmpdir() == []
            # The session is the server and its two workers — under fork
            # nothing else: the shm plane starts no helper process.  (A
            # spawn pool brings multiprocessing's own tracker along.)
            session = len(_session_pids(server.pid))
            assert session == 3 if start_method() == "fork" else session >= 3

            server.send_signal(signum)
            assert server.wait(timeout=30.0) == 0
            # Workers end a moment after the server that told them to.
            deadline = time.monotonic() + 10.0
            while _session_pids(server.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_pids(server.pid) == []
            assert segments() == []
            assert list(tmpdir.iterdir()) == []
        finally:
            if _session_pids(server.pid):
                os.killpg(server.pid, signal.SIGKILL)
            server.wait(timeout=10.0)
            for path in segments():  # a failed run cleans up too
                path.unlink()


def _spawn_serve(tmp_path, size):
    """``serve --backend engine`` on ``size`` = (peers, points per peer,
    dims), in a session of its own with a private ``TMPDIR``; returns the
    process, that directory and the port file."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    port_file = tmp_path / "gateway.addr"
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    with open(tmp_path / "server.log", "wb") as log:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--peers", size[0], "--points-per-peer", size[1],
                "--dims", size[2], "--backend", "engine", "--workers", "2",
                "--port-file", str(port_file),
            ],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    return server, tmpdir, port_file


def _session_pids(session: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        state, _ppid, _pgrp, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            pids.append(int(entry))
    return pids
