"""The server under test: ``python -m repro.cli serve`` as a subprocess.

The server runs in a session of its own, so that its pool workers can be
found (every process of the session), charged (CPU, peak RSS) and, if
they outlive it, counted and killed.  It is stopped with SIGINT, the
path that runs ``shutdown_engines()``; SIGTERM orphans the pool workers
and leaves the shm segment behind, so it is never used.  ``TMPDIR``
points into the run's own work directory: what the server leaves there
and under ``/dev/shm`` in its pid's name is counted as leaked.

``contained`` is how the benchmark itself ends: it returns only when
every process the work started, the server's session included, has
ended.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
_TICKS = os.sysconf("SC_CLK_TCK")
_SHM = Path("/dev/shm")
_PR_SET_CHILD_SUBREAPER = 36

#: What a process gets to end by itself once the work is over, before it is killed.
ORPHAN_GRACE_SECONDS = 10.0

# Fields of /proc/<pid>/stat, counted after the command name.
_PPID, _SESSION = 1, 3


def _proc_stats(field: int, value: int) -> dict[int, list[str]]:
    """``/proc/<pid>/stat`` fields after the command name, per live process whose ``field`` is ``value``."""
    stats = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[field]) == value and fields[0] != "Z":
            stats[int(entry)] = fields
    return stats


def contained(work: Callable[[], int]) -> int:
    """Run ``work`` in a forked child; return its exit code once every process it started has ended.

    This process adopts what the child orphans (``PR_SET_CHILD_SUBREAPER``):
    the server's session, and the resource tracker that an in-process
    engine or shm publication starts and that ends only after the process
    that started it.  It reaps them as they end and, ``ORPHAN_GRACE_SECONDS``
    after the child, kills what is left and fails the run.  SIGTERM is
    passed to the child as SIGINT, the signal the child and the server
    clean up on; a SIGINT from the terminal reaches the child by itself.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        code = 1
        try:
            code = work()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(child, signal.SIGINT))
    code, deadline, killed = None, 0.0, set()
    while True:
        try:
            pid, status = os.waitpid(-1, 0 if code is None else os.WNOHANG)
        except ChildProcessError:
            break  # no child left, adopted or own
        if pid == child:
            code = abs(os.waitstatus_to_exitcode(status))
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            deadline = time.monotonic() + ORPHAN_GRACE_SECONDS
        elif pid == 0:
            if time.monotonic() > deadline:
                for orphan in _proc_stats(_PPID, os.getpid()):
                    killed.add(orphan)
                    os.kill(orphan, signal.SIGKILL)
            time.sleep(0.01)
    if killed:
        print(f"skybench: killed {len(killed)} process(es) that outlived the run", file=sys.stderr)
    return code or (3 if killed else 0)


class Server:
    def __init__(self, serve_args: list[str], workdir: Path):
        self.serve_args = serve_args
        self.workdir = workdir
        self.tmpdir = workdir / "tmp"
        self.port_file = workdir / "gateway.port"
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self.process.pid

    async def start(self) -> float:
        """Spawn ``serve``; returns the seconds from spawn to the first pong."""
        from repro.serving.client import GatewayClient

        self.tmpdir.mkdir(parents=True, exist_ok=True)
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["TMPDIR"] = str(self.tmpdir)
        log = open(self.workdir / "server.log", "ab")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *self.serve_args,
                 "--port-file", str(self.port_file)],
                env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        finally:
            log.close()
        while not (self.port_file.exists() and self.port_file.read_text().endswith("\n")):
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited with {self.process.returncode} before binding")
            if time.perf_counter() - started > 120:
                raise RuntimeError("serve did not bind within 120 s")
            await asyncio.sleep(0.005)
        host, port = self.port_file.read_text().split()
        self.address = (host, int(port))
        async with await GatewayClient.connect(*self.address) as client:
            pong = await client.ping()
        if not pong.ok:
            raise RuntimeError(f"bad pong: {pong.payload}")
        return time.perf_counter() - started

    def cpu_seconds(self) -> float:
        """User + system CPU of every live process of the server's session."""
        stats = _proc_stats(_SESSION, self.pid).values()
        return sum(int(fields[11]) + int(fields[12]) for fields in stats) / _TICKS

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's session."""
        kb = 0
        for pid in _proc_stats(_SESSION, self.pid):
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    kb += int(line.split()[1])
        return kb / 1024.0

    def stop(self) -> dict[str, int]:
        """SIGINT, wait, kill what is left; returns what leaked.

        ``shm_segments`` counts the server's ``/dev/shm/repro-shm-*``
        entries and whatever it left in its ``TMPDIR`` (engine snapshot
        directories, block-cache lock files).
        """
        if self.process is None:
            return {"processes": 0, "shm_segments": 0}
        pid = self.pid
        if self.process.poll() is None:
            os.kill(pid, signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        # The resource tracker outlives the server by a moment; it is not a leak.
        deadline = time.perf_counter() + ORPHAN_GRACE_SECONDS
        while (survivors := _proc_stats(_SESSION, pid)) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if survivors:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
        left = list(_SHM.glob(f"repro-shm-{pid:x}-*")) if _SHM.is_dir() else []
        left += list(self.tmpdir.iterdir())
        for path in left:
            shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
        return {"processes": len(survivors), "shm_segments": len(left)}
