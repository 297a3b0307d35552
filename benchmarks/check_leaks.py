#!/usr/bin/env python3
"""What a test or bench job must not leave behind on its runner.

    python benchmarks/check_leaks.py

Run as the last step of a CI job, after every process the job started
has ended.  Lists, and exits 1 on, any of:

* segments ``repro-shm-*`` in ``/dev/shm`` and in the temp directory,
  the two places one can live (owners unlink at close/exit; a
  hard-killed owner's are swept by the next engine start, which a
  finished job no longer gets) — the data plane makes no other file;
* transport pidfiles ``repro-transport-*.pid`` in the temp directory
  and in ``$REPRO_TRANSPORT_RUNDIR`` — and, named separately, those
  whose endpoint process is still alive;
* a live ``multiprocessing.resource_tracker`` process of this user:
  the shm plane starts none, and one that a ``spawn`` pool brought
  along ends with its suite, so any that is still here was orphaned;
* a live orphaned pool worker of this user: a process running repro or
  multiprocessing code (a forked worker's command line is its
  server's) whose process-group leader is gone.  A worker exits within
  a fraction of a second of its parent, however the parent died.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile


def _alive(pidfile: str) -> bool:
    try:
        with open(pidfile, encoding="utf-8") as handle:
            os.kill(int(handle.read().strip()), 0)
    except (ValueError, OSError):
        return False
    return True


#: Command-line fragments of processes that run this repository's code:
#: a server (and, being forked from it, its pool workers) and a worker
#: of a ``spawn`` or ``forkserver`` pool.
_WORKER_MARKS = ("repro.cli", "/skypeer", "--multiprocessing-fork", "multiprocessing.forkserver")


def _processes() -> list[tuple[int, str, int, str]]:
    """``(pid, state, process group, command line)`` of this user's processes."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            if os.stat(f"/proc/{entry}").st_uid != os.getuid():
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                state, _ppid, pgid = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # gone between listdir and read
        found.append((int(entry), state, int(pgid), command.strip()))
    return found


def _is_live(pid: int) -> bool:
    """Whether ``pid`` names a process that has not exited (not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _resource_trackers(processes) -> list[str]:
    """``pid: command line`` of the live resource-tracker processes."""
    return [
        f"{pid}: {command}"
        for pid, _state, _pgid, command in processes
        if "multiprocessing.resource_tracker" in command
    ]


def _orphaned_workers(processes) -> list[str]:
    """``pid: command line`` of repro processes that outlived their group leader."""
    return [
        f"{pid}: {command}"
        for pid, state, pgid, command in processes
        if state != "Z"
        and pgid != pid
        and any(mark in command for mark in _WORKER_MARKS)
        and not _is_live(pgid)
    ]


def find_leaks() -> dict[str, list[str]]:
    tmp = tempfile.gettempdir()
    processes = _processes()
    rundirs = {tmp, os.environ.get("REPRO_TRANSPORT_RUNDIR") or tmp}
    pidfiles = sorted(
        path
        for rundir in rundirs
        for path in glob.glob(os.path.join(rundir, "repro-transport-*.pid"))
    )
    return {
        "segments": sorted(
            path
            for directory in {"/dev/shm", tmp}
            for path in glob.glob(os.path.join(directory, "repro-shm-*"))
        ),
        "transport pidfiles": pidfiles,
        "live endpoint processes": [path for path in pidfiles if _alive(path)],
        "resource-tracker processes": _resource_trackers(processes),
        "orphaned pool workers": _orphaned_workers(processes),
    }


def main() -> int:
    leaks = {label: found for label, found in find_leaks().items() if found}
    for label, found in leaks.items():
        print(f"leaked {label}:")
        for item in found:
            print(f"  {item}")
    if not leaks:
        print("no leaked segments, pidfiles or processes")
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main())
