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
  along ends with its suite, so any that is still here was orphaned.
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


def _resource_trackers() -> list[str]:
    """``pid: command line`` of this user's live resource-tracker processes."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            if os.stat(f"/proc/{entry}").st_uid != os.getuid():
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # gone between listdir and read
        if "multiprocessing.resource_tracker" in command:
            found.append(f"{entry}: {command.strip()}")
    return found


def find_leaks() -> dict[str, list[str]]:
    tmp = tempfile.gettempdir()
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
        "resource-tracker processes": _resource_trackers(),
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
