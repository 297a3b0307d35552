#!/usr/bin/env python
"""Profile the two executions of Algorithm 1 on the crossover matrix.

Times the paper's ``sorted`` scan
(:func:`repro.core.local_skyline.local_subspace_skyline`, what every
query runs) and the alternative of :mod:`repro.core.substrates`
(``salsa``), each over the whole store, over a matrix of
(distribution, dims, points, query subspace) stores generated from the
``bench --smoke`` crossover seeds.  SaLSa is verified byte-equal to
``sorted`` on its first — *cold* — run, which also builds the
per-subspace SaLSa order cached on the store, and then both are timed
best-of-``--repeats`` warm.  The report names the fastest warm scan per
store and counts the wins, so whether an alternative earns its keep is
derived from data instead of folklore.

Usage::

    PYTHONPATH=src python benchmarks/profile_scans.py \
        [--output profile_scans.json] [--repeats 5] [--quick]

The JSON output is uploaded as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.bench.smoke import _computations_identical
from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.core.substrates import salsa_subspace_skyline
from repro.data.generators import make_generator

DISTRIBUTIONS = ("uniform", "correlated", "anticorrelated")

#: Scan name -> function over ``(store, subspace)``; ``sorted`` leads,
#: as the reference the other must equal.
SCANS = {
    "sorted": local_subspace_skyline,
    "salsa": salsa_subspace_skyline,
}

#: (distribution, dims, points, subspace): every distribution at
#: d in {3, 5, 7} and n in {1 200, 20 000} on the full space and on the
#: 2-d pivot subspace, plus 100 000 points on a proper subspace.
FULL_MATRIX = [
    (dist, d, n, subspace)
    for dist in DISTRIBUTIONS
    for d in (3, 5, 7)
    for n in (1200, 20000)
    for subspace in (tuple(range(d)), (0, 1))
] + [
    (dist, d, 100000, subspace)
    for dist in DISTRIBUTIONS
    for d, subspace in ((3, (0, 1)), (5, (0, 2, 4)))
]

QUICK_MATRIX = [
    ("uniform", 5, 1200, (0, 1, 2, 3, 4)),
    ("correlated", 5, 1200, (0, 1)),
    ("anticorrelated", 3, 1200, (0, 1, 2)),
]


def profile_store(dist: str, d: int, n: int, subspace: tuple, repeats: int) -> dict:
    """Cold and best-of-``repeats`` warm seconds per substrate for one store."""
    rng = np.random.default_rng(20070415 + 1000 * DISTRIBUTIONS.index(dist) + d)
    points = PointSet(make_generator(dist)(n, d, rng))
    store = SortedByF.from_points(points)
    reference = None
    row: dict = {
        "distribution": dist, "d": d, "n": n, "subspace": list(subspace),
        "cold_seconds": {}, "seconds": {},
    }
    for substrate, scan in SCANS.items():
        started = time.perf_counter()
        first = scan(store, subspace)
        row["cold_seconds"][substrate] = time.perf_counter() - started
        if reference is None:  # SCANS leads with sorted
            reference = first
            row["result_size"] = len(first.result)
        elif not _computations_identical(reference, first):  # pragma: no cover - tripwire
            raise AssertionError(f"{substrate} diverged on {(dist, d, n, subspace)}")
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            scan(store, subspace)
            best = min(best, time.perf_counter() - started)
        row["seconds"][substrate] = best
    row["fastest"] = min(row["seconds"], key=row["seconds"].get)
    return row


def run_profile(repeats: int = 5, quick: bool = False) -> dict:
    matrix = QUICK_MATRIX if quick else FULL_MATRIX
    rows = [profile_store(*entry, repeats) for entry in matrix]
    wins = {substrate: 0 for substrate in SCANS}
    for row in rows:
        wins[row["fastest"]] += 1
    return {
        "schema": "repro-profile-scans/2",
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "substrates": list(SCANS),
        "stores": rows,
        "wins": wins,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="3-store smoke matrix")
    args = parser.parse_args(argv)
    report = run_profile(repeats=args.repeats, quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
