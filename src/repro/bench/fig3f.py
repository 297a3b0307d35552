"""Figure 3(f) — SKYPEER's relative performance over naive vs. network size.

Paper shape: every variant's speed-up over naive grows with the number
of peers; at 12000 peers FTPM reaches ~17x in the paper's setting.

Two bases are reported.  *time* is the simulated computational-clock
ratio — faithful to the paper but, at reduced scale, sensitive to OS
scheduling noise (a single hiccup among N_sp measured super-peer
durations distorts the max).  *work* is the critical-path
examined-points ratio — deterministic yet parallelism-aware (it sees
progressive merging distribute the initiator's merge), hence the basis
the benchmark suite asserts the growth trend on.  Every scan on the
path to the initiator counts on it, relayed or not: FT* pays the
initiator's scan before any other scan can start and RT* the whole
cascade down the propagation path, neither of which naive pays, so at
reduced scale the work ratios start below 1 and rise with N_p — FTPM
fastest; FTFM crosses 1 and flattens between the two largest sizes;
RTFM stays below FTFM throughout (its scans run one after another down
the path).
"""

from __future__ import annotations

from ..skypeer.variants import Variant
from .report import ResultTable
from .sweeps import sweep_network_size

__all__ = ["run"]


def run(scale: str | None = None) -> ResultTable:
    results = sweep_network_size(scale)
    variants = Variant.skypeer_variants()
    columns = ["N_p (paper)"]
    columns += [f"{v.value} (time)" for v in variants]
    columns += [f"{v.value} (work)" for v in variants]
    table = ResultTable(
        experiment="fig3f",
        title="speed-up over naive vs N_p (time = sim. clock, work = critical-path examined)",
        columns=columns,
    )
    for n_peers, stats in results.items():
        naive = stats[Variant.NAIVE]
        row: dict = {"N_p (paper)": n_peers}
        for variant in variants:
            row[f"{variant.value} (time)"] = (
                naive.mean_computational_time / stats[variant].mean_computational_time
            )
            row[f"{variant.value} (work)"] = (
                naive.mean_critical_path_examined
                / stats[variant].mean_critical_path_examined
                if stats[variant].mean_critical_path_examined
                else float("nan")
            )
        table.add_row(**row)
    table.add_note("values > 1 mean SKYPEER is faster; paper shape: grows with N_p")
    return table
