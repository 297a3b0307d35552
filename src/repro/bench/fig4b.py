"""Figure 4(b) — computational time for large networks (20000-80000 peers).

Paper shape: the improvement factor of progressive merging over naive
increases with the network size.  The table is the wall-clock
computational clock; the benchmark suite asserts the same trend on the
deterministic work basis of Figure 3(f) (naive over FTPM, critical-path
examined points).
"""

from __future__ import annotations

from ..skypeer.variants import Variant
from .report import ResultTable
from .sweeps import sweep_large_network_size

__all__ = ["run"]


def run(scale: str | None = None) -> ResultTable:
    results = sweep_large_network_size(scale)
    table = ResultTable(
        experiment="fig4b",
        title="computational time vs large N_p (ms, N_sp = 1%)",
        columns=["N_p (paper)"] + [v.value for v in Variant],
    )
    for n_peers, stats in results.items():
        row = {"N_p (paper)": n_peers}
        for variant in Variant:
            row[variant.value] = stats[variant].mean_computational_time * 1e3
        table.add_row(**row)
    table.add_note("paper shape: *TPM improvement over naive grows with N_p")
    return table
