"""Every figure experiment runs at tiny scale and has the right shape.

These are integration tests for the bench layer; the quantitative
paper-shape assertions live in benchmarks/ where the scale is larger.

``figure_tables.json`` was recorded at ``--scale tiny`` when each figure
still had its own module: per experiment, the table's ``experiment``,
``title``, ``columns``, ``notes``, the swept values down its first
column, and the module docstring (the ``claim`` that ``skypeer list``
and EXPERIMENTS.md print).  Timing cells vary run to run, so the eight
one-statistic tables are checked against their sweep instead: each cell
is the statistic the old module plotted.
"""

import inspect
import json
import os

import pytest

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.report import ResultTable
from repro.bench.sweeps import (
    sweep_degree,
    sweep_dimensionality,
    sweep_large_network_size,
    sweep_points_per_peer,
    sweep_query_dimensionality,
)
from repro.skypeer.variants import Variant

pytestmark = pytest.mark.slow

with open(os.path.join(os.path.dirname(__file__), "figure_tables.json"), encoding="utf-8") as _f:
    TABLES = json.load(_f)

#: experiment -> (sweep, plotted VariantStats field, factor)
PLOTTED = {
    "fig3b": (sweep_dimensionality, "mean_computational_time", 1e3),
    "fig3c": (sweep_dimensionality, "mean_total_time", 1.0),
    "fig4a": (sweep_query_dimensionality, "mean_total_time", 1.0),
    "fig4b": (sweep_large_network_size, "mean_computational_time", 1e3),
    "fig4c": (sweep_large_network_size, "mean_total_time", 1.0),
    "fig4d": (sweep_degree, "mean_computational_time", 1e3),
    "fig4e": (sweep_degree, "mean_total_time", 1.0),
    "fig4f": (sweep_points_per_peer, "mean_total_time", 1.0),
}


def test_every_experiment_is_recorded():
    assert sorted(EXPERIMENTS) == sorted(TABLES)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_runs_at_tiny_scale(experiment_id):
    table = run_experiment(experiment_id, "tiny")
    assert isinstance(table, ResultTable)
    assert table.rows, experiment_id
    assert table.experiment == experiment_id
    # every row provides every column or an explicit None
    for row in table.rows:
        assert set(row) <= set(table.columns)
    # renders without blowing up
    assert table.to_text()
    assert table.to_markdown()
    # the shape recorded before the figures were folded into one module
    expected = TABLES[experiment_id]
    assert table.title == expected["title"]
    assert table.columns == expected["columns"]
    assert table.notes == expected["notes"]
    assert table.column(table.columns[0]) == expected["keys"]
    assert inspect.getdoc(EXPERIMENTS[experiment_id]) == expected["claim"]


@pytest.mark.parametrize("experiment_id", sorted(PLOTTED))
def test_one_statistic_tables_plot_it_for_every_variant(experiment_id):
    sweep, field, factor = PLOTTED[experiment_id]
    table = run_experiment(experiment_id, "tiny")
    results = sweep("tiny")
    assert table.column(table.columns[0]) == list(results)
    for row, stats in zip(table.rows, results.values()):
        for variant in Variant:
            assert row[variant.value] == getattr(stats[variant], field) * factor


def test_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig9z")


def test_fig3a_selectivity_monotone():
    table = run_experiment("fig3a", "tiny")
    sel_p = table.column("SEL_p %")
    assert sel_p == sorted(sel_p)
    sel_sp = table.column("SEL_sp %")
    for p, sp in zip(sel_p, sel_sp):
        assert sp <= p


def test_fig3d_progressive_merging_ships_less():
    table = run_experiment("fig3d", "tiny")
    for k in (2, 3):
        for fm, pm in zip(table.column(f"FTFM k={k}"), table.column(f"FTPM k={k}")):
            assert pm <= fm


def test_fig3c_progressive_merging_fastest_total():
    """PM never loses by more than wall-clock jitter at tiny scale;
    the strict (large-scale) shape assertions live in benchmarks/."""
    table = run_experiment("fig3c", "tiny")
    for row in table.rows:
        assert row["FTPM"] <= row["FTFM"] * 1.10
        assert row["RTPM"] <= row["RTFM"] * 1.10
