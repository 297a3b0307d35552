"""Benchmark harness: one experiment per table/figure of the paper."""

from __future__ import annotations

from .config import SCALES, ExperimentConfig, Scale, resolve_scale
from .figures import EXPERIMENTS
from .harness import VariantStats, build_network, make_queries, run_queries
from .report import ResultTable

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentConfig",
    "Scale",
    "SCALES",
    "resolve_scale",
    "ResultTable",
    "VariantStats",
    "build_network",
    "make_queries",
    "run_queries",
]


def run_experiment(experiment_id: str, scale: str | None = None) -> ResultTable:
    """Run one paper experiment by id (e.g. ``"fig3b"``)."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None
    return runner(scale)
