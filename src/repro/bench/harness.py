"""Shared machinery for the per-figure experiments.

``build_network`` turns an :class:`~repro.bench.config.ExperimentConfig`
into a pre-processed network (memoized per process — figure sweeps
reuse networks across variants), ``run_queries`` executes a workload
under one or more variants and aggregates the paper's three metrics:
computational time, total time and transferred volume.  Every
execution runs serially, in this process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..data.workload import Query, generate_workload
from ..obs.runtime import active_metrics
from ..p2p.network import SuperPeerNetwork
from ..skypeer.executor import QueryExecution, execute_query
from ..skypeer.variants import Variant
from .config import ExperimentConfig

__all__ = ["VariantStats", "build_network", "make_queries", "run_queries", "clear_network_cache"]

_NETWORK_CACHE: dict[tuple, SuperPeerNetwork] = {}


def build_network(config: ExperimentConfig, use_cache: bool = True) -> SuperPeerNetwork:
    """Build (or fetch from the per-process cache) a network for ``config``."""
    key = (
        config.n_peers,
        config.points_per_peer,
        config.dimensionality,
        config.degree,
        config.dataset,
        config.n_superpeers,
        config.seed,
    )
    if use_cache and key in _NETWORK_CACHE:
        return _NETWORK_CACHE[key]
    network = SuperPeerNetwork.build(
        n_peers=config.n_peers,
        points_per_peer=config.points_per_peer,
        dimensionality=config.dimensionality,
        n_superpeers=config.n_superpeers,
        degree=config.degree,
        dataset=config.dataset,
        seed=config.seed,
    )
    if use_cache:
        _NETWORK_CACHE[key] = network
    return network


def clear_network_cache() -> None:
    """Drop memoized networks (tests use this to bound memory)."""
    _NETWORK_CACHE.clear()


def make_queries(
    network: SuperPeerNetwork, config: ExperimentConfig, n_queries: int
) -> list[Query]:
    """Draw the figure's workload: random k-subspaces, random initiators."""
    rng = np.random.default_rng(config.seed + 1)
    return generate_workload(
        num_queries=n_queries,
        dimensionality=config.dimensionality,
        query_dimensionality=config.query_dimensionality,
        superpeer_ids=network.topology.superpeer_ids,
        rng=rng,
    )


@dataclass(frozen=True)
class VariantStats:
    """Workload averages for one variant (the paper reports averages)."""

    variant: Variant
    queries: int
    mean_computational_time: float
    mean_total_time: float
    mean_volume_kb: float
    mean_messages: float
    mean_result_size: float
    mean_comparisons: float
    mean_critical_path_examined: float

    @classmethod
    def from_executions(cls, variant: Variant, runs: Sequence[QueryExecution]) -> "VariantStats":
        if not runs:
            raise ValueError("need at least one execution")
        return cls(
            variant=variant,
            queries=len(runs),
            mean_computational_time=float(np.mean([r.computational_time for r in runs])),
            mean_total_time=float(np.mean([r.total_time for r in runs])),
            mean_volume_kb=float(np.mean([r.volume_kb for r in runs])),
            mean_messages=float(np.mean([r.message_count for r in runs])),
            mean_result_size=float(np.mean([len(r.result) for r in runs])),
            mean_comparisons=float(np.mean([r.comparisons for r in runs])),
            mean_critical_path_examined=float(
                np.mean([r.critical_path_examined for r in runs])
            ),
        )


def run_queries(
    network: SuperPeerNetwork,
    queries: Sequence[Query],
    variants: Iterable[Variant | str],
) -> dict[Variant, VariantStats]:
    """Execute every query under every variant and aggregate."""
    variant_list = [
        Variant.parse(v) if isinstance(v, str) else v for v in variants
    ]
    runs_by_variant = {
        variant: [execute_query(network, q, variant) for q in queries]
        for variant in variant_list
    }
    stats: dict[Variant, VariantStats] = {}
    metrics = active_metrics()
    for variant in variant_list:
        runs = runs_by_variant[variant]
        stats[variant] = VariantStats.from_executions(variant, runs)
        if metrics is not None:
            aggregated = stats[variant]
            metrics.counter("bench.queries", variant=variant.value).inc(len(runs))
            metrics.counter("bench.comparisons", variant=variant.value).inc(
                sum(r.comparisons for r in runs)
            )
            metrics.counter("bench.volume_bytes", variant=variant.value).inc(
                sum(r.volume_bytes for r in runs)
            )
            metrics.counter("bench.messages", variant=variant.value).inc(
                sum(r.message_count for r in runs)
            )
            metrics.histogram(
                "bench.total_seconds", variant=variant.value
            ).observe(aggregated.mean_total_time)
            metrics.histogram(
                "bench.computational_seconds", variant=variant.value
            ).observe(aggregated.mean_computational_time)
    return stats
