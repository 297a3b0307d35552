"""Shared parameter sweeps behind the figure experiments.

Several figures are different projections of the same sweep (3(b) and
3(c) plot computational vs. total time of one dimensionality sweep;
4(b)/4(c) and 4(d)/4(e) pair up the same way), so the sweeps live here
and are memoized per scale: running `fig3c` after `fig3b` costs
nothing extra.

A sweep runs its queries through :func:`repro.bench.harness.run_queries`
at the ambient worker count (``skypeer --workers`` / ``REPRO_WORKERS``);
parallel and serial runs produce identical statistics, so the memo key
deliberately ignores it.
"""

from __future__ import annotations

from ..skypeer.variants import Variant
from .config import ExperimentConfig, Scale, resolve_scale
from .harness import VariantStats, build_network, make_queries, run_queries

__all__ = [
    "ALL_VARIANTS",
    "sweep_dimensionality",
    "sweep_query_dimensionality",
    "sweep_network_size",
    "sweep_large_network_size",
    "sweep_degree",
    "sweep_points_per_peer",
    "sweep_clustered_dimensionality",
    "run_clustered_baseline",
]

ALL_VARIANTS = tuple(Variant)

SweepResult = dict[object, dict[Variant, VariantStats]]

_CACHE: dict[tuple, SweepResult] = {}


def _run_config(config: ExperimentConfig, scale: Scale) -> dict[Variant, VariantStats]:
    network = build_network(config)
    queries = make_queries(network, config, scale.queries)
    return run_queries(network, queries, ALL_VARIANTS)


def _memoized(key: tuple, compute) -> SweepResult:
    if key not in _CACHE:
        _CACHE[key] = compute()
    return _CACHE[key]


def sweep_dimensionality(scale: str | Scale | None = None) -> SweepResult:
    """d = 5..10, k = 3, default network — Figures 3(b), 3(c)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for d in range(5, 11):
            config = ExperimentConfig(dimensionality=d).scaled(scale)
            out[d] = _run_config(config, scale)
        return out

    return _memoized(("dim", scale.name), compute)


def sweep_query_dimensionality(
    scale: str | Scale | None = None, n_peers: int = 12000
) -> SweepResult:
    """k = 2..4 on a 12000-peer network — Figures 3(e), 4(a)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for k in (2, 3, 4):
            config = ExperimentConfig(n_peers=n_peers, query_dimensionality=k).scaled(scale)
            out[k] = _run_config(config, scale)
        return out

    return _memoized(("query-dim", scale.name, n_peers), compute)


def sweep_network_size(scale: str | Scale | None = None) -> SweepResult:
    """N_p = 4000..12000 — Figure 3(f)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for n_peers in (4000, 8000, 12000):
            config = ExperimentConfig(n_peers=n_peers).scaled(scale)
            out[n_peers] = _run_config(config, scale)
        return out

    return _memoized(("net-size", scale.name), compute)


def sweep_large_network_size(scale: str | Scale | None = None) -> SweepResult:
    """N_p = 20000..80000 (N_sp = 1%) — Figures 4(b), 4(c)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for n_peers in (20000, 40000, 60000, 80000):
            config = ExperimentConfig(n_peers=n_peers).scaled(scale)
            out[n_peers] = _run_config(config, scale)
        return out

    return _memoized(("net-size-large", scale.name), compute)


def sweep_degree(scale: str | Scale | None = None) -> SweepResult:
    """DEG_sp = 4..7 — Figures 4(d), 4(e)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for degree in (4, 5, 6, 7):
            config = ExperimentConfig(degree=float(degree)).scaled(scale)
            out[degree] = _run_config(config, scale)
        return out

    return _memoized(("degree", scale.name), compute)


def sweep_points_per_peer(scale: str | Scale | None = None) -> SweepResult:
    """n/N_p = 250..1000 — Figure 4(f)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for points in (250, 500, 750, 1000):
            config = ExperimentConfig(points_per_peer=points).scaled(scale)
            out[points] = _run_config(config, scale)
        return out

    return _memoized(("points", scale.name), compute)


def run_clustered_baseline(scale: str | Scale | None = None) -> dict[Variant, VariantStats]:
    """Clustered d = 3, global skyline queries (k = 3) — Figure 4(g)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        config = ExperimentConfig(
            dimensionality=3, query_dimensionality=3, dataset="clustered"
        ).scaled(scale)
        return {"clustered": _run_config(config, scale)}

    return _memoized(("clustered", scale.name), compute)["clustered"]


def sweep_clustered_dimensionality(scale: str | Scale | None = None) -> SweepResult:
    """Clustered data, d = 3..6, global skyline queries — Figure 4(h)."""
    scale = resolve_scale(scale)

    def compute() -> SweepResult:
        out: SweepResult = {}
        for d in (3, 4, 5, 6):
            config = ExperimentConfig(
                dimensionality=d, query_dimensionality=d, dataset="clustered"
            ).scaled(scale)
            out[d] = _run_config(config, scale)
        return out

    return _memoized(("clustered-dim", scale.name), compute)
