"""The paper's Figures 3 and 4: one runner per experiment.

Every runner takes a scale and returns the :class:`ResultTable` its
figure plots.  Its docstring is the paper's claim: ``skypeer list``
prints the first line and EXPERIMENTS.md the rest.

Eight figures plot one :class:`~repro.bench.harness.VariantStats` field
of one sweep for every variant.  They are rows of ``_VARIANT_TABLES``,
run by :func:`_variant_table`.  The other six lay out their tables
themselves.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..skypeer.variants import Variant
from .config import ExperimentConfig, resolve_scale
from .harness import build_network, make_queries, run_queries
from .report import ResultTable
from .sweeps import (
    run_clustered_baseline,
    sweep_clustered_dimensionality,
    sweep_degree,
    sweep_dimensionality,
    sweep_large_network_size,
    sweep_network_size,
    sweep_points_per_peer,
    sweep_query_dimensionality,
)

__all__ = ["EXPERIMENTS"]


def fig3a(scale: str | None = None) -> ResultTable:
    """Figure 3(a) — pre-processing selectivity vs. data dimensionality.

    Paper shape: all three percentages grow with ``d``; at d=7 roughly 59%
    of the points travel peer → super-peer (SEL_p) while only ~22% survive
    the super-peer merge (SEL_sp); SEL_sp/SEL_p stays well below 1.
    """
    scale_obj = resolve_scale(scale)
    table = ResultTable(
        experiment="fig3a",
        title="pre-processing selectivity vs d (uniform, %)",
        columns=["d", "SEL_p %", "SEL_sp %", "SEL_sp/SEL_p %", "upload KB", "compute s"],
    )
    for d in range(5, 11):
        config = ExperimentConfig(dimensionality=d).scaled(scale_obj)
        report = build_network(config).preprocessing
        table.add_row(**{
            "d": d,
            "SEL_p %": 100.0 * report.sel_p,
            "SEL_sp %": 100.0 * report.sel_sp,
            "SEL_sp/SEL_p %": 100.0 * report.sel_ratio,
            "upload KB": report.upload_kb,
            "compute s": report.compute_seconds,
        })
    table.add_note(
        f"scale={scale_obj.name}: N_p={config.n_peers}, "
        f"{config.points_per_peer} points/peer (paper: 4000 peers, 250 points/peer)"
    )
    return table


def fig3d(scale: str | None = None) -> ResultTable:
    """Figure 3(d) — transferred volume vs. data dimensionality.

    Paper shape: FTPM transfers noticeably less than FTFM at every ``d``
    and for both query dimensionalities (k = 2, 3); volume grows with d.
    """
    scale_obj = resolve_scale(scale)
    table = ResultTable(
        experiment="fig3d",
        title="transferred volume vs d (KB), FTFM vs FTPM, k in {2, 3}",
        columns=["d", "FTFM k=2", "FTPM k=2", "FTFM k=3", "FTPM k=3"],
    )
    variants = (Variant.FTFM, Variant.FTPM)
    for d in range(5, 11):
        row: dict = {"d": d}
        for k in (2, 3):
            config = ExperimentConfig(dimensionality=d, query_dimensionality=k).scaled(scale_obj)
            network = build_network(config)
            queries = make_queries(network, config, scale_obj.queries)
            stats = run_queries(network, queries, variants)
            row[f"FTFM k={k}"] = stats[Variant.FTFM].mean_volume_kb
            row[f"FTPM k={k}"] = stats[Variant.FTPM].mean_volume_kb
        table.add_row(**row)
    table.add_note("paper shape: progressive merging reduces volume at every (d, k)")
    return table


def fig3e(scale: str | None = None) -> ResultTable:
    """Figure 3(e) — computational time vs. query dimensionality (12000 peers).

    Paper shape: fixed threshold (FTFM) stays at or below refined threshold
    (RTFM) on uniform data — refinement buys no pruning there and its
    serialized forwarding costs time.  Both grow with k.
    """
    table = ResultTable(
        experiment="fig3e",
        title="computational time vs k (ms), FTFM vs RTFM, 12000 peers",
        columns=["k", "FTFM", "RTFM"],
    )
    for k, stats in sweep_query_dimensionality(scale).items():
        table.add_row(
            k=k,
            FTFM=stats[Variant.FTFM].mean_computational_time * 1e3,
            RTFM=stats[Variant.RTFM].mean_computational_time * 1e3,
        )
    table.add_note("paper shape: FTFM <= RTFM on uniform data")
    return table


def fig3f(scale: str | None = None) -> ResultTable:
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
    variants = Variant.skypeer_variants()
    columns = ["N_p (paper)"]
    columns += [f"{v.value} (time)" for v in variants]
    columns += [f"{v.value} (work)" for v in variants]
    table = ResultTable(
        experiment="fig3f",
        title="speed-up over naive vs N_p (time = sim. clock, work = critical-path examined)",
        columns=columns,
    )
    for n_peers, stats in sweep_network_size(scale).items():
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


def fig4g(scale: str | None = None) -> ResultTable:
    """Figure 4(g) — SKYPEER vs. naive on a clustered dataset.

    Clustered 3-dimensional data, global skyline queries (k = 3 "to avoid
    distortion of the clustered data distribution through the projection").

    Paper shape: fixed threshold still wins on computational time, but on
    *total* time the refined-threshold variants come out ahead — on
    clustered data the threshold genuinely tightens along the forwarding
    path and strips transfers.
    """
    stats = run_clustered_baseline(scale)
    table = ResultTable(
        experiment="fig4g",
        title="clustered dataset (d=3, k=3): comp time, total time, volume",
        columns=["variant", "comp ms", "total s", "volume KB"],
    )
    for variant in Variant:
        table.add_row(**{
            "variant": variant.value,
            "comp ms": stats[variant].mean_computational_time * 1e3,
            "total s": stats[variant].mean_total_time,
            "volume KB": stats[variant].mean_volume_kb,
        })
    table.add_note("paper shape: FT*M best on comp time; RT*M competitive on total time")
    return table


def fig4h(scale: str | None = None) -> ResultTable:
    """Figure 4(h) — clustered data, increasing dimensionality.

    Paper shape: with clustered data the importance of threshold refinement
    is elevated — RT*M variants perform better as dimensionality grows.
    """
    table = ResultTable(
        experiment="fig4h",
        title="clustered dataset: total time vs d (s), FT vs RT",
        columns=["d", "FTFM", "RTFM", "FTPM", "RTPM", "naive"],
    )
    for d, stats in sweep_clustered_dimensionality(scale).items():
        table.add_row(
            d=d,
            FTFM=stats[Variant.FTFM].mean_total_time,
            RTFM=stats[Variant.RTFM].mean_total_time,
            FTPM=stats[Variant.FTPM].mean_total_time,
            RTPM=stats[Variant.RTPM].mean_total_time,
            naive=stats[Variant.NAIVE].mean_total_time,
        )
    table.add_note("paper shape: refined threshold pays off on clustered data")
    return table


class _VariantTable(NamedTuple):
    """A figure that plots one statistic of one sweep for every variant."""

    sweep: Callable[[str | None], dict]
    key: str  #: the column of the swept parameter
    title: str
    field: str  #: the plotted :class:`VariantStats` field
    factor: float  #: 1e3 for a time in milliseconds
    note: str
    claim: str  #: the paper's claim, the runner's docstring


_VARIANT_TABLES: dict[str, _VariantTable] = {
    "fig3b": _VariantTable(
        sweep_dimensionality, "d",
        "computational time vs d (ms, network delay ignored)", "mean_computational_time", 1e3,
        "paper shape: naive > RT*M > FT*M at every d",
        """Figure 3(b) — computational time vs. data dimensionality.

        Paper shape: naive is the most expensive at every ``d``; the refined
        threshold variants (RT*M) cost more than the fixed ones (FT*M); all
        four SKYPEER variants beat naive.
        """,
    ),
    "fig3c": _VariantTable(
        sweep_dimensionality, "d",
        "total response time vs d (s, 4 KB/s links)", "mean_total_time", 1.0,
        "paper shape: *TPM lowest; naive and *TFM dominated by transfer",
        """Figure 3(c) — total response time vs. data dimensionality.

        Paper shape: progressive merging (*TPM) keeps total time low (it ships
        far fewer bytes through the 4 KB/s links and avoids the relay funnel at
        the initiator); every SKYPEER variant beats naive.
        """,
    ),
    "fig4a": _VariantTable(
        sweep_query_dimensionality, "k",
        "total response time vs k (s), 12000 peers", "mean_total_time", 1.0,
        "paper shape: *TPM scales best with k; naive worst",
        """Figure 4(a) — total response time vs. query dimensionality (12000 peers).

        Paper shape: progressive merging scales much better with k than fixed
        merging and naive; naive is the worst throughout.
        """,
    ),
    "fig4b": _VariantTable(
        sweep_large_network_size, "N_p (paper)",
        "computational time vs large N_p (ms, N_sp = 1%)", "mean_computational_time", 1e3,
        "paper shape: *TPM improvement over naive grows with N_p",
        """Figure 4(b) — computational time for large networks (20000-80000 peers).

        Paper shape: the improvement factor of progressive merging over naive
        increases with the network size.  The table is the wall-clock
        computational clock; the benchmark suite asserts the same trend on the
        deterministic work basis of Figure 3(f) (naive over FTPM, critical-path
        examined points).
        """,
    ),
    "fig4c": _VariantTable(
        sweep_large_network_size, "N_p (paper)",
        "total response time vs large N_p (s, N_sp = 1%)", "mean_total_time", 1.0,
        "paper shape: *TPM improvement over naive grows with N_p",
        """Figure 4(c) — total time for large networks (20000-80000 peers).

        Paper shape: same as 4(b) on the total-time axis — progressive merging
        widens its lead over naive as the network grows.
        """,
    ),
    "fig4d": _VariantTable(
        sweep_degree, "DEG_sp",
        "computational time vs DEG_sp (ms)", "mean_computational_time", 1e3,
        "paper shape: flat in DEG_sp",
        """Figure 4(d) — computational time vs. super-peer degree.

        Paper shape: computational time is essentially flat in DEG_sp — the
        degree changes routing paths, not the skyline work.
        """,
    ),
    "fig4e": _VariantTable(
        sweep_degree, "DEG_sp",
        "total response time vs DEG_sp (s)", "mean_total_time", 1.0,
        "paper shape: decreasing in DEG_sp (shorter routing paths)",
        """Figure 4(e) — total response time vs. super-peer degree.

        Paper shape: total time drops as DEG_sp grows — denser backbones have
        shorter routing paths, hence fewer relay hops per result list.
        """,
    ),
    "fig4f": _VariantTable(
        sweep_points_per_peer, "points/peer (paper)",
        "total response time vs points per peer (s)", "mean_total_time", 1.0,
        "paper shape: *TPM lead over *TFM widens with points/peer",
        """Figure 4(f) — total time vs. points per peer (250-1000).

        Paper shape: the progressive-merging variants clearly beat the
        fixed-merging ones, and the gap widens as each peer contributes more
        points (bigger result lists make the relay funnel hurt more).
        """,
    ),
}


def _variant_table(experiment: str) -> Callable[..., ResultTable]:
    """The runner of one ``_VARIANT_TABLES`` row: a table row per swept
    value, a column per variant."""
    spec = _VARIANT_TABLES[experiment]

    def run(scale: str | None = None) -> ResultTable:
        table = ResultTable(
            experiment=experiment,
            title=spec.title,
            columns=[spec.key] + [v.value for v in Variant],
        )
        for value, stats in spec.sweep(scale).items():
            row = {spec.key: value}
            for variant in Variant:
                row[variant.value] = getattr(stats[variant], spec.field) * spec.factor
            table.add_row(**row)
        table.add_note(spec.note)
        return table

    run.__doc__ = spec.claim
    return run


#: Experiment id -> runner.  Ids match the paper's figure numbers.
EXPERIMENTS: dict[str, Callable[..., ResultTable]] = dict(sorted({
    "fig3a": fig3a,
    "fig3d": fig3d,
    "fig3e": fig3e,
    "fig3f": fig3f,
    "fig4g": fig4g,
    "fig4h": fig4h,
    **{name: _variant_table(name) for name in _VARIANT_TABLES},
}.items()))
