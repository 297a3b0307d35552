"""End-to-end instrumentation: metrics agree with the query report, and
observability is behavior-neutral when switched off."""

from __future__ import annotations

import math

import pytest

from repro.data.workload import Query
from repro.obs import active_metrics, active_tracer, observed
from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.inspection import execution_report
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant

ALL_VARIANTS = ("FTFM", "FTPM", "RTFM", "RTPM", "naive")


@pytest.fixture(scope="module")
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=48, points_per_peer=20, dimensionality=5, seed=11
    )


@pytest.fixture(scope="module")
def query(network) -> Query:
    return Query(subspace=(0, 2, 4), initiator=network.topology.superpeer_ids[0])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_metrics_totals_match_the_execution_report(network, query, variant):
    """Acceptance criterion: snapshot totals == inspection.py values."""
    with observed() as (_, metrics):
        execution = execute_query(network, query, variant)
    report = execution_report(execution)
    totals = metrics.snapshot()["totals"]
    assert totals["skypeer.comparisons"] == report["comparisons"]
    assert totals["skypeer.volume_bytes"] == report["volume_bytes"]
    assert totals["skypeer.messages"] == report["messages"]
    assert totals["skypeer.result_points"] == report["result_points"]
    assert totals["skypeer.queries"] == 1
    if variant != "naive":
        scanned = sum(
            value
            for name, labels, value in metrics.counters("skypeer.points_examined")
            if dict(labels)["phase"] == "scan"
        )
        assert scanned == sum(
            t["examined"] for t in report["per_superpeer"].values()
        )


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_traced_schedule_is_well_formed(network, query, variant):
    with observed() as (tracer, _):
        execution = execute_query(network, query, variant)
    assert tracer.validate() == []
    # The root "query" span covers the whole schedule on both clocks.
    [root] = [s for s in tracer.spans if s.track == "query"]
    assert root.interval("comp") == (0.0, execution.computational_time)
    assert root.interval("total") == (0.0, execution.total_time)
    scans = [s for s in tracer.spans if s.category == "compute"]
    assert len(scans) >= network.n_superpeers


def test_no_observer_means_no_recording(network, query):
    assert active_tracer() is None and active_metrics() is None
    with observed() as (tracer, metrics):
        pass  # nothing executed while observed
    execute_query(network, query, "FTPM")
    assert len(tracer) == 0
    assert len(metrics) == 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_observability_is_behavior_neutral(network, query, variant):
    """Acceptance criterion: identical Clock.work with a tracer installed."""
    bare = execute_query(network, query, variant)
    with observed():
        observed_run = execute_query(network, query, variant)
    assert observed_run.critical_path_examined == bare.critical_path_examined
    assert observed_run.comparisons == bare.comparisons
    assert observed_run.volume_bytes == bare.volume_bytes
    assert observed_run.message_count == bare.message_count
    assert observed_run.result_ids == bare.result_ids
    assert observed_run.initial_threshold == bare.initial_threshold


def test_no_tracer_overhead_smoke(network, query, monkeypatch):
    """With observability off, the query path must never touch obs code."""
    from repro.obs import metrics as metrics_module
    from repro.obs import tracer as tracer_module

    def _boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("obs recording invoked with no observer installed")

    monkeypatch.setattr(tracer_module.Tracer, "span", _boom)
    monkeypatch.setattr(tracer_module.Tracer, "interval", _boom)
    monkeypatch.setattr(metrics_module.MetricsRegistry, "counter", _boom)
    monkeypatch.setattr(metrics_module.MetricsRegistry, "histogram", _boom)
    assert active_tracer() is None and active_metrics() is None
    execution = execute_query(network, query, "FTPM")
    run_protocol(network, query, "FTPM")
    assert len(execution.result) >= 1


def test_protocol_metrics_match_the_outcome(network, query):
    with observed() as (tracer, metrics):
        outcome = run_protocol(network, query, "FTPM")
    totals = metrics.snapshot()["totals"]
    assert totals["protocol.messages"] == outcome.message_count
    assert totals["protocol.volume_bytes"] == outcome.volume_bytes
    assert totals["protocol.query_messages"] == outcome.query_messages
    assert totals["protocol.events"] == outcome.events
    assert totals.get("protocol.duplicate_replies", 0) == outcome.duplicate_replies
    assert tracer.validate() == []
    # Protocol spans live on their own single real timeline.
    assert "protocol" in tracer.clocks()


def test_preprocessing_records_spans_and_counters():
    with observed() as (tracer, metrics):
        network = SuperPeerNetwork.build(
            n_peers=12, points_per_peer=10, dimensionality=4, seed=5
        )
    report = network.preprocessing
    assert metrics.total("preprocess.total_points") == report.total_points
    assert metrics.total("preprocess.uploaded_points") == report.peer_skyline_points
    assert metrics.total("preprocess.store_points") == report.superpeer_store_points
    assert metrics.total("preprocess.upload_bytes") == report.upload_bytes
    categories = {span.category for span in tracer.spans}
    assert categories == {"preprocess"}
    assert "preprocess" in tracer.clocks()
    assert tracer.validate() == []


def test_a_build_charges_each_upload_once(monkeypatch):
    """Untraced, pre-processing prices each peer list once (for the
    report); traced, the spans' upload bytes still sum to the report's."""
    calls = []
    list_bytes = CostModel.list_bytes

    def spy(self, ids, values):
        calls.append(len(ids))
        return list_bytes(self, ids, values)

    monkeypatch.setattr(CostModel, "list_bytes", spy)
    shape = dict(n_peers=12, points_per_peer=10, dimensionality=4, seed=5)
    network = SuperPeerNetwork.build(**shape)
    lists = sum(len(sp.peer_skylines) for sp in network.superpeers.values())
    assert lists == network.n_peers
    assert len(calls) == lists
    with observed() as (tracer, _):
        traced = SuperPeerNetwork.build(**shape)
    uploads = [dict(span.args)["upload_bytes"] for span in tracer.spans if span.name == "ext-skyline"]
    assert len(uploads) == lists
    assert sum(uploads) == traced.preprocessing.upload_bytes == network.preprocessing.upload_bytes


def test_bench_harness_aggregates_per_sweep_metrics():
    from repro.bench.config import ExperimentConfig
    from repro.bench.harness import build_network, make_queries, run_queries

    config = ExperimentConfig(
        n_peers=8, points_per_peer=10, dimensionality=4,
        query_dimensionality=2, seed=2,
    )
    net = build_network(config, use_cache=False)
    queries = make_queries(net, config, n_queries=2)
    with observed() as (_, metrics):
        stats = run_queries(net, queries, ["FTPM", "naive"])
    for variant in (Variant.FTPM, Variant.NAIVE):
        label = variant.value
        assert metrics.counter("bench.queries", variant=label).value == 2
        expected_volume = stats[variant].mean_volume_kb * 1024 * 2
        assert math.isclose(
            metrics.counter("bench.volume_bytes", variant=label).value,
            expected_volume, rel_tol=1e-9, abs_tol=1e-6,
        )
        assert metrics.histogram("bench.total_seconds", variant=label).count == 1
