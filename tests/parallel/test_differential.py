"""Parallel and serial execution must be observably identical.

The acceptance bar of the parallel engine: per-run result sets, work
counts, message/volume accounting and merged metric counter totals all
match a serial run exactly — only wall-clock fields may differ.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bench.harness import VariantStats, run_queries
from repro.core.dataset import PointSet
from repro.data.generators import make_generator
from repro.data.workload import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import install, uninstall
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel import ParallelEngine, get_engine, preprocess_network_parallel
from repro.parallel.shm import segment_directory
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.conftest import SegmentHome
from tests.parallel.pooled import pooled_runs

DETERMINISTIC_RUN_FIELDS = (
    "volume_bytes",
    "message_count",
    "comparisons",
    "initial_threshold",
    "local_result_points",
    "critical_path_examined",
)

VARIANTS = [Variant.FTPM, Variant.RTFM]


@pytest.fixture(scope="module")
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=24, points_per_peer=12, dimensionality=4, seed=5
    )


@pytest.fixture(scope="module")
def queries(network) -> list[Query]:
    sp = network.topology.superpeer_ids
    return [
        Query(subspace=(0, 2), initiator=sp[0]),
        Query(subspace=(1, 3), initiator=sp[-1]),
        Query(subspace=(0, 1, 2, 3), initiator=sp[0]),  # full space
    ]


@pytest.fixture(scope="module")
def differential(network, queries):
    """One pool spin shared by the assertions below (pools are slow)."""
    serial = {
        v: [execute_query(network, q, v) for q in queries] for v in VARIANTS
    }
    reg = MetricsRegistry()
    install(None, reg)
    try:
        parallel = pooled_runs(get_engine(2), network, queries, VARIANTS)
    finally:
        uninstall()
    return serial, parallel, reg


def test_result_sets_identical(differential):
    serial, parallel, _ = differential
    for variant, runs in serial.items():
        for s, p in zip(runs, parallel[variant]):
            assert s.result_ids == p.result_ids
            assert np.array_equal(s.result.points.values, p.result.points.values)
            assert np.array_equal(s.result.f, p.result.f)


def test_work_and_volume_accounting_identical(differential):
    serial, parallel, _ = differential
    for variant, runs in serial.items():
        for s, p in zip(runs, parallel[variant]):
            for field in DETERMINISTIC_RUN_FIELDS:
                assert getattr(s, field) == getattr(p, field), (
                    variant,
                    s.query,
                    field,
                )


def test_merged_counter_totals_match_serial(network, queries, differential):
    _, _, parallel_reg = differential
    serial_reg = MetricsRegistry()
    install(None, serial_reg)
    try:
        for v in VARIANTS:
            for q in queries:
                execute_query(network, q, v)
    finally:
        uninstall()
    serial_names = {n for n, _, _ in serial_reg.counters()}
    assert serial_names  # the executor does emit counters
    for name in serial_names:
        assert parallel_reg.total(name) == serial_reg.total(name), name


def test_run_queries_stats_identical(network, queries, differential):
    serial = run_queries(network, queries, VARIANTS)
    _, parallel, _ = differential
    for variant in VARIANTS:
        s = serial[variant]
        p = VariantStats.from_executions(variant, parallel[variant])
        assert isinstance(s, VariantStats)
        assert s.queries == p.queries
        assert s.mean_volume_kb == p.mean_volume_kb
        assert s.mean_messages == p.mean_messages
        assert s.mean_result_size == p.mean_result_size
        assert s.mean_comparisons == p.mean_comparisons
        assert s.mean_critical_path_examined == p.mean_critical_path_examined


class TestPreprocessing:
    def test_parallel_preprocess_builds_identical_stores(self):
        kwargs = dict(n_peers=24, points_per_peer=12, dimensionality=4, seed=5)
        serial = SuperPeerNetwork.build(**kwargs)
        parallel = SuperPeerNetwork.build(**kwargs, workers=2)
        for sp_id in serial.topology.superpeer_ids:
            a = serial.superpeers[sp_id].store
            b = parallel.superpeers[sp_id].store
            assert np.array_equal(a.points.values, b.points.values)
            assert np.array_equal(a.points.ids, b.points.ids)
            assert np.array_equal(a.f, b.f)

    def test_parallel_preprocess_report_identical(self):
        kwargs = dict(n_peers=24, points_per_peer=12, dimensionality=4, seed=5)
        serial = SuperPeerNetwork.build(**kwargs)
        parallel = SuperPeerNetwork.build(**kwargs, workers=2)
        r_s, r_p = serial.preprocessing, parallel.preprocessing
        assert r_s.total_points == r_p.total_points
        assert r_s.peer_skyline_points == r_p.peer_skyline_points
        assert r_s.superpeer_store_points == r_p.superpeer_store_points
        assert r_s.upload_bytes == r_p.upload_bytes
        assert r_s.sel_p == r_p.sel_p
        assert r_s.sel_sp == r_p.sel_sp

    def test_preprocess_tasks_cover_topology_order(self, network):
        results = preprocess_network_parallel(network, workers=2)
        assert [r.superpeer_id for r in results] == list(
            network.topology.superpeer_ids
        )
        for result in results:
            attached = network.topology.peers_of[result.superpeer_id]
            assert [pid for pid, _, _ in result.peer_results] == list(attached)


def _uniform_network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=16, n_superpeers=4, points_per_peer=30, dimensionality=8, seed=5,
        preprocess=False,
    )


def _tied_network() -> SuperPeerNetwork:
    """Anticorrelated d = 6 on a 0.1 grid: exact ``f`` ties within every
    peer, so the f-order of an upload leans on the stable sort."""
    rng = np.random.default_rng(11)
    topology = Topology.generate(n_peers=12, n_superpeers=3, degree=2.0, seed=11)
    partitions = {}
    for peer_id in sorted(p for peers in topology.peers_of.values() for p in peers):
        values = np.round(make_generator("anticorrelated")(40, 6, rng), 1)
        partitions[peer_id] = PointSet(values, np.arange(40) + 40 * peer_id)
    return SuperPeerNetwork.from_partitions(topology, partitions, preprocess=False)


def _store_bytes(store) -> tuple[bytes, bytes, bytes]:
    return store.points.values.tobytes(), store.points.ids.tobytes(), store.f.tobytes()


class TestPositionsHandOver:
    """A pool worker sends home each merged store and, per peer, *which
    rows* of its partition survived; the parent rebuilds the uploads
    from the partitions it holds.  Everything ``_ingest_preprocessing``
    reads must equal the serial computation, under both start methods
    and wherever the segments live."""

    @pytest.fixture(
        scope="class",
        params=[
            (mp_start, home)
            for mp_start in ("fork", "spawn")
            for home in ("dev-shm", "no-dev-shm", "small-dev-shm")
        ],
        ids="-".join,
    )
    def engine(self, request, tmp_path_factory):
        mp_start, mode = request.param
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_MP_START", mp_start)
            home = SegmentHome(mode, patch, tmp_path_factory.mktemp("home"))
            assert segment_directory(1) == home.directory
            before = home.files()  # the shared engine's, from the tests above
            with ParallelEngine(workers=2) as engine:
                assert engine.start_method == mp_start
                yield engine
            assert home.files() == before

    @pytest.mark.parametrize("make", [_uniform_network, _tied_network])
    def test_pool_results_equal_serial_field_by_field(self, engine, make):
        network = make()
        serial = [network.compute_superpeer_preprocess(sp) for sp in network.superpeers]
        pooled = engine.preprocess_network(network)
        assert [r.superpeer_id for r in pooled] == [r.superpeer_id for r in serial]
        ties = 0
        for mine, theirs in zip(serial, pooled):
            assert _store_bytes(theirs.merge.result) == _store_bytes(mine.merge.result)
            for name in ("threshold", "examined", "comparisons", "input_size"):
                assert getattr(theirs.merge, name) == getattr(mine.merge, name)
            assert len(theirs.peer_results) == len(mine.peer_results)
            for (pid_a, n_a, a), (pid_b, n_b, b) in zip(
                mine.peer_results, theirs.peer_results
            ):
                assert (pid_a, n_a) == (pid_b, n_b)
                assert _store_bytes(b.result) == _store_bytes(a.result)
                for name in ("threshold", "examined", "comparisons", "input_size"):
                    assert getattr(b, name) == getattr(a, name), name
                assert b.duration > 0.0  # the worker's wall clock, not a default
                ties += int(np.sum(np.diff(a.result.f) == 0))
        if make is _tied_network:
            assert ties > 50
        # Each peer is computed once: no scan-memo probe sits in front.
        assert engine.stats.cache_hits == engine.stats.cache_misses == 0

    @pytest.mark.parametrize("make", [_uniform_network, _tied_network])
    def test_ingested_state_report_and_metrics_equal_serial(self, engine, make):
        networks, registries = [], []
        for pool in (None, engine):
            network = make()
            registry = MetricsRegistry()
            install(None, registry)
            try:
                network.preprocess(engine=pool)
            finally:
                uninstall()
            networks.append(network)
            registries.append(registry)
        serial, pooled = networks
        for sp_id, expected in serial.superpeers.items():
            actual = pooled.superpeers[sp_id]
            assert _store_bytes(actual.store) == _store_bytes(expected.store)
            assert list(actual.peer_skylines) == list(expected.peer_skylines)
            for peer_id, upload in expected.peer_skylines.items():
                assert _store_bytes(actual.peer_skylines[peer_id]) == _store_bytes(upload)
        for name in (
            "total_points", "peer_skyline_points", "superpeer_store_points",
            "upload_bytes", "sel_p", "sel_sp", "sel_ratio",
        ):
            assert getattr(pooled.preprocessing, name) == getattr(
                serial.preprocessing, name
            )
        counters = [
            [c for c in registry.counters() if c[0].startswith("preprocess.")]
            for registry in registries
        ]
        assert counters[0] and counters[1] == counters[0]

    def test_batch_payload_carries_no_uploads(self):
        """What crosses the pipe is the stores plus 8 B of row index per
        uploaded point and a few scalars per peer — not the uploads'
        coordinates (80 B a point at d = 8)."""
        from repro.parallel.engine import _run_preprocess_batch
        from repro.parallel.shm import publish_network

        network = _uniform_network()
        sp_ids = list(network.topology.superpeer_ids)
        with publish_network(network, partitions=True) as shared:
            spec = {"token": "t", "manifest": shared.manifest}
            payload = _run_preprocess_batch(spec, sp_ids)
        stores = sum(merge.result.nbytes for _sp, _uploads, merge in payload["results"])
        uploaded = sum(
            len(upload[1]) for _sp, uploads, _merge in payload["results"] for upload in uploads
        )
        assert uploaded > 300
        assert len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) < stores + 32 * uploaded


class TestPoolFirstBuild:
    """``serve`` creates the pool before any data exists and builds the
    network on it; the result must be the serial build, byte for byte."""

    KWARGS = dict(n_peers=24, points_per_peer=12, dimensionality=4, seed=5)

    @pytest.mark.parametrize("mp_start", ["fork", "spawn"])
    def test_equals_serial_build(self, mp_start, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", mp_start)
        serial = SuperPeerNetwork.build(**self.KWARGS)
        with ParallelEngine(workers=2) as engine:
            assert engine.start_method == mp_start
            pooled = SuperPeerNetwork.build(**self.KWARGS, engine=engine)
            assert engine.stats.tasks == serial.n_superpeers
        assert pooled.epoch == serial.epoch
        assert pooled.store_generations == serial.store_generations
        for sp_id, expected in serial.superpeers.items():
            actual = pooled.superpeers[sp_id]
            for a, b in [(expected.store, actual.store)] + [
                (expected.peer_skylines[p], actual.peer_skylines[p])
                for p in serial.topology.peers_of[sp_id]
            ]:
                assert a.points.values.tobytes() == b.points.values.tobytes()
                assert a.points.ids.tobytes() == b.points.ids.tobytes()
                assert a.f.tobytes() == b.f.tobytes()
            # Ledgers bootstrap lazily from the stores and lists above.
            assert actual.store_ledger is None and not actual.peer_ledgers
            assert _ledger_entries(actual.ensure_store_ledger()) == _ledger_entries(
                expected.ensure_store_ledger()
            )
        for name in (
            "total_points", "peer_skyline_points", "superpeer_store_points",
            "upload_bytes", "sel_p", "sel_sp", "sel_ratio",
        ):
            assert getattr(pooled.preprocessing, name) == getattr(
                serial.preprocessing, name
            )

    def test_preprocess_publication_is_withdrawn(self, segment_home):
        """The raw partitions are published for the fan-out only."""
        before = segment_home.files()
        with ParallelEngine(workers=2) as engine:
            network = SuperPeerNetwork.build(**self.KWARGS, preprocess=False)
            results = engine.preprocess_network(network)
            assert len(results) == network.n_superpeers
            assert engine.stats.publications == 1
            assert engine.published_segments() == []
            assert segment_home.files() == before
            # ...and the query publication that follows stands alone.
            network.preprocess(engine=engine)
            query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
            engine.run_query(network, query, Variant.FTPM)
            assert len(engine.published_segments()) == 1


def _ledger_entries(ledger) -> dict[int, tuple[int, bytes]]:
    return {
        int(pid): (int(witness), row.tobytes())
        for pid, witness, row in zip(ledger.ids, ledger.witnesses, ledger.rows)
    }
