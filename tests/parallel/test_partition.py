"""Intra-query partitioned scans: split, merge, engine fan-out, knobs.

Every surviving scan cell must reproduce the serial sorted scan
byte-for-byte, every deleted one must be refused before any scan runs,
and the engine's fan-out must account the work as intra-query subtasks,
not whole-query tasks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.dataset import PointSet
from repro.core.indexes import BlockDominanceIndex
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.core.substrates import SUBSTRATE_ENV
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel.engine import EngineStats, ParallelEngine
from repro.parallel.partition import (
    PARTITION_ENV,
    PARTITION_PARTS_ENV,
    PARTITIONERS,
    SCAN_CELLS,
    partition_positions,
    partition_skew,
    partitioned_subspace_skyline,
    resolve_partition_parts,
    resolve_partitioner,
    resolve_scan_cell,
    scan_partition,
)
from repro.skypeer.executor import execute_query, make_local_compute
from repro.skypeer.variants import Variant

SPLITTERS = ("range", "angular")

#: The seven cells of the 3 × 4 matrix that won nothing and were deleted.
DELETED_CELLS = [
    ("sorted", "grid"), ("bbs", "grid"), ("salsa", "grid"),
    ("bbs", "range"), ("bbs", "angular"), ("salsa", "range"), ("salsa", "angular"),
]


def assert_identical(reference, other):
    """Byte-identity of two SkylineComputations (timings exempt)."""
    assert other.threshold == reference.threshold
    assert np.array_equal(other.positions, reference.positions)
    assert np.array_equal(other.result.points.values, reference.result.points.values)
    assert np.array_equal(other.result.points.ids, reference.result.points.ids)
    assert np.array_equal(other.result.f, reference.result.f)


def make_store(rng, n=240, d=4):
    return SortedByF.from_points(PointSet(rng.random((n, d))))


class TestPartitionPositions:
    @pytest.mark.parametrize("kind", SPLITTERS)
    @pytest.mark.parametrize("parts", [1, 3, 4, 7])
    def test_cover_disjoint_ascending(self, rng, kind, parts):
        proj = rng.random((97, 3))
        slices = partition_positions(kind, proj, parts)
        assert all(s.size for s in slices)
        assert all(np.array_equal(s, np.sort(s)) for s in slices)
        union = np.concatenate(slices)
        assert union.size == len(np.unique(union)) == 97
        assert len(slices) <= max(1, parts)

    @pytest.mark.parametrize("kind", SPLITTERS)
    def test_more_parts_than_points(self, rng, kind):
        proj = rng.random((3, 2))
        slices = partition_positions(kind, proj, 8)
        assert np.array_equal(np.sort(np.concatenate(slices)), np.arange(3))

    def test_empty_projection(self):
        assert partition_positions("angular", np.zeros((0, 2)), 4) == []

    def test_one_dimensional_angular_falls_back_to_range(self, rng):
        proj = rng.random((40, 1))
        angular = partition_positions("angular", proj, 4)
        ranged = partition_positions("range", proj, 4)
        assert all(np.array_equal(a, r) for a, r in zip(angular, ranged))

    def test_unknown_kind_raises(self, rng):
        for kind in ("hilbert", "grid"):
            with pytest.raises(ValueError, match="unknown partitioner"):
                partition_positions(kind, rng.random((10, 2)), 2)

    def test_skew_summary(self, rng):
        slices = partition_positions("range", rng.random((100, 2)), 4)
        skew = partition_skew(slices)
        assert skew["parts"] == 4
        assert skew["max_size"] == 25
        assert skew["skew"] == 1.0
        assert partition_skew([])["skew"] == 1.0


class TestResolvers:
    def test_partitioner_default_is_none(self, monkeypatch):
        monkeypatch.delenv(PARTITION_ENV, raising=False)
        assert resolve_partitioner() == "none"

    def test_partitioner_env_var(self, monkeypatch):
        monkeypatch.setenv(PARTITION_ENV, "angular")
        assert resolve_partitioner() == "angular"

    def test_partitioner_argument_wins(self, monkeypatch):
        monkeypatch.setenv(PARTITION_ENV, "angular")
        assert resolve_partitioner("range") == "range"

    def test_unknown_partitioner_raises(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            resolve_partitioner("hilbert")
        assert "none" in PARTITIONERS

    def test_error_message_lists_valid_names(self):
        # Satellite: a typo in REPRO_PARTITION must name every valid
        # partitioner in the error.
        with pytest.raises(ValueError) as exc:
            resolve_partitioner("hilbert")
        message = str(exc.value)
        for name in PARTITIONERS:
            assert name in message

    def test_parts_env_and_default(self, monkeypatch):
        monkeypatch.delenv(PARTITION_PARTS_ENV, raising=False)
        assert resolve_partition_parts(default=3) == 3
        monkeypatch.setenv(PARTITION_PARTS_ENV, "6")
        assert resolve_partition_parts() == 6
        assert resolve_partition_parts(2) == 2

    def test_nonpositive_parts_raise(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_partition_parts(0)

    def test_scan_cell_resolves_every_surviving_cell(self, monkeypatch):
        monkeypatch.delenv(SUBSTRATE_ENV, raising=False)
        monkeypatch.delenv(PARTITION_ENV, raising=False)
        assert resolve_scan_cell() == ("sorted", "none")
        assert len(SCAN_CELLS) == 5
        for cell in SCAN_CELLS:
            substrate, partitioner = cell.split("/")
            assert resolve_scan_cell(substrate, partitioner) == (substrate, partitioner)
            monkeypatch.setenv(SUBSTRATE_ENV, substrate)
            monkeypatch.setenv(PARTITION_ENV, partitioner)
            assert resolve_scan_cell() == (substrate, partitioner)

    def test_scan_cell_error_names_the_valid_cells(self):
        with pytest.raises(ValueError) as exc:
            resolve_scan_cell("salsa", "angular")
        assert "salsa/angular" in str(exc.value)
        for cell in SCAN_CELLS:
            assert cell in str(exc.value)


class TestPartitionedScanIdentity:
    @pytest.mark.parametrize(
        "partitioner", SPLITTERS, ids=[f"sorted-{name}" for name in SPLITTERS]
    )
    def test_matches_serial(self, rng, partitioner):
        store = make_store(rng)
        subspace = (0, 1, 2)
        serial = local_subspace_skyline(store, subspace)
        split = partitioned_subspace_skyline(
            store, subspace, partitioner=partitioner, parts=4
        )
        assert_identical(serial, split)

    @pytest.mark.parametrize("partitioner", SPLITTERS)
    def test_strict_matches_serial(self, rng, partitioner):
        store = make_store(rng, n=150)
        serial = local_subspace_skyline(store, (1, 3), strict=True)
        split = partitioned_subspace_skyline(
            store, (1, 3), strict=True, partitioner=partitioner, parts=3
        )
        assert_identical(serial, split)

    def test_finite_threshold_prefix_only(self, rng):
        store = make_store(rng)
        for threshold in (0.8, 0.4):
            serial = local_subspace_skyline(store, (0, 2), initial_threshold=threshold)
            split = partitioned_subspace_skyline(
                store, (0, 2), initial_threshold=threshold,
                partitioner="angular", parts=4,
            )
            assert_identical(serial, split)

    def test_duplicated_rows(self, rng):
        base = rng.integers(0, 4, size=(70, 3)).astype(float)
        store = SortedByF.from_points(PointSet(np.vstack([base, base[:25]])))
        for partitioner in SPLITTERS:
            assert_identical(
                local_subspace_skyline(store, (0, 1, 2)),
                partitioned_subspace_skyline(
                    store, (0, 1, 2), partitioner=partitioner, parts=4
                ),
            )

    def test_single_slice_scan_is_exact(self, rng):
        # A slice scan must equal the serial scan restricted to the
        # slice — with the whole store as one slice, it IS the serial
        # scan.
        store = make_store(rng, n=100)
        serial = local_subspace_skyline(store, (0, 1))
        scan = scan_partition(store, (0, 1), np.arange(len(store)))
        assert_identical(serial, scan)

    def test_comparisons_stay_honest(self, rng):
        store = make_store(rng)
        split = partitioned_subspace_skyline(store, (0, 1, 2), partitioner="angular")
        assert split.comparisons > 0
        assert split.examined <= len(store)
        assert split.input_size == len(store)


def single_store_network(points):
    """One super-peer whose store holds exactly ``points`` (no pre-filter)."""
    topology = Topology.generate(n_peers=1, n_superpeers=1, seed=0)
    network = SuperPeerNetwork.from_partitions(
        topology, {0: points}, preprocess=False
    )
    sp = next(iter(network.superpeers))
    network.superpeers[sp].store = SortedByF.from_points(points)
    return network, sp


class TestEngineFanOut:
    @pytest.fixture(scope="class")
    def engine(self):
        with ParallelEngine(2, mp_start="fork") as engine:
            yield engine

    def test_pooled_scan_matches_serial_and_splits_stats(self, rng, engine):
        points = PointSet(rng.random((500, 4)))
        network, sp = single_store_network(points)
        store = network.store_of(sp)
        subspace = (0, 1, 2, 3)
        serial = local_subspace_skyline(store, subspace)
        for partitioner in SPLITTERS:
            inprocess = partitioned_subspace_skyline(
                store, subspace, partitioner=partitioner, parts=4
            )
            before = engine.stats.as_dict()
            pooled = engine.run_partitioned_scan(
                network, sp, subspace, partitioner=partitioner, parts=4
            )
            assert_identical(serial, pooled)
            # The pool only changes *where* the slices run: the same
            # split and merge, hence the same accounting as in-process.
            assert (pooled.examined, pooled.comparisons, pooled.input_size) == (
                inprocess.examined, inprocess.comparisons, inprocess.input_size
            )

            after = engine.stats.as_dict()
            assert after["intra_query_scans"] == before["intra_query_scans"] + 1
            assert after["intra_query_subtasks"] > before["intra_query_subtasks"]
            # Whole-query task accounting must not inflate.
            assert after["tasks"] == before["tasks"]

            # A repeat replays the per-slice block cache and stays identical.
            again = engine.run_partitioned_scan(
                network, sp, subspace, partitioner=partitioner, parts=4
            )
            assert_identical(serial, again)
            assert again.comparisons == pooled.comparisons

    def test_unpartitioned_request_falls_back_to_range(self, rng, engine, monkeypatch):
        monkeypatch.delenv(PARTITION_ENV, raising=False)
        points = PointSet(rng.random((200, 3)))
        network, sp = single_store_network(points)
        store = network.store_of(sp)
        pooled = engine.run_partitioned_scan(network, sp, (0, 1, 2), parts=3)
        ranged = partitioned_subspace_skyline(
            store, (0, 1, 2), partitioner="range", parts=3
        )
        assert_identical(local_subspace_skyline(store, (0, 1, 2)), pooled)
        assert pooled.comparisons == ranged.comparisons


class TestEngineStatsSplit:
    def test_new_fields_default_to_zero(self):
        stats = EngineStats(workers=2, start_method="fork").as_dict()
        for field in ("intra_query_scans", "intra_query_subtasks"):
            assert stats[field] == 0
        # run_queries splits scans inside a worker and never fans slices
        # out, so there is no serving-side subtask count to report.
        assert "serve_intra_query_subtasks" not in stats


class TestExecutorKnobs:
    def test_make_local_compute_partitioned(self, small_network):
        sp = next(iter(small_network.superpeers))
        default = make_local_compute(
            small_network, scan_substrate="sorted", partitioner="none"
        )
        sliced = make_local_compute(
            small_network, scan_substrate="sorted", partitioner="angular",
            partition_parts=3,
        )
        assert_identical(
            default(sp, (0, 1, 2), float("inf")),
            sliced(sp, (0, 1, 2), float("inf")),
        )

    def test_execute_query_knobs_preserve_results(self, small_network):
        query = Query(subspace=(0, 2, 4), initiator=next(iter(small_network.superpeers)))
        baseline = execute_query(
            small_network, query, Variant.FTPM,
            scan_substrate="sorted", partitioner="none",
        )
        for config in CELL_CONFIGS:
            run = execute_query(small_network, query, Variant.FTPM, **config)
            assert run.result_ids == baseline.result_ids
            assert np.array_equal(
                run.result.points.values, baseline.result.points.values
            )

    def test_naive_ignores_kernel_knobs(self, small_network):
        query = Query(subspace=(1, 3), initiator=next(iter(small_network.superpeers)))
        baseline = execute_query(small_network, query, Variant.NAIVE)
        run = execute_query(
            small_network, query, Variant.NAIVE,
            scan_substrate="bbs", partitioner="none",
        )
        assert run.result_ids == baseline.result_ids
        assert run.comparisons == baseline.comparisons


class TestDeletedCells:
    """Every deleted cell fails loudly instead of running another cell."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        """Fail the test if any Algorithm-1 scan starts (all three
        substrates and the slice scan build a block index first)."""
        def refuse(self, *args, **kwargs):
            raise AssertionError("a scan ran for a deleted cell")

        monkeypatch.setattr(BlockDominanceIndex, "__init__", refuse)

    @pytest.fixture(scope="class")
    def engine(self):
        with ParallelEngine(2, mp_start="fork") as engine:
            yield engine

    @pytest.mark.parametrize("substrate,partitioner", DELETED_CELLS)
    def test_make_local_compute_and_execute_query(
        self, small_network, no_scan, substrate, partitioner
    ):
        query = Query(subspace=(0, 2), initiator=next(iter(small_network.superpeers)))
        with pytest.raises(ValueError, match="expected one of"):
            make_local_compute(
                small_network, scan_substrate=substrate, partitioner=partitioner
            )
        with pytest.raises(ValueError, match="expected one of"):
            execute_query(
                small_network, query, Variant.FTPM,
                scan_substrate=substrate, partitioner=partitioner,
            )

    @pytest.mark.parametrize("substrate,partitioner", DELETED_CELLS)
    def test_run_queries_publishes_nothing(
        self, small_network, engine, substrate, partitioner
    ):
        query = Query(subspace=(0, 2), initiator=next(iter(small_network.superpeers)))
        with pytest.raises(ValueError, match="expected one of"):
            engine.run_queries(
                small_network, [query], [Variant.FTPM],
                scan_substrate=substrate, partitioner=partitioner,
            )
        stats = engine.stats.as_dict()
        assert (stats["publications"], stats["batches"], stats["tasks"]) == (0, 0, 0)

    @pytest.mark.parametrize("substrate,partitioner", DELETED_CELLS)
    def test_env_vars(
        self, small_network, engine, no_scan, monkeypatch, substrate, partitioner
    ):
        monkeypatch.setenv(SUBSTRATE_ENV, substrate)
        monkeypatch.setenv(PARTITION_ENV, partitioner)
        query = Query(subspace=(0, 2), initiator=next(iter(small_network.superpeers)))
        with pytest.raises(ValueError, match="expected one of"):
            make_local_compute(small_network)
        with pytest.raises(ValueError, match="expected one of"):
            execute_query(small_network, query, Variant.FTPM)
        with pytest.raises(ValueError, match="expected one of"):
            engine.run_queries(small_network, [query], [Variant.FTPM])
        assert engine.stats.publications == 0

    @pytest.mark.parametrize("substrate,partitioner", DELETED_CELLS)
    def test_cli_flags(self, monkeypatch, no_scan, substrate, partitioner):
        # Refused while the flags are resolved: before `query` builds its
        # network (pre-processing would trip ``no_scan``) and before
        # `bench` starts a sweep.
        flags = ["--substrate", substrate, "--partition", partitioner]
        with pytest.raises(ValueError, match="expected one of"):
            cli_main(["query", "--peers", "10", "--dims", "3", "--subspace", "0,1", *flags])
        with pytest.raises(ValueError, match="expected one of"):
            cli_main(["bench", "--smoke", *flags])


# One explicit configuration per surviving cell besides sorted/none (the
# baseline).  Both knobs are always spelled out so the cells stay valid
# under CI legs that export REPRO_SCAN_SUBSTRATE or REPRO_PARTITION.
CELL_CONFIGS = (
    {"scan_substrate": "bbs", "partitioner": "none"},
    {"scan_substrate": "salsa", "partitioner": "none"},
    {"scan_substrate": "sorted", "partitioner": "range", "partition_parts": 3},
    {"scan_substrate": "sorted", "partitioner": "angular", "partition_parts": 3},
    {"scan_substrate": "sorted", "partitioner": "angular", "partition_parts": 2},
)


@st.composite
def partition_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 4))
    n_superpeers = draw(st.integers(1, 2))
    peers_per_sp = draw(st.integers(1, 2))
    points_per_peer = draw(st.integers(2, 10))
    topology = Topology.generate(
        n_peers=n_superpeers * peers_per_sp,
        n_superpeers=n_superpeers,
        degree=3.0,
        seed=seed,
    )
    partitions = {}
    next_id = 0
    for peers in topology.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((points_per_peer, d)),
                np.arange(next_id, next_id + points_per_peer),
            )
            next_id += points_per_peer
    network = SuperPeerNetwork.from_partitions(topology, partitions)
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    initiator = draw(st.sampled_from(sorted(topology.superpeer_ids)))
    return network, Query(subspace=tuple(sorted(dims)), initiator=initiator)


@given(partition_cases())
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kernels_are_indistinguishable_across_all_variants(case):
    """Every surviving cell × every variant equals the serial scan.

    Indistinguishable means indistinguishable: not just the same result
    ids but the same initial threshold and the same wire bytes — a
    substrate that altered a local threshold or shipped a different
    payload would leak through ``volume_bytes``.
    """
    network, query = case
    for variant in Variant:
        baseline = execute_query(
            network, query, variant, scan_substrate="sorted", partitioner="none"
        )
        for config in CELL_CONFIGS:
            run = execute_query(network, query, variant, **config)
            assert run.result_ids == baseline.result_ids, (variant, config)
            assert np.array_equal(
                run.result.points.values, baseline.result.points.values
            ), (variant, config)
            assert np.array_equal(
                run.result.points.ids, baseline.result.points.ids
            ), (variant, config)
            assert run.initial_threshold == baseline.initial_threshold, (
                variant,
                config,
            )
            assert run.volume_bytes == baseline.volume_bytes, (variant, config)
