"""Socket-transport integration: sim-vs-socket equality and cost checks.

The acceptance bar of the transport PR: all five variants must return
bit-identical result sets over real TCP sockets, and the measured wire
traffic must match the cost model's estimates within the documented
constant per-message envelope delta (``docs/TRANSPORT.md``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.workload import Query
from repro.obs import observed
from repro.p2p.cost import DEFAULT_COST_MODEL, coord_width, id_bytes
from repro.p2p.network import SuperPeerNetwork
from repro.p2p import wire
from repro.p2p.transport import TransportConfig
from repro.p2p.wire import QueryMessage, ResultMessage
from repro.skypeer.executor import execute_query
from repro.skypeer.netexec import run_socket_query
from repro.skypeer.protocol import run_protocol
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids

ALL = tuple(Variant)


@pytest.fixture(scope="module")
def mesh_network() -> SuperPeerNetwork:
    """Six super-peers so queries actually flood across links."""
    return SuperPeerNetwork.build(
        n_peers=36, points_per_peer=20, dimensionality=5,
        n_superpeers=6, seed=7,
    )


@pytest.fixture(scope="module")
def anti_network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=36, points_per_peer=20, dimensionality=4,
        n_superpeers=6, seed=7, dataset="anticorrelated",
    )


def _query(network, subspace=(0, 2, 4), which=0) -> Query:
    return Query(
        subspace=subspace, initiator=network.topology.superpeer_ids[which]
    )


# Per-message envelope delta between the cost model's estimate and the
# codec's actual bytes.  Computed, not hard-coded, so the assertion
# tracks both sides; independence from k / n is checked explicitly.
def _query_delta(k: int) -> int:
    blob = QueryMessage(1, tuple(range(k)), 1.0, 0).encode()
    return DEFAULT_COST_MODEL.query_bytes(k) - len(blob)


def _result_delta(
    n: int, k: int, first_id: int = 0, step: float = 0.0, zeros: int = 0
) -> int:
    ids = range(first_id, first_id + n)
    # ``step`` sets the coordinate width: 0 makes every value 0.5 (width
    # 0), a tiny step keeps the high bytes, -1 crosses the sign (width 8);
    # the first ``zeros`` coordinates are +0.0 (a bitmap, unless all are).
    coords = 0.5 + step * np.arange(n * k, dtype=np.float64).reshape(n, k)
    coords.reshape(-1)[:zeros] = 0.0
    msg = ResultMessage(query_id=1, sender=0, ids=tuple(ids), coords=coords)
    return (
        DEFAULT_COST_MODEL.result_bytes(n, k, id_bytes(ids), *coord_width(coords))
        - len(msg.encode())
    )


class TestEnvelopeDelta:
    def test_query_delta_is_constant_in_k(self):
        deltas = {_query_delta(k) for k in (1, 2, 3, 5, 8)}
        assert len(deltas) == 1

    def test_result_delta_is_constant_in_n_and_k(self):
        deltas = {
            _result_delta(n, k, first_id, step)
            for n in (0, 1, 4, 9)
            for k in (1, 3, 5)
            for first_id in (0, 300, 10_000_000, 2**62)
            for step in (0.0, 2.0**-40, 0.25, -1.0)
            for zeros in {0, 1, n * k // 2, n * k}
        }
        assert deltas == {32}


class TestTaskModeEquality:
    @pytest.mark.parametrize("variant", ALL)
    def test_socket_matches_sim_and_oracle(self, mesh_network, variant):
        query = _query(mesh_network)
        sim = run_protocol(mesh_network, query, variant)
        outcome = run_socket_query(mesh_network, query, variant)
        expected = brute_force_skyline_ids(mesh_network.all_points(), query.subspace)
        assert outcome.result_ids == sim.result_ids == expected

    def test_result_store_carries_the_projection_and_its_key(self, mesh_network):
        query = _query(mesh_network, subspace=(1, 3))
        outcome = run_socket_query(mesh_network, query, Variant.FTPM)
        assert outcome.result.points.dimensionality == 2
        all_points = mesh_network.all_points()
        for point_id, coords in outcome.result.points:
            original = all_points.by_id(point_id)
            np.testing.assert_allclose(coords, original[[1, 3]])
        assert np.array_equal(outcome.result.f, outcome.result.points.values.min(axis=1))

    @pytest.mark.parametrize("variant", ALL)
    def test_measured_bytes_match_cost_model(self, mesh_network, variant):
        """estimate - measured == the constant envelope delta per message."""
        query = _query(mesh_network, which=1)
        report = run_socket_query(
            mesh_network, query, variant
        ).report
        assert report.messages == report.query_messages + report.result_messages
        assert report.messages > 0
        expected_delta = (
            _query_delta(3) * report.query_messages
            + _result_delta(2, 3) * report.result_messages
        )
        assert report.estimate_delta_bytes == expected_delta

    @pytest.mark.parametrize("variant", ALL)
    def test_zero_bearing_blocks_cross_the_sockets(self, anti_network, variant, monkeypatch):
        """Anticorrelated lists hold values clipped to +0.0, so their
        blocks carry a zero bitmap over real TCP: the answer is the
        model carrier's, and the estimator, which reads each bitmap,
        stays the constant envelope above the measured bytes."""
        blocks: list[tuple[int, int]] = []  # (sent, size) per encoded block

        def spy(values):
            low, sent = coord_width(values)
            blocks.append((sent, np.size(values)))
            return low, sent

        monkeypatch.setattr(wire, "coord_width", spy)
        query = _query(anti_network, subspace=(0, 1, 2), which=1)
        model = execute_query(anti_network, query, variant)
        outcome = run_socket_query(anti_network, query, variant)
        assert outcome.result_ids == model.result_ids
        assert any(sent < size for sent, size in blocks)
        report = outcome.report
        assert report.result_messages > 0
        assert report.estimate_delta_bytes == (
            32 * report.result_messages + _query_delta(3) * report.query_messages
        )
        assert report.estimated_bytes == model.volume_bytes

    def test_per_superpeer_stats_sum_to_totals(self, mesh_network):
        query = _query(mesh_network)
        report = run_socket_query(mesh_network, query, Variant.RTPM).report
        sent = sum(s["payload_bytes_sent"] for s in report.per_superpeer.values())
        received = sum(
            s["payload_bytes_received"] for s in report.per_superpeer.values()
        )
        assert sent == report.payload_bytes
        assert received == report.payload_bytes  # loopback loses nothing
        assert sum(
            s["messages_sent"] for s in report.per_superpeer.values()
        ) == report.messages
        # framing adds the 4-byte prefixes and hello frames, nothing more
        assert report.frame_bytes > report.payload_bytes

    def test_records_obs_metrics(self, mesh_network):
        query = _query(mesh_network)
        with observed() as (tracer, metrics):
            report = run_socket_query(mesh_network, query, Variant.FTFM).report
        assert metrics.total("transport.bytes_sent") == report.payload_bytes
        assert metrics.total("transport.estimated_bytes") == report.estimated_bytes
        assert metrics.total("transport.messages") == report.messages
        spans = [span for span in tracer.spans if span.name == "socket query"]
        assert len(spans) == 1
        assert dict(spans[0].args)["payload_bytes"] == report.payload_bytes


class TestModelVolume:
    @pytest.mark.parametrize("which", (0, 1, 2))
    @pytest.mark.parametrize("variant", ALL, ids=lambda v: v.value)
    def test_socket_bytes_are_the_model_volume(self, mesh_network, variant, which):
        """The sockets route on the model's tree: same messages, same
        estimated bytes, same answer in the same order."""
        query = _query(mesh_network, which=which)
        model = execute_query(mesh_network, query, variant)
        outcome = run_socket_query(mesh_network, query, variant)
        assert outcome.report.estimated_bytes == model.volume_bytes
        assert outcome.report.messages == model.message_count
        assert outcome.result.points.ids.tolist() == model.result.points.ids.tolist()


class TestModeResolution:
    def test_unknown_initiator_rejected(self, mesh_network):
        query = Query(subspace=(0, 1), initiator=999_999)
        with pytest.raises(KeyError, match="unknown initiator"):
            run_socket_query(mesh_network, query, Variant.FTPM)

    def test_rejects_unknown(self, mesh_network):
        """One event loop is the only endpoint mode."""
        for mode in ("process", "carrier-pigeon"):
            with pytest.raises(ValueError, match="unknown transport mode"):
                run_socket_query(mesh_network, _query(mesh_network), Variant.FTPM, mode=mode)


class TestConfigPlumbing:
    def test_explicit_config_is_used(self, mesh_network):
        config = TransportConfig(io_timeout=20.0, retries=1)
        query = _query(mesh_network)
        outcome = run_socket_query(
            mesh_network, query, Variant.FTPM, config=config
        )
        assert len(outcome.result) > 0
