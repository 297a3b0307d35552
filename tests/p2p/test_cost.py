"""Unit tests for the network cost model."""

import pytest

from repro.p2p.cost import DEFAULT_COST_MODEL, CostModel


class TestCostModel:
    def test_default_bandwidth_is_4kb(self):
        assert DEFAULT_COST_MODEL.bandwidth_bytes_per_sec == 4096.0

    def test_transfer_seconds(self):
        model = CostModel(bandwidth_bytes_per_sec=1024.0)
        assert model.transfer_seconds(2048) == pytest.approx(2.0)

    def test_point_bytes_grows_with_k(self):
        model = CostModel()
        assert model.point_bytes(3) > model.point_bytes(2)

    def test_result_bytes_linear_in_points(self):
        model = CostModel()
        header = model.result_bytes(0, 3)
        assert model.result_bytes(10, 3) == header + 10 * model.point_bytes(3)

    def test_result_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().result_bytes(-1, 2)

    def test_query_bytes_contains_threshold_and_dims(self):
        model = CostModel()
        assert model.query_bytes(3) == (
            model.message_header_bytes
            + model.threshold_bytes
            + 3 * model.dimension_tag_bytes
        )

    def test_query_bytes_adds_the_bound_point(self):
        model = CostModel()
        for k in (1, 3, 8):
            assert model.query_bytes(k, 1) - model.query_bytes(k, 0) == k * model.coordinate_bytes
        assert model.query_bytes(3, 0) == model.query_bytes(3)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            CostModel(bandwidth_bytes_per_sec=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.bandwidth_bytes_per_sec = 1.0
