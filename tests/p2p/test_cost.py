"""Unit tests for the network cost model."""

import numpy as np
import pytest

from repro.p2p.cost import DEFAULT_COST_MODEL, CostModel, id_width


class TestCostModel:
    def test_default_bandwidth_is_4kb(self):
        assert DEFAULT_COST_MODEL.bandwidth_bytes_per_sec == 4096.0

    def test_transfer_seconds(self):
        model = CostModel(bandwidth_bytes_per_sec=1024.0)
        assert model.transfer_seconds(2048) == pytest.approx(2.0)

    def test_point_bytes_grows_with_k(self):
        model = CostModel()
        assert model.point_bytes(3, 3) > model.point_bytes(2, 3)

    def test_point_bytes_is_the_id_width_plus_k_coordinates(self):
        model = CostModel()
        for width in range(1, 9):
            assert model.point_bytes(4, width) == width + 4 * model.coordinate_bytes

    def test_result_bytes_linear_in_points(self):
        model = CostModel()
        header = model.result_bytes(0, 3, 2)
        assert header == model.message_header_bytes
        assert model.result_bytes(10, 3, 2) == header + 10 * model.point_bytes(3, 2)

    def test_result_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().result_bytes(-1, 2, 1)

    def test_the_wire_has_no_fixed_id_size(self):
        assert not hasattr(CostModel(), "id_bytes")

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


class TestIdWidth:
    @pytest.mark.parametrize(
        "largest,width",
        [
            (0, 1),
            (255, 1),
            (256, 2),
            (2**16 - 1, 2),
            (2**16, 3),
            (2**24 - 1, 3),
            (2**24, 4),
            (2**32 - 1, 4),
            (2**32, 5),
            (2**56 - 1, 7),
            (2**56, 8),
            (2**63 - 1, 8),
        ],
    )
    def test_fewest_whole_bytes_that_hold_the_largest_id(self, largest, width):
        assert id_width([largest]) == width
        assert id_width([0, largest, 1]) == width
        assert id_width(np.array([largest], dtype=np.int64)) == width

    def test_empty_is_one_byte(self):
        assert id_width([]) == 1
        assert id_width(np.empty(0, dtype=np.int64)) == 1

    @pytest.mark.parametrize("negative", [-1, -256, -(2**63)])
    def test_a_negative_id_takes_all_eight_bytes(self, negative):
        assert id_width([negative]) == 8
        assert id_width([0, 5, negative]) == 8

    def test_skybench_ids_fit_in_three_bytes(self):
        """``net_uniform`` ids are below 100 000 and inserted ids start
        at 10 000 000: both below 2**24."""
        assert id_width([99_999]) == 3
        assert id_width([10_000_000, 10_000_999]) == 3
