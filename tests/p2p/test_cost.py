"""Unit tests for the network cost model."""

import struct

import numpy as np
import pytest

from repro.p2p.cost import DEFAULT_COST_MODEL, CostModel, coord_width, id_width


class TestCostModel:
    def test_default_bandwidth_is_4kb(self):
        assert DEFAULT_COST_MODEL.bandwidth_bytes_per_sec == 4096.0

    def test_transfer_seconds(self):
        model = CostModel(bandwidth_bytes_per_sec=1024.0)
        assert model.transfer_seconds(2048) == pytest.approx(2.0)

    def test_point_bytes_grows_with_k(self):
        model = CostModel()
        assert model.point_bytes(3, 3, 8) > model.point_bytes(2, 3, 8)

    def test_point_bytes_is_the_id_width_plus_k_coordinates(self):
        model = CostModel()
        for width in range(1, 9):
            assert model.point_bytes(4, width, 8) == width + 4 * model.coordinate_bytes

    def test_point_bytes_charges_each_coordinate_its_low_bytes(self):
        model = CostModel()
        for low in range(9):
            assert model.point_bytes(4, 3, low) == 3 + 4 * low

    def test_result_bytes_linear_in_points(self):
        model = CostModel()
        header = model.result_bytes(0, 3, 2, 8)
        assert header == model.message_header_bytes
        assert model.result_bytes(10, 3, 2, 8) == header + 10 * model.point_bytes(3, 2, 8)

    def test_result_bytes_sends_the_shared_high_bytes_once(self):
        """``header + n·(w + k·c) + (8 − c)``, for every width."""
        model = CostModel()
        for n in (0, 1, 7):
            for k in (1, 4, 8):
                for low in range(9):
                    assert model.result_bytes(n, k, 2, low) == (
                        model.message_header_bytes + n * (2 + k * low) + (8 - low)
                    )

    def test_a_result_never_costs_more_than_whole_doubles(self):
        """``(8 − c) + nk·c ≤ 8nk`` whenever the block is not empty."""
        model = CostModel()
        for n in (1, 2, 300):
            for k in (1, 3, 8):
                whole = model.result_bytes(n, k, 3, 8)
                assert all(model.result_bytes(n, k, 3, low) <= whole for low in range(9))

    def test_result_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().result_bytes(-1, 2, 1, 8)

    @pytest.mark.parametrize("low", [-1, 9])
    def test_result_bytes_rejects_a_coordinate_width_outside_zero_to_eight(self, low):
        with pytest.raises(ValueError, match="coordinate width"):
            CostModel().result_bytes(3, 2, 1, low)

    def test_a_model_with_small_coordinates_never_charges_below_zero(self):
        """The shared bytes are capped at a whole ``coordinate_bytes``."""
        model = CostModel(coordinate_bytes=1)
        for low in range(9):
            assert model.point_bytes(3, 1, low) >= 1
            assert model.result_bytes(5, 3, 1, low) >= model.message_header_bytes

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


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestCoordWidth:
    def test_empty_is_eight_bytes(self):
        assert coord_width([]) == 8
        assert coord_width(np.empty((0, 3))) == 8
        assert coord_width(np.empty((4, 0))) == 8

    def test_bitwise_equal_values_share_all_eight_bytes(self):
        assert coord_width([0.5]) == 0
        assert coord_width(np.full((5, 3), 0.25)) == 0
        nan = _double(0x7FF8_0000_DEAD_BEEF)
        assert coord_width([nan, nan]) == 0

    @pytest.mark.parametrize("shared", range(9))
    def test_the_width_is_eight_less_the_shared_high_bytes(self, shared):
        """Two patterns agreeing on exactly ``shared`` high bytes."""
        base = 0x3FE1_2345_6789_ABCD
        if shared == 8:
            values = [_double(base), _double(base)]
        else:
            flip = 1 << (8 * (8 - shared) - 1)  # the top bit of the first differing byte
            values = [_double(base), _double(base ^ flip)]
        assert coord_width(values) == 8 - shared
        assert coord_width(np.array(values).reshape(2, 1)) == 8 - shared

    def test_signed_zeros_and_infinities_differ_in_the_top_byte(self):
        assert coord_width([0.0, -0.0]) == 8
        assert coord_width([np.inf, -np.inf]) == 8
        assert coord_width([0.0, 5e-324]) == 1  # the smallest subnormal

    def test_values_in_one_binade_share_the_top_byte(self):
        """Every value in [2**-15, 2) begins with ``0x3F``."""
        rng = np.random.default_rng(40)
        values = rng.uniform(2.0**-15, 2.0, size=(300, 4))
        assert coord_width(values) <= 7
        assert coord_width(np.append(values, 0.0)) == 8
