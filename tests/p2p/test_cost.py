"""Unit tests for the network cost model."""

import struct

import numpy as np
import pytest

from repro.p2p.cost import (
    DEFAULT_COST_MODEL, CostModel, Quanta, coord_width, id_bytes, id_gaps, id_width, quantize,
    varint_lengths,
)


class TestCostModel:
    def test_default_bandwidth_is_4kb(self):
        assert DEFAULT_COST_MODEL.bandwidth_bytes_per_sec == 4096.0

    def test_transfer_seconds(self):
        model = CostModel(bandwidth_bytes_per_sec=1024.0)
        assert model.transfer_seconds(2048) == pytest.approx(2.0)

    def test_result_bytes_linear_in_points(self):
        """The id block's bytes, then ``k`` whole coordinates a point."""
        model = CostModel()
        header = model.result_bytes(0, 3, 0, 8, 0)
        assert header == model.message_header_bytes
        assert model.result_bytes(10, 3, 20, 8, 30) == header + 20 + 10 * 3 * model.coordinate_bytes

    def test_result_bytes_sends_the_shared_high_bytes_once(self):
        """``header + n·(w + k·c) + (8 − c)``, for every width, when the
        block sends every coordinate and its ids take ``n·w`` bytes."""
        model = CostModel()
        for n in (0, 1, 7):
            for k in (1, 4, 8):
                for low in range(9):
                    assert model.result_bytes(n, k, 2 * n, low, n * k) == (
                        model.message_header_bytes + n * (2 + k * low) + (8 - low)
                    )

    def test_result_bytes_charges_a_zero_bitmap_and_the_sent_coordinates(self):
        """``header + n·w + ⌈nk/8⌉ + (8 − c) + nz·c`` when ``nz < nk``."""
        model = CostModel()
        for n in (1, 3, 300):
            for k in (1, 4, 8):
                for nz in {0, n * k // 2, n * k - 1}:
                    for low in range(9):
                        assert model.result_bytes(n, k, 2 * n, low, nz) == (
                            model.message_header_bytes + 2 * n + (n * k + 7) // 8
                            + (8 - low) + nz * low
                        )

    def test_a_result_never_costs_more_than_whole_doubles(self):
        """``(8 − c) + nk·c ≤ 8nk`` whenever the block is not empty."""
        model = CostModel()
        for n in (1, 2, 300):
            for k in (1, 3, 8):
                whole = model.result_bytes(n, k, 3 * n, 8, n * k)
                assert all(
                    model.result_bytes(n, k, 3 * n, low, n * k) <= whole for low in range(9)
                )

    def test_result_bytes_charges_each_column_its_own_group(self):
        """``header + n·w + (k − 1) + [⌈nk/8⌉] + Σ (8 − c_j) + Σ nz_j·c_j``."""
        model = CostModel()
        for n in (2, 5):
            for widths, sent in (((0, 7), (n, n)), ((8, 2, 3), (0, n, n - 1))):
                k = len(widths)
                bitmap = (n * k + 7) // 8 if sum(sent) < n * k else 0
                assert model.result_bytes(n, k, 2 * n, widths, sent) == (
                    model.message_header_bytes + 2 * n + k - 1 + bitmap
                    + sum(8 - c for c in widths) + sum(c * m for c, m in zip(widths, sent))
                )

    @pytest.mark.parametrize("widths,sent", [((7, 7), (3,)), ((7,) * 3, (3,) * 3), ((7, 7), (3, 4))])
    def test_result_bytes_rejects_groups_that_do_not_fit_the_block(self, widths, sent):
        with pytest.raises(ValueError):
            CostModel().result_bytes(3, 2, 1, widths, sent)

    def test_result_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().result_bytes(-1, 2, 1, 8, 0)
        with pytest.raises(ValueError, match="id_bytes"):
            CostModel().result_bytes(1, 2, -1, 8, 2)

    @pytest.mark.parametrize("low", [-1, 9])
    def test_result_bytes_rejects_a_coordinate_width_outside_zero_to_eight(self, low):
        with pytest.raises(ValueError, match="coordinate width"):
            CostModel().result_bytes(3, 2, 1, low, 6)

    @pytest.mark.parametrize("nonzero", [-1, 7])
    def test_result_bytes_rejects_a_sent_count_outside_the_block(self, nonzero):
        with pytest.raises(ValueError, match="sent coordinates"):
            CostModel().result_bytes(3, 2, 1, 8, nonzero)

    def test_a_model_with_small_coordinates_never_charges_below_zero(self):
        """The shared bytes are capped at a whole ``coordinate_bytes``."""
        model = CostModel(coordinate_bytes=1)
        for low in range(9):
            for nonzero in (0, 7, 15):
                assert model.result_bytes(5, 3, 1, low, nonzero) >= model.message_header_bytes

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


class TestIdBytes:
    """Wire version 8: the id block is the ``n·w`` column, or the
    zigzag LEB128 smallest id and LEB128 ascending gaps when strictly
    smaller."""

    def test_varint_lengths_step_every_seven_bits(self):
        words = np.array(
            [0, 127, 128, 2**14 - 1, 2**14, 2**56 - 1, 2**56, 2**63 - 1, 2**63, 2**64 - 1],
            dtype=np.uint64,
        )
        assert varint_lengths(words).tolist() == [1, 1, 2, 2, 3, 8, 9, 9, 10, 10]

    def test_gaps_are_the_zigzag_smallest_then_the_ascending_differences(self):
        assert id_gaps([]).tolist() == []
        assert id_gaps([300, 5, 7, 7]).tolist() == [10, 2, 0, 293]
        assert id_gaps([-1, 4]).tolist() == [1, 5]
        assert id_gaps([-3]).tolist() == [5]
        assert id_gaps([-(2**63), 2**63 - 1]).tolist() == [2**64 - 1, 2**64 - 1]

    def test_the_gap_layout_only_when_strictly_smaller(self):
        assert id_bytes([]) == 0
        assert id_bytes([0]) == 1 and id_bytes([200]) == 1  # 400 takes two varint bytes
        assert id_bytes([0, 1, 2]) == 3  # three varint bytes tie the column
        assert id_bytes(range(300)) == 300 < 300 * id_width(range(300))
        assert id_bytes([-1]) == 1 < id_width([-1])
        assert id_bytes([-(2**63), 0, 2**63 - 1]) == 3 * 8  # 10 + 10 + 9 varint bytes

    def test_order_and_repeats_do_not_change_the_charge(self):
        rng = np.random.default_rng(3)
        ids = rng.choice(5000, 60, replace=False)
        assert id_bytes(ids) == id_bytes(np.sort(ids)) == id_bytes(ids[::-1])
        assert id_bytes(np.append(ids, ids[:5])) == id_bytes(ids) + 5  # a repeat is one 0 gap

    def test_skybench_lists_take_about_a_byte_an_id(self):
        """About 60 ids of one super-peer's 5 000 have gaps near 80."""
        rng = np.random.default_rng(4)
        ids = np.sort(rng.choice(5000, 60, replace=False)) + 20_000
        assert id_bytes(ids) < 60 * 1.5 < 60 * id_width(ids)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestCoordWidth:
    def test_empty_is_eight_bytes(self):
        assert coord_width([]) == (8, 0)
        assert coord_width(np.empty((0, 3))) == (8, 0)
        assert coord_width(np.empty((4, 0))) == (8, 0)

    def test_bitwise_equal_values_share_all_eight_bytes(self):
        assert coord_width([0.5]) == (0, 1)
        assert coord_width(np.full((5, 3), 0.25)) == (0, 15)
        nan = _double(0x7FF8_0000_DEAD_BEEF)
        assert coord_width([nan, nan]) == (0, 2)

    def test_an_all_zero_block_sends_every_zero_at_width_zero(self):
        """No bitmap: ``8 − 0`` shared bytes and nothing per coordinate,
        so a list of tied zeros never grows — unless its quantum columns
        (exponent 0, base 0, width 0: 3 bytes each) are fewer bytes."""
        assert coord_width([0.0]) == (0, 1)
        assert coord_width(np.zeros((300, 3))) == (0, 900)
        assert coord_width(np.zeros((300, 1))) == (Quanta((0,), (0,), (0,)), 300)

    @pytest.mark.parametrize("shared", range(9))
    def test_the_width_is_eight_less_the_shared_high_bytes(self, shared):
        """Two patterns agreeing on exactly ``shared`` high bytes."""
        base = 0x3FE1_2345_6789_ABCD
        if shared == 8:
            values = [_double(base), _double(base)]
        else:
            flip = 1 << (8 * (8 - shared) - 1)  # the top bit of the first differing byte
            values = [_double(base), _double(base ^ flip)]
        assert coord_width(values) == (8 - shared, 2)
        assert coord_width(np.array(values).reshape(2, 1)) == (8 - shared, 2)
        # A +0.0 beside them is marked, not sent: the width stays.
        assert coord_width([values[0], 0.0, values[1]]) == (8 - shared, 2)

    def test_signed_zeros_and_infinities_differ_in_the_top_byte(self):
        assert coord_width([-0.0, 0.5]) == (8, 2)
        assert coord_width([np.inf, -np.inf]) == (8, 2)
        assert coord_width([-0.0, 5e-324]) == (8, 2)  # the smallest subnormal

    def test_only_positive_zero_is_marked(self):
        """``-0.0`` (bit pattern ``0x8000…``) is sent like any value."""
        assert coord_width([0.0, -0.0]) == (0, 1)
        assert coord_width([0.0, -0.0, -0.0, 0.0]) == (0, 2)
        assert coord_width([0.0, 5e-324]) == (0, 1)
        assert coord_width([0.0, 5e-324, 2 * 5e-324]) == (1, 2)

    def test_values_in_one_binade_share_the_top_byte(self):
        """Every value in [2**-15, 2) begins with ``0x3F``, and a +0.0
        among them no longer forces the width to 8."""
        rng = np.random.default_rng(40)
        values = rng.uniform(2.0**-15, 2.0, size=(300, 4))
        low, sent = coord_width(values)
        assert low <= 7 and sent == values.size
        assert coord_width(np.append(values, 0.0)) == (low, values.size)
        assert coord_width(np.append(values, -0.0)) == (8, values.size + 1)

    def test_columns_that_share_more_than_the_block_get_their_own_widths(self):
        """Two constant columns share all eight bytes each, but only the
        top byte with each other: ``1 + 8 + 8`` bytes beat ``1 + 6·7``.
        (Negative, so the blocks have no quantum layout.)"""
        assert coord_width(np.array([[-3.0, -7.0]] * 3)) == ((0, 0), (3, 3))
        # The bitmap stays the block's; a column it marks whole is width 8.
        block = np.array([[0.0, -3.0], [0.0, -3.0], [-0.5, -3.0]])
        assert coord_width(block) == ((0, 0), (1, 3))
        assert coord_width(np.array([[0.0, -3.0, -7.0]] * 3)) == ((8, 0, 0), (0, 3, 3))

    def test_one_group_wins_every_tie_and_every_single_point_or_column(self):
        """The per-column layout must be strictly smaller."""
        assert coord_width(np.array([[-3.0, -7.0]])) == (7, 2)
        assert coord_width(np.array([[-3.0], [-7.0], [-3.0]])) == (7, 3)
        # Column 0 shares its top byte, column 1 none (its signs differ),
        # the block none: 1 + (1 + 2·7) + 2·8 = 32 bytes either way.
        assert coord_width(np.array([[0.5, -1.0], [0.75, 1.0]])) == (8, 4)


class TestQuanta:
    def test_exponent_base_and_width_of_each_column(self):
        """0.5, 0.75, 1.0 are 2, 3, 4 quarters; 3, 5, 3 are integers."""
        block = np.array([[0.5, 3.0], [0.75, 5.0], [1.0, 3.0]])
        assert quantize(block) == Quanta((-2, 0), (2, 3), (2, 2))
        # A power of two, a subnormal and a column of +0.0 alone.
        assert quantize(np.array([[2.0**300, 5e-324, 0.0]])) == Quanta((300, -1074, 0), (1, 1, 0), (0, 0, 0))
        assert quantize(np.array([[0.0], [2.0**-1074 * 6]])) == Quanta((-1073,), (0,), (2,))

    @pytest.mark.parametrize(
        "block",
        [[[0.5], [-0.5]], [[0.5], [-0.0]], [[0.5], [np.nan]], [[0.5], [np.inf]], [[1.0], [2.0**64]],
         [[5e-324], [1.0]], [], [0.5, 0.25]],
    )
    def test_a_block_with_no_layout(self, block):
        """A negative value, ``-0.0``, NaN or an infinity; integers past
        64 bits; an empty or one-dimensional block."""
        assert quantize(np.array(block)) is None

    def test_the_largest_integers_that_fit(self):
        assert quantize(np.array([[1.0], [2.0**63]])) == Quanta((0,), (1,), (63,))
        assert quantize(np.array([[1.0], [2.0**64 - 2048]])).bits == (64,)

    def test_bytes_of_each_column(self):
        """Zigzag exponent, LEB128 base, width byte, ``⌈n·b/8⌉`` packed."""
        quanta = Quanta((-53, 0), (2**52, 0), (53, 0))
        assert quanta.nbytes(60) == (1 + 8 + 1 + (60 * 53 + 7) // 8) + (1 + 1 + 1)
        assert Quanta((-65,), (127,), (1,)).nbytes(9) == 2 + 1 + 1 + 2

    def test_result_bytes_charges_the_quantum_block(self):
        model, quanta = CostModel(), Quanta((-2, 0), (2, 3), (2, 2))
        assert model.result_bytes(3, 2, 3, quanta, 6) == model.message_header_bytes + 3 + 8
        for k, sent in ((3, 6), (2, 5)):
            with pytest.raises(ValueError):
                model.result_bytes(3, k, 3, quanta, sent)

    def test_the_layout_only_when_strictly_smaller(self):
        """A constant block sends its 8 shared bytes once as version 8: a
        pair of quantum columns (6 bytes) beats that, a triple (9) not."""
        assert coord_width(np.full((4, 2), 0.5)) == (Quanta((-1, -1), (1, 1), (0, 0)), 8)
        assert coord_width(np.full((4, 3), 0.5)) == (0, 12)
