"""Tests for the CSV loader."""

import numpy as np
import pytest

from repro.data.loader import load_csv

from tests.conftest import brute_force_skyline_ids

CSV = """name,price,rating,distance,junk
Alpha,100,4.5,2.0,x
Beta,80,3.0,1.0,y
Gamma,150,5.0,0.5,z
Delta,not_a_number,2.0,3.0,w
Epsilon,120,4.0,,v
Zeta,60,1.0,5.0,u
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "hotels.csv"
    path.write_text(CSV)
    return path


class TestLoadCsv:
    def test_loads_and_normalizes(self, csv_path):
        loaded = load_csv(csv_path, ["price", "rating", "distance"], maximize=["rating"])
        assert loaded.dimensionality == 3
        assert len(loaded.points) == 4  # Delta and Epsilon dropped
        assert loaded.skipped_rows == 2
        values = loaded.points.values
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_maximize_inverts(self, csv_path):
        # price+rating only: Epsilon's empty distance does not matter,
        # so 5 rows load (only Delta is dropped).
        loaded = load_csv(csv_path, ["price", "rating"], maximize=["rating"])
        assert len(loaded.points) == 5
        assert loaded.skipped_rows == 1
        # Gamma has the best rating (5.0) -> after inversion + normalize
        # its rating coordinate must be the smallest (0.0).
        ratings = loaded.points.values[:, 1]
        prices_raw = [100, 80, 150, 120, 60]
        gamma_row = prices_raw.index(150)
        assert ratings[gamma_row] == pytest.approx(0.0)

    def test_denormalize_roundtrip(self, csv_path):
        loaded = load_csv(csv_path, ["price", "rating"], maximize=["rating"])
        spec = loaded.columns[0]  # price, minimized
        raw_prices = sorted([100.0, 80.0, 150.0, 120.0, 60.0])
        recovered = sorted(
            spec.denormalize(v) for v in loaded.points.values[:, 0]
        )
        assert recovered == pytest.approx(raw_prices)

    def test_denormalize_maximized_column(self, csv_path):
        loaded = load_csv(csv_path, ["price", "rating"], maximize=["rating"])
        spec = loaded.columns[1]
        recovered = sorted(spec.denormalize(v) for v in loaded.points.values[:, 1])
        assert recovered == pytest.approx([1.0, 3.0, 4.0, 4.5, 5.0])

    def test_skyline_over_loaded_data(self, csv_path):
        """End-to-end sanity: cheapest-and-best-rated hotels win."""
        loaded = load_csv(csv_path, ["price", "rating"], maximize=["rating"])
        sky = brute_force_skyline_ids(loaded.points, (0, 1))
        assert 1 <= len(sky) <= 5

    def test_missing_column(self, csv_path):
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(csv_path, ["price", "stars"])

    def test_maximize_must_be_loaded(self, csv_path):
        with pytest.raises(ValueError, match="not loaded"):
            load_csv(csv_path, ["price"], maximize=["rating"])

    def test_empty_columns(self, csv_path):
        with pytest.raises(ValueError, match="at least one"):
            load_csv(csv_path, [])

    def test_all_rows_bad(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx,y\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(path, ["a", "b"])

    def test_constant_column_normalizes_to_zero(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n5,1\n5,2\n")
        loaded = load_csv(path, ["a", "b"])
        assert np.all(loaded.points.values[:, 0] == 0.0)
