"""Unit tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.data.generators import (
    CLUSTER_STD,
    GENERATOR_KINDS,
    anticorrelated,
    clustered,
    correlated,
    make_generator,
    uniform,
)


class TestUniform:
    def test_shape_and_range(self, rng):
        data = uniform(500, 4, rng)
        assert data.shape == (500, 4)
        assert data.min() >= 0.0 and data.max() < 1.0

    def test_deterministic_with_seed(self):
        a = uniform(10, 3, np.random.default_rng(7))
        b = uniform(10, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            uniform(-1, 3, rng)
        with pytest.raises(ValueError):
            uniform(10, 0, rng)

    def test_zero_points(self, rng):
        assert uniform(0, 3, rng).shape == (0, 3)


class TestClustered:
    def test_points_concentrate_around_centroid(self, rng):
        centroid = np.full((1, 3), 0.5)
        data = clustered(2000, 3, rng, centroids=centroid)
        # within ~3 sigma of the centroid on each axis
        assert np.abs(data.mean(axis=0) - 0.5).max() < 0.05
        assert abs(data.std() - CLUSTER_STD) < 0.05

    def test_variance_matches_paper(self, rng):
        """Paper: Gaussian on each axis with variance 0.025."""
        data = clustered(5000, 2, rng, centroids=np.full((1, 2), 0.5))
        assert np.var(data[:, 0]) == pytest.approx(0.025, rel=0.15)

    def test_clipped_to_unit_cube(self, rng):
        data = clustered(1000, 2, rng, centroids=np.array([[0.0, 1.0]]))
        assert data.min() >= 0.0 and data.max() <= 1.0

    def test_multiple_clusters(self, rng):
        cents = np.array([[0.1, 0.1], [0.9, 0.9]])
        data = clustered(1000, 2, rng, centroids=cents)
        near_a = np.sum(np.linalg.norm(data - cents[0], axis=1) < 0.4)
        near_b = np.sum(np.linalg.norm(data - cents[1], axis=1) < 0.4)
        assert near_a > 200 and near_b > 200

    def test_random_centroids(self, rng):
        data = clustered(100, 3, rng, n_clusters=4)
        assert data.shape == (100, 3)

    def test_rejects_bad_centroids(self, rng):
        with pytest.raises(ValueError, match="centroids"):
            clustered(10, 3, rng, centroids=np.zeros((2, 2)))


class TestCorrelated:
    def test_coordinates_positively_correlated(self, rng):
        data = correlated(3000, 2, rng)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert r > 0.5

    def test_range(self, rng):
        data = correlated(500, 4, rng)
        assert data.min() >= 0.0 and data.max() <= 1.0


class TestAnticorrelated:
    def test_coordinates_negatively_correlated(self, rng):
        data = anticorrelated(3000, 2, rng)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert r < -0.3

    def test_bigger_skyline_than_correlated(self, rng):
        """The classic property: anticorrelated data has a much larger
        skyline than correlated data of the same size."""
        from repro.core.dataset import PointSet

        from tests.conftest import brute_force_skyline_ids

        anti = PointSet(anticorrelated(800, 3, rng))
        corr = PointSet(correlated(800, 3, np.random.default_rng(2)))
        full = (0, 1, 2)
        assert len(brute_force_skyline_ids(anti, full)) > 3 * len(
            brute_force_skyline_ids(corr, full)
        )


class TestFactory:
    def test_all_kinds_resolvable(self):
        for kind in GENERATOR_KINDS:
            assert callable(make_generator(kind))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            make_generator("zipfian")
