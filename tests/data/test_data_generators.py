"""Unit tests for the synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.data.generators import (
    clustered_table,
    correlated_table,
    gaussian_mixture_density,
    gaussian_mixture_table,
    mixed_table,
    sample_gaussian_mixture,
    uniform_table,
    zipf_table,
)


class TestUniform:
    def test_shape_and_range(self) -> None:
        table = uniform_table(1000, dimensions=3, low=2.0, high=5.0, seed=1)
        assert table.row_count == 1000
        assert table.column_names == ("x0", "x1", "x2")
        data = table.as_matrix()
        assert data.min() >= 2.0
        assert data.max() <= 5.0

    def test_reproducibility(self) -> None:
        a = uniform_table(100, seed=3).as_matrix()
        b = uniform_table(100, seed=3).as_matrix()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self) -> None:
        a = uniform_table(100, seed=3).as_matrix()
        b = uniform_table(100, seed=4).as_matrix()
        assert not np.array_equal(a, b)

    def test_invalid_bounds(self) -> None:
        with pytest.raises(InvalidParameterError):
            uniform_table(10, low=1.0, high=0.0)

    def test_negative_rows(self) -> None:
        with pytest.raises(InvalidParameterError):
            uniform_table(-1)

    def test_custom_column_names(self) -> None:
        table = uniform_table(10, dimensions=2, column_names=["a", "b"], seed=0)
        assert table.column_names == ("a", "b")

    def test_column_name_mismatch_raises(self) -> None:
        with pytest.raises(InvalidParameterError):
            uniform_table(10, dimensions=2, column_names=["only"])


class TestGaussianMixture:
    def test_multimodality(self) -> None:
        table = gaussian_mixture_table(20_000, dimensions=1, components=2, separation=10.0, seed=2)
        values = table.column("x0")
        center = float(values.mean())
        # The gap between modes holds almost no data.
        gap = np.mean((values > center - 1.0) & (values < center + 1.0))
        assert gap < 0.1

    def test_dimensions(self) -> None:
        table = gaussian_mixture_table(500, dimensions=3, seed=3)
        assert table.as_matrix().shape == (500, 3)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            gaussian_mixture_table(10, components=0)
        with pytest.raises(InvalidParameterError):
            gaussian_mixture_table(10, separation=-1.0)

    def test_density_integrates_to_one(self) -> None:
        means = np.array([[0.0], [5.0]])
        stds = np.array([[1.0], [0.5]])
        weights = np.array([0.3, 0.7])
        grid = np.linspace(-10, 15, 4000).reshape(-1, 1)
        density = gaussian_mixture_density(grid, means, stds, weights)
        assert np.trapezoid(density, grid[:, 0]) == pytest.approx(1.0, abs=1e-3)

    def test_sampler_matches_density_mass(self) -> None:
        rng = np.random.default_rng(5)
        means = np.array([[0.0], [6.0]])
        stds = np.array([[1.0], [1.0]])
        weights = np.array([0.5, 0.5])
        sample = sample_gaussian_mixture(50_000, means, stds, weights, rng)
        fraction_near_zero = float(np.mean(np.abs(sample[:, 0]) < 1.0))
        assert fraction_near_zero == pytest.approx(0.5 * 0.683, abs=0.02)


class TestZipf:
    def test_skew_increases_concentration(self) -> None:
        mild = zipf_table(20_000, theta=0.2, seed=6).column("x0")
        heavy = zipf_table(20_000, theta=1.8, seed=6).column("x0")
        domain = 1000.0
        head_mild = float(np.mean(mild < domain * 0.05))
        head_heavy = float(np.mean(heavy < domain * 0.05))
        assert head_heavy > head_mild

    def test_zero_theta_is_roughly_uniform(self) -> None:
        values = zipf_table(50_000, theta=0.0, seed=7).column("x0")
        assert float(np.mean(values < 500.0)) == pytest.approx(0.5, abs=0.02)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            zipf_table(10, theta=-1.0)
        with pytest.raises(InvalidParameterError):
            zipf_table(10, distinct=0)

    def test_values_within_domain(self) -> None:
        values = zipf_table(5000, theta=1.0, domain=100.0, seed=8).column("x0")
        assert values.min() >= 0.0
        assert values.max() <= 100.0 + 1e-9


class TestCorrelated:
    def test_correlation_close_to_target(self) -> None:
        table = correlated_table(30_000, dimensions=2, correlation=0.8, seed=9)
        observed = np.corrcoef(table.column("x0"), table.column("x1"))[0, 1]
        assert observed == pytest.approx(0.8, abs=0.03)

    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            correlated_table(10, dimensions=1)
        with pytest.raises(InvalidParameterError):
            correlated_table(10, correlation=1.0)

    def test_higher_dimensions(self) -> None:
        table = correlated_table(1000, dimensions=4, correlation=0.5, seed=10)
        assert table.as_matrix().shape == (1000, 4)


class TestClusteredAndMixed:
    def test_clustered_shape(self) -> None:
        table = clustered_table(2000, dimensions=2, clusters=3, seed=11)
        assert table.row_count == 2000
        assert table.as_matrix().shape == (2000, 2)

    def test_clustered_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            clustered_table(10, clusters=0)
        with pytest.raises(InvalidParameterError):
            clustered_table(10, noise_fraction=1.5)

    def test_mixed_table_columns(self) -> None:
        table = mixed_table(3000, seed=12)
        assert set(table.column_names) == {"skewed", "multimodal", "base", "corr"}
        assert table.row_count == 3000
        observed = np.corrcoef(table.column("base"), table.column("corr"))[0, 1]
        assert observed > 0.6
