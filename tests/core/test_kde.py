"""Unit tests for the fixed-bandwidth KDE selectivity estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
)
from repro.core.kde import KDESelectivityEstimator
from repro.data.generators import gaussian_mixture_table, uniform_table
from repro.engine.table import Table
from repro.workload.queries import RangeQuery


class TestLifecycle:
    def test_estimate_before_fit_raises(self) -> None:
        with pytest.raises(NotFittedError):
            KDESelectivityEstimator().estimate(RangeQuery({"x0": (0, 1)}))

    def test_memory_before_fit_raises(self) -> None:
        with pytest.raises(NotFittedError):
            KDESelectivityEstimator().memory_bytes()

    def test_fit_returns_self(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=100)
        assert estimator.fit(small_table) is estimator
        assert estimator.is_fitted
        assert estimator.columns == ("x0",)
        assert estimator.row_count == small_table.row_count

    def test_fit_on_column_subset(self, mixture_table_2d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=100).fit(mixture_table_2d, ["x1"])
        assert estimator.columns == ("x1",)
        value = estimator.estimate(RangeQuery({"x1": (-100, 100)}))
        assert value == pytest.approx(1.0, abs=0.05)

    def test_unknown_column_raises(self, small_table: Table) -> None:
        with pytest.raises(DimensionMismatchError):
            KDESelectivityEstimator().fit(small_table, ["nope"])

    def test_query_on_uncovered_attribute_raises(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=50).fit(small_table)
        with pytest.raises(DimensionMismatchError):
            estimator.estimate(RangeQuery({"other": (0, 1)}))

    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            KDESelectivityEstimator(sample_size=0)
        with pytest.raises(InvalidParameterError):
            KDESelectivityEstimator(bandwidths=[-1.0]).fit(
                uniform_table(100, dimensions=1, seed=0)
            )
        with pytest.raises(InvalidParameterError):
            KDESelectivityEstimator(bandwidths=[0.1, 0.2]).fit(
                uniform_table(100, dimensions=1, seed=0)
            )


class TestEstimates:
    def test_full_domain_query_close_to_one(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=500).fit(mixture_table_1d)
        domain = mixture_table_1d.domain()["x0"]
        value = estimator.estimate(RangeQuery({"x0": domain}))
        assert value == pytest.approx(1.0, abs=0.05)

    def test_empty_region_close_to_zero(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=500).fit(mixture_table_1d)
        high = mixture_table_1d.domain()["x0"][1]
        value = estimator.estimate(RangeQuery({"x0": (high + 100, high + 200)}))
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_estimates_in_unit_interval(self, mixture_table_2d: Table, workload_2d) -> None:
        estimator = KDESelectivityEstimator(sample_size=300).fit(mixture_table_2d)
        for query in workload_2d:
            value = estimator.estimate(query)
            assert 0.0 <= value <= 1.0

    def test_monotone_in_query_width(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=500).fit(mixture_table_1d)
        low, high = mixture_table_1d.domain()["x0"]
        center = (low + high) / 2.0
        widths = np.linspace(0.1, (high - low) / 2, 8)
        estimates = [
            estimator.estimate(RangeQuery({"x0": (center - w, center + w)})) for w in widths
        ]
        assert all(b >= a - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_uniform_data_accuracy(self) -> None:
        table = uniform_table(20_000, dimensions=1, seed=3)
        estimator = KDESelectivityEstimator(sample_size=1000).fit(table)
        value = estimator.estimate(RangeQuery({"x0": (0.2, 0.7)}))
        assert value == pytest.approx(0.5, abs=0.05)

    def test_additivity_over_disjoint_ranges(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=500).fit(mixture_table_1d)
        low, high = mixture_table_1d.domain()["x0"]
        mid = (low + high) / 2.0
        left = estimator.estimate(RangeQuery({"x0": (low, mid)}))
        right = estimator.estimate(RangeQuery({"x0": (mid, high)}))
        both = estimator.estimate(RangeQuery({"x0": (low, high)}))
        assert left + right == pytest.approx(both, abs=0.02)

    def test_estimate_cardinality_scales_with_rows(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=200).fit(small_table)
        query = RangeQuery({"x0": (0.0, 0.5)})
        cardinality = estimator.estimate_cardinality(query)
        assert cardinality == pytest.approx(estimator.estimate(query) * small_table.row_count)

    def test_open_ended_query(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=200).fit(small_table)
        value = estimator.estimate(RangeQuery({"x0": (0.5, float("inf"))}))
        assert value == pytest.approx(0.5, abs=0.1)


class TestConfiguration:
    def test_sample_size_respected(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=128).fit(mixture_table_1d)
        assert estimator.sample_points.shape[0] == 128

    def test_none_sample_keeps_everything(self) -> None:
        table = uniform_table(500, dimensions=1, seed=1)
        estimator = KDESelectivityEstimator(sample_size=None).fit(table)
        assert estimator.sample_points.shape[0] == 500

    def test_explicit_bandwidths_used(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=100, bandwidths=[0.05]).fit(small_table)
        assert estimator.bandwidths[0] == pytest.approx(0.05)

    def test_set_bandwidths(self, small_table: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=100).fit(small_table)
        estimator.set_bandwidths([0.2])
        assert estimator.bandwidths[0] == pytest.approx(0.2)
        with pytest.raises(InvalidParameterError):
            estimator.set_bandwidths([0.2, 0.3])
        with pytest.raises(InvalidParameterError):
            estimator.set_bandwidths([-0.1])

    def test_seed_reproducibility(self, mixture_table_1d: Table) -> None:
        e1 = KDESelectivityEstimator(sample_size=200, seed=7).fit(mixture_table_1d)
        e2 = KDESelectivityEstimator(sample_size=200, seed=7).fit(mixture_table_1d)
        query = RangeQuery({"x0": (0.0, 2.0)})
        assert e1.estimate(query) == pytest.approx(e2.estimate(query))

    def test_different_kernels_give_similar_estimates(self, mixture_table_1d: Table) -> None:
        query = RangeQuery({"x0": (0.0, 4.0)})
        estimates = []
        for kernel in ("gaussian", "epanechnikov", "biweight"):
            estimator = KDESelectivityEstimator(sample_size=400, kernel=kernel).fit(
                mixture_table_1d
            )
            estimates.append(estimator.estimate(query))
        assert max(estimates) - min(estimates) < 0.1

    def test_memory_scales_with_sample_size(self, mixture_table_1d: Table) -> None:
        small = KDESelectivityEstimator(sample_size=100).fit(mixture_table_1d)
        large = KDESelectivityEstimator(sample_size=400).fit(mixture_table_1d)
        assert large.memory_bytes() > small.memory_bytes()

    def test_boundary_correction_improves_edge_queries(self) -> None:
        table = uniform_table(20_000, dimensions=1, seed=5)
        corrected = KDESelectivityEstimator(sample_size=800, boundary_correction=True).fit(table)
        uncorrected = KDESelectivityEstimator(sample_size=800, boundary_correction=False).fit(table)
        edge_query = RangeQuery({"x0": (0.0, 0.1)})
        truth = table.true_selectivity(edge_query)
        assert abs(corrected.estimate(edge_query) - truth) <= abs(
            uncorrected.estimate(edge_query) - truth
        )


class TestDensity:
    def test_density_nonnegative_and_integrates(self, mixture_table_1d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=400).fit(mixture_table_1d)
        low, high = mixture_table_1d.domain()["x0"]
        grid = np.linspace(low - 3, high + 3, 800).reshape(-1, 1)
        density = estimator.density(grid)
        assert np.all(density >= 0)
        integral = np.trapezoid(density, dx=float(grid[1, 0] - grid[0, 0]))
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_density_dimension_mismatch_raises(self, mixture_table_2d: Table) -> None:
        estimator = KDESelectivityEstimator(sample_size=100).fit(mixture_table_2d)
        with pytest.raises(InvalidParameterError):
            estimator.density(np.zeros((5, 1)))

    def test_density_peaks_near_modes(self) -> None:
        table = gaussian_mixture_table(8000, dimensions=1, components=2, separation=8.0, seed=9)
        estimator = KDESelectivityEstimator(sample_size=800, bandwidth_rule="lscv").fit(table)
        values = table.column("x0")
        dense_point = np.array([[float(np.median(values[values < np.mean(values)]))]])
        low, high = table.domain()["x0"]
        gap_point = np.array([[(low + high) / 2.0]])
        assert estimator.density(dense_point)[0] > estimator.density(gap_point)[0]


class TestZeroRowFit:
    """Zero-row relations must fit gracefully and estimate 0.0 (no mass)."""

    def _empty_table(self, dimensions: int = 2) -> Table:
        return Table.from_array(
            "empty", np.empty((0, dimensions)), [f"x{i}" for i in range(dimensions)]
        )

    @pytest.mark.parametrize("rule", ["scott", "silverman", "lscv", "mlcv"])
    def test_fit_and_estimate_zero(self, rule: str) -> None:
        estimator = KDESelectivityEstimator(sample_size=32, bandwidth_rule=rule)
        estimator.fit(self._empty_table())
        assert estimator.is_fitted
        assert np.all(np.isfinite(estimator.bandwidths))
        query = RangeQuery({"x0": (0.0, 1.0), "x1": (-1.0, 1.0)})
        assert estimator.estimate(query) == 0.0
        np.testing.assert_array_equal(estimator.estimate_batch([query, query]), 0.0)
        assert estimator.memory_bytes() >= 0

    def test_adaptive_zero_row_fit(self) -> None:
        from repro.core.adaptive import AdaptiveKDEEstimator

        estimator = AdaptiveKDEEstimator(sample_size=32).fit(self._empty_table(1))
        assert estimator.estimate(RangeQuery({"x0": (0.0, 1.0)})) == 0.0

    def test_density_zero_everywhere(self) -> None:
        estimator = KDESelectivityEstimator(sample_size=32).fit(self._empty_table(1))
        np.testing.assert_array_equal(estimator.density(np.zeros((4, 1))), 0.0)
