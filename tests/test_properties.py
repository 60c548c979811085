"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.baselines.histogram import EquiDepthHistogram, EquiWidthHistogram, Histogram1D
from repro.baselines.wavelet import haar_transform, inverse_haar_transform, top_k_coefficients
from repro.core.bandwidth import local_bandwidth_factors, scott_bandwidth
from repro.core.errors import ReproError
from repro.core.estimator import (
    SelectivityEstimator,
    StreamingEstimator,
    available_estimators,
    create_estimator,
)
from repro.core.fastpath import DEFAULT_ATOL
from repro.core.kde import KDESelectivityEstimator
from repro.core.kernels import KERNELS, get_kernel
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.engine.table import Table
from repro.metrics.errors import q_errors, relative_errors
from repro.stream.reservoir import ReservoirSampler
from repro.workload.generators import UniformWorkload
from repro.workload.queries import CompiledQueries, Interval, RangeQuery, compile_queries

# Shared strategies -----------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: Query bounds: floats, ints, signed zeros and infinities.
query_bounds = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.integers(min_value=-100, max_value=100),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)

bounded_arrays = npst.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=200),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestKernelProperties:
    @given(
        kernel_name=st.sampled_from(sorted(KERNELS)),
        u=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 50),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_pdf_nonnegative_cdf_bounded(self, kernel_name: str, u: np.ndarray) -> None:
        kernel = get_kernel(kernel_name)
        assert np.all(kernel.pdf(u) >= 0)
        cdf = kernel.cdf(u)
        assert np.all((cdf >= -1e-12) & (cdf <= 1 + 1e-12))

    @given(
        kernel_name=st.sampled_from(sorted(KERNELS)),
        a=st.floats(min_value=-5, max_value=5, allow_nan=False),
        width=st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_mass_monotone_in_width(self, kernel_name: str, a: float, width: float) -> None:
        kernel = get_kernel(kernel_name)
        narrow = kernel.interval_mass(np.array([a]), np.array([a + width / 2]))[0]
        wide = kernel.interval_mass(np.array([a]), np.array([a + width]))[0]
        assert wide >= narrow - 1e-12


class TestIntervalAndQueryProperties:
    @given(low=finite_floats, width=st.floats(min_value=0, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_interval_width_and_containment(self, low: float, width: float) -> None:
        interval = Interval(low, low + width)
        assert interval.width == pytest.approx(width, rel=1e-9, abs=1e-9)
        assert interval.contains(low)
        assert interval.contains(low + width)
        midpoint = low + width / 2
        assert interval.contains(midpoint)

    @given(
        low_a=finite_floats,
        width_a=st.floats(min_value=0, max_value=1000, allow_nan=False),
        low_b=finite_floats,
        width_b=st.floats(min_value=0, max_value=1000, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_intersection_is_commutative_and_contained(
        self, low_a: float, width_a: float, low_b: float, width_b: float
    ) -> None:
        a = Interval(low_a, low_a + width_a)
        b = Interval(low_b, low_b + width_b)
        ab = a.intersect(b)
        ba = b.intersect(a)
        assert ab == ba
        if ab is not None:
            assert ab.width <= min(a.width, b.width) + 1e-9

    @given(
        bounds=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.tuples(query_bounds, query_bounds, st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_range_query_equality_and_hash(self, bounds) -> None:
        """Equal queries hash alike and compile to equal plans.

        The server's result cache keys ``RangeQuery`` requests by value and
        compiles only on a miss, so this is the contract that key rests on.
        The twin of each query spells every bound differently where it can:
        an int as a float (and back), ``0.0`` as ``-0.0`` (and back).
        """

        def twin(value):
            if isinstance(value, int):
                return float(value)
            if value == 0:
                return -value
            if math.isfinite(value) and value.is_integer():
                return int(value)
            return value

        constraints, twins = {}, {}
        for name, (x, y, point) in bounds.items():
            low, high = sorted((x, y))
            if point:
                high = low
            constraints[name] = (low, high)
            twins[name] = (twin(low), twin(high))
        q1 = RangeQuery(constraints)
        q2 = RangeQuery(dict(reversed(list(twins.items()))))
        assert q1 == q2
        assert hash(q1) == hash(q2)
        assert q1.dimensionality == len(constraints)
        columns = ("a", "b", "c")
        plan1 = compile_queries([q1], columns)
        plan2 = compile_queries([q2], columns)
        assert np.array_equal(plan1.lows, plan2.lows)
        assert np.array_equal(plan1.highs, plan2.highs)


class TestTableProperties:
    @given(data=npst.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 100), st.integers(1, 3)),
        elements=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    ))
    @settings(max_examples=60, deadline=None)
    def test_true_selectivity_bounds_and_full_domain(self, data: np.ndarray) -> None:
        table = Table.from_array("t", data)
        domain = table.domain()
        full = RangeQuery({name: bounds for name, bounds in domain.items()})
        assert table.true_selectivity(full) == pytest.approx(1.0)
        narrow = RangeQuery({table.column_names[0]: (domain[table.column_names[0]][0],
                                                     domain[table.column_names[0]][0])})
        assert 0.0 < table.true_selectivity(narrow) <= 1.0

    @given(values=bounded_arrays, fraction=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_selectivity_monotone_in_range(self, values: np.ndarray, fraction: float) -> None:
        table = Table("t", {"x": values})
        low, high = float(values.min()), float(values.max())
        mid = low + (high - low) * fraction
        small = table.true_selectivity(RangeQuery({"x": (low, mid)}))
        large = table.true_selectivity(RangeQuery({"x": (low, high)}))
        assert small <= large + 1e-12


class TestHistogramProperties:
    @given(values=bounded_arrays, buckets=st.integers(2, 64))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_histogram_estimates_are_fractions(self, values: np.ndarray, buckets: int) -> None:
        assume(float(values.max()) > float(values.min()))  # constant columns are degenerate
        table = Table("t", {"x": values})
        for estimator_type in (EquiWidthHistogram, EquiDepthHistogram):
            estimator = estimator_type(buckets=buckets).fit(table)
            low, high = table.domain()["x"]
            estimate = estimator.estimate(RangeQuery({"x": (low, high)}))
            assert 0.0 <= estimate <= 1.0
            assert estimate == pytest.approx(1.0, abs=0.02)

    @given(
        edges_start=st.floats(min_value=-100, max_value=100, allow_nan=False),
        widths=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 30),
            elements=st.floats(min_value=0.01, max_value=10, allow_nan=False),
        ),
        counts_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_histogram1d_selectivity_additive(
        self, edges_start: float, widths: np.ndarray, counts_seed: int
    ) -> None:
        edges = edges_start + np.concatenate([[0.0], np.cumsum(widths)])
        counts = np.random.default_rng(counts_seed).integers(0, 100, size=widths.size).astype(float)
        histogram = Histogram1D(edges, counts)
        low, high = float(edges[0]), float(edges[-1])
        mid = (low + high) / 2
        left = histogram.selectivity(low, mid)
        right = histogram.selectivity(mid, high)
        total = histogram.selectivity(low, high)
        if counts.sum() > 0:
            assert left + right == pytest.approx(total, abs=1e-6)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestWaveletProperties:
    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.sampled_from([2, 4, 8, 16, 32, 64]),
            elements=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_haar_round_trip_and_energy(self, values: np.ndarray) -> None:
        transformed = haar_transform(values)
        np.testing.assert_allclose(inverse_haar_transform(transformed), values, atol=1e-6)
        assert np.sum(values**2) == pytest.approx(np.sum(transformed**2), rel=1e-6, abs=1e-6)

    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.sampled_from([8, 16, 32]),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        k=st.integers(0, 32),
    )
    @settings(max_examples=80, deadline=None)
    def test_top_k_keeps_at_most_k_nonzero(self, values: np.ndarray, k: int) -> None:
        kept = top_k_coefficients(values, k)
        assert np.count_nonzero(kept) <= k
        assert np.all(np.isin(kept[kept != 0], values))


class TestEstimatorInvariants:
    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.integers(20, 300),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        low=st.floats(min_value=-60, max_value=60, allow_nan=False),
        width=st.floats(min_value=0, max_value=120, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kde_estimates_always_valid(self, values: np.ndarray, low: float, width: float) -> None:
        table = Table("t", {"x": values})
        estimator = KDESelectivityEstimator(sample_size=64, seed=0).fit(table)
        estimate = estimator.estimate(RangeQuery({"x": (low, low + width)}))
        assert 0.0 <= estimate <= 1.0
        assert np.isfinite(estimate)

    @given(
        values=npst.arrays(
            dtype=np.float64,
            shape=st.integers(10, 400),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        max_kernels=st.integers(2, 32),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_streaming_ade_budget_and_weight_conservation(
        self, values: np.ndarray, max_kernels: int
    ) -> None:
        estimator = StreamingADE(max_kernels=max_kernels).start(["x"])
        estimator.insert(values.reshape(-1, 1))
        assert estimator.kernel_count <= max_kernels
        assert estimator.effective_count == pytest.approx(values.size, rel=1e-9)
        low, high = float(values.min()), float(values.max())
        estimate = estimator.estimate(RangeQuery({"x": (low - 1, high + 1)}))
        assert 0.0 <= estimate <= 1.0

    @given(values=bounded_arrays)
    @settings(max_examples=60, deadline=None)
    def test_scott_bandwidth_positive_and_shift_invariant(self, values: np.ndarray) -> None:
        h = scott_bandwidth(values)
        assert h > 0
        assert np.isfinite(h)
        assume(float(np.std(values)) > 1e-6)  # constant columns fall back to a tiny floor
        shifted = scott_bandwidth(values + 37.0)
        assert shifted == pytest.approx(h, rel=1e-4)

    @given(
        density=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 200),
            elements=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        ),
        sensitivity=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_local_factors_bounded(self, density: np.ndarray, sensitivity: float) -> None:
        factors = local_bandwidth_factors(density, sensitivity, max_factor=4.0)
        assert np.all(factors <= 4.0 + 1e-9)
        assert np.all(factors >= 0.25 - 1e-9)


#: Constructor overrides keeping per-fit cost small (the sizes
#: ``tests/core/test_batch_api.py`` fits the registry with).
_FAST_KWARGS: dict[str, dict] = {
    "kde": {"sample_size": 200},
    "adaptive_kde": {"sample_size": 200},
    "sampling": {"sample_size": 200},
    "reservoir_sampling": {"sample_size": 200},
    "streaming_ade": {"max_kernels": 32},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 6},
    "wavelet": {"resolution": 64, "coefficients": 16},
}

ALL_ESTIMATORS = available_estimators()
STREAMING_ESTIMATORS = [
    name
    for name in ALL_ESTIMATORS
    if isinstance(create_estimator(name, **_FAST_KWARGS.get(name, {})), StreamingEstimator)
]


def _fit(name: str, table: Table) -> SelectivityEstimator:
    return create_estimator(name, **_FAST_KWARGS.get(name, {})).fit(table)


@pytest.fixture(scope="module")
def invariant_table() -> Table:
    return gaussian_mixture_table(rows=3000, dimensions=2, seed=3)


@pytest.fixture(scope="module")
def edge_plan(invariant_table: Table) -> CompiledQueries:
    """Boxes at and past the domain edges of ``invariant_table``."""
    columns = tuple(invariant_table.column_names)
    domain = invariant_table.domain()
    lo = np.array([domain[c][0] for c in columns], dtype=float)
    hi = np.array([domain[c][1] for c in columns], dtype=float)
    mid, span = (lo + hi) / 2, hi - lo
    inf = np.full(len(columns), np.inf)
    boxes = [
        (lo, lo),  # a point at the domain minimum
        (-inf, mid),  # one-sided in every attribute
        (mid, inf),
        (hi + span, hi + 2 * span),  # beyond the domain
        (lo - 2 * span, lo - span),
        (lo, hi),  # the full domain
        (-inf, inf),  # unbounded
    ]
    for d in range(len(columns)):  # one-sided in one attribute, open elsewhere
        high = inf.copy()
        high[d] = mid[d]
        boxes.append((-inf, high))
        low = -inf.copy()
        low[d] = mid[d]
        boxes.append((low, inf))
    lows, highs = zip(*boxes)
    return CompiledQueries(columns, np.array(lows), np.array(highs))


@pytest.fixture(scope="module")
def mixed_plan(invariant_table: Table, edge_plan: CompiledQueries) -> CompiledQueries:
    """A uniform workload followed by the edge boxes, as one plan."""
    queries = UniformWorkload(invariant_table, volume_fraction=0.3, seed=9).generate(40)
    plan = compile_queries(queries, edge_plan.columns)
    return CompiledQueries(
        plan.columns,
        np.vstack([plan.lows, edge_plan.lows]),
        np.vstack([plan.highs, edge_plan.highs]),
    )


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
class TestRegistryInvariants:
    """Invariants every registered estimator keeps, on one 2-D table."""

    def test_edge_boxes_read_finite_fractions(self, name, invariant_table, edge_plan) -> None:
        estimates = _fit(name, invariant_table).estimate_batch(edge_plan)
        assert estimates.shape == (len(edge_plan),)
        assert np.all(np.isfinite(estimates))
        assert np.all((estimates >= 0.0) & (estimates <= 1.0)), estimates

    def test_unbounded_box_reads_one(self, name, invariant_table) -> None:
        columns = tuple(invariant_table.column_names)
        everything = CompiledQueries(
            columns, np.full((1, len(columns)), -np.inf), np.full((1, len(columns)), np.inf)
        )
        estimate = _fit(name, invariant_table).estimate_batch(everything)[0]
        assert estimate == pytest.approx(1.0, abs=1e-6)

    def test_permuted_plan_permutes_answers(self, name, invariant_table, mixed_plan) -> None:
        estimator = _fit(name, invariant_table)
        answers = estimator.estimate_batch(mixed_plan)
        order = np.random.default_rng(5).permutation(len(mixed_plan))
        permuted = CompiledQueries(
            mixed_plan.columns, mixed_plan.lows[order], mixed_plan.highs[order]
        )
        np.testing.assert_allclose(
            estimator.estimate_batch(permuted), answers[order], rtol=0.0, atol=DEFAULT_ATOL
        )

    def test_refit_reproduces_answers_bitwise(self, name, invariant_table, mixed_plan) -> None:
        first = _fit(name, invariant_table).estimate_batch(mixed_plan)
        second = _fit(name, invariant_table).estimate_batch(mixed_plan)
        np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("name", STREAMING_ESTIMATORS)
class TestStreamingRegistryInvariants:
    """Invariants every registered streaming estimator keeps on insert."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_insert_is_refused_and_changes_nothing(
        self, name, bad, invariant_table, mixed_plan
    ) -> None:
        estimator = _fit(name, invariant_table)
        rows, answers = estimator.row_count, estimator.estimate_batch(mixed_plan)
        batch = np.random.default_rng(6).normal(size=(8, len(estimator.columns)))
        batch[5, 1] = bad
        with pytest.raises(ReproError):
            estimator.insert(batch)
        assert estimator.row_count == rows
        np.testing.assert_array_equal(estimator.estimate_batch(mixed_plan), answers)


class TestStreamSubstrateProperties:
    @given(
        capacity=st.integers(1, 50),
        stream_length=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_reservoir_never_exceeds_capacity(self, capacity: int, stream_length: int) -> None:
        sampler = ReservoirSampler(capacity, 1, seed=0)
        if stream_length:
            sampler.insert(np.arange(stream_length, dtype=float).reshape(-1, 1))
        assert sampler.size == min(capacity, stream_length)
        assert sampler.seen == stream_length


class TestMetricProperties:
    @given(
        estimates=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 100),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_q_error_at_least_one_and_symmetric(self, estimates: np.ndarray, seed: int) -> None:
        truths = np.random.default_rng(seed).uniform(0, 1, size=estimates.size)
        forward = q_errors(estimates, truths)
        backward = q_errors(truths, estimates)
        assert np.all(forward >= 1.0 - 1e-12)
        np.testing.assert_allclose(forward, backward, rtol=1e-9)

    @given(
        estimates=npst.arrays(
            dtype=np.float64,
            shape=st.integers(1, 100),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_relative_error_zero_iff_exact(self, estimates: np.ndarray) -> None:
        errors = relative_errors(estimates, estimates)
        np.testing.assert_allclose(errors, 0.0, atol=1e-12)
