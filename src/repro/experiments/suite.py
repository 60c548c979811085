"""The reconstructed evaluation suite: one callable per table and figure.

Every function regenerates one table or figure of the evaluation (the layers
they exercise are mapped in ARCHITECTURE.md) and returns a
:class:`~repro.experiments.runner.TableResult` or
:class:`~repro.experiments.runner.SeriesResult`.  The benchmark modules under
``benchmarks/`` call these functions (scaled down via their keyword
arguments) and print the rendered output; their recorded runs are kept under
``benchmarks/results/``.

Experiment index
----------------
========  ====================================================================
table1    1-D accuracy of all estimators at equal space budget
table2    multi-dimensional accuracy (d = 2, 3, 4)
table3    build / estimation cost and memory footprint
table4    streaming maintenance cost vs. model budget
fig1      error vs. space budget
fig2      error vs. dimensionality
fig3      error vs. query volume (selectivity class)
fig4      error vs. data skew (Zipf exponent)
fig5      streaming adaptivity under concept drift
fig6      query-feedback convergence
fig7      bandwidth-selection ablation
fig8      optimizer impact (plan regret)
========  ====================================================================
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.baselines.histogram import EquiDepthHistogram, EquiWidthHistogram
from repro.baselines.independence import IndependenceEstimator
from repro.baselines.multidim import GridHistogram
from repro.baselines.sampling import ReservoirSamplingEstimator, SamplingEstimator
from repro.baselines.stholes import SelfTuningHistogram
from repro.baselines.wavelet import WaveletHistogram
from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.estimator import FLOAT_BYTES, SelectivityEstimator
from repro.core.feedback import FeedbackAdaptiveEstimator
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import (
    correlated_table,
    gaussian_mixture_table,
    uniform_table,
    zipf_table,
)
from repro.data.streams import sudden_drift_stream
from repro.engine.catalog import Catalog
from repro.engine.executor import evaluate_estimator
from repro.ensemble import EnsembleEstimator
from repro.engine.optimizer import JoinSpec, Optimizer, plan_regret
from repro.engine.table import Table
from repro.experiments.runner import (
    EstimatorSpec,
    SeriesResult,
    TableResult,
    extra_estimator_specs,
    fit_or_restore,
)
from repro.metrics.errors import integrated_squared_error
from repro.workload.generators import SkewedWorkload, UniformWorkload
from repro.workload.queries import Interval, RangeQuery

__all__ = [
    "table1_accuracy_1d",
    "table2_accuracy_multid",
    "table3_cost",
    "table4_stream_cost",
    "fig1_budget_sweep",
    "fig2_dimensionality",
    "fig3_query_volume",
    "fig4_skew",
    "fig5_drift",
    "fig6_feedback",
    "fig7_bandwidth_ablation",
    "fig8_optimizer_impact",
    "EXPERIMENTS",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# Budget-matched estimator configurations
# ---------------------------------------------------------------------------

def _budgeted_specs(budget_bytes: int, dimensions: int) -> list[EstimatorSpec]:
    """The standard estimator line-up, each configured to ≈ ``budget_bytes``.

    Space accounting (see each estimator's ``memory_bytes``):

    * KDE-family synopses store ``dimensions + 1`` floats per sample point
      (coordinates + weight) plus a handful of parameters.
    * histograms store 2 floats per bucket and per attribute,
    * the grid stores one float per cell,
    * the wavelet synopsis stores 2 floats per kept coefficient per attribute,
    * samples store ``dimensions`` floats per row.
    """
    budget_floats = max(budget_bytes // FLOAT_BYTES, 8)
    kde_points = max(budget_floats // (dimensions + 2), 4)
    sample_rows = max(budget_floats // dimensions, 4)
    buckets = max(budget_floats // (4 * dimensions), 4)
    coefficients = max(budget_floats // (2 * dimensions) // 2, 2)
    kernels = max(budget_floats // (2 * dimensions + 1), 4)
    # CLI --estimator overlay: opted-in registry estimators ride along with
    # default configurations (no budget matching — their rows are labelled by
    # registry name, so the comparison is explicit, not silent).
    extras = extra_estimator_specs()
    return [
        EstimatorSpec(
            "ade_adaptive",
            lambda n=kde_points: AdaptiveKDEEstimator(sample_size=n, bandwidth_rule="lscv"),
        ),
        EstimatorSpec(
            "ade_streaming",
            lambda k=kernels: StreamingADE(max_kernels=k),
        ),
        EstimatorSpec(
            "kde_fixed",
            lambda n=kde_points: KDESelectivityEstimator(sample_size=n),
        ),
        EstimatorSpec("equiwidth", lambda b=buckets: EquiWidthHistogram(buckets=b)),
        EstimatorSpec("equidepth", lambda b=buckets: EquiDepthHistogram(buckets=b)),
        EstimatorSpec(
            "wavelet", lambda c=coefficients: WaveletHistogram(resolution=512, coefficients=c)
        ),
        EstimatorSpec("sampling", lambda n=sample_rows: SamplingEstimator(sample_size=n)),
        EstimatorSpec(
            "grid", lambda b=budget_bytes: GridHistogram(budget_bytes=b)
        ),
        EstimatorSpec("independence", lambda: IndependenceEstimator()),
        *extras,
    ]


def _error_row(label: str, result) -> list[object]:
    summaries = result.summaries()
    return [
        label,
        summaries["relative"].mean,
        summaries["relative"].median,
        summaries["q"].mean,
        summaries["q"].p95,
        int(result.memory_bytes),
    ]


_ACCURACY_HEADERS = ["estimator", "rel_err_mean", "rel_err_median", "q_err_mean", "q_err_p95", "bytes"]


# ---------------------------------------------------------------------------
# Table 1 — 1-D accuracy
# ---------------------------------------------------------------------------

def table1_accuracy_1d(
    rows: int = 50_000,
    queries: int = 400,
    budget_bytes: int = 4096,
    seed: int = 0,
) -> TableResult:
    """Accuracy of every estimator on three 1-D data distributions."""
    datasets = {
        "uniform": uniform_table(rows, dimensions=1, seed=seed),
        "gaussian_mixture": gaussian_mixture_table(
            rows, dimensions=1, components=4, separation=4.0, seed=seed
        ),
        "zipf": zipf_table(rows, dimensions=1, theta=1.2, seed=seed),
    }
    result = TableResult(
        "Table 1: 1-D accuracy at equal space budget",
        ["dataset", *_ACCURACY_HEADERS],
        [],
        notes=f"{rows} rows, {queries} range queries per dataset, budget ≈ {budget_bytes} bytes",
    )
    for dataset_name, table in datasets.items():
        workload = UniformWorkload(table, volume_fraction=0.05, seed=seed + 1).generate(queries)
        for spec in _budgeted_specs(budget_bytes, dimensions=1):
            estimator = fit_or_restore(table, spec, scope=f"table1.{dataset_name}")
            evaluation = evaluate_estimator(table, estimator, workload, name=spec.label)
            result.rows.append([dataset_name, *_error_row(spec.label, evaluation)])
    return result


# ---------------------------------------------------------------------------
# Table 2 — multi-dimensional accuracy
# ---------------------------------------------------------------------------

def table2_accuracy_multid(
    rows: int = 40_000,
    queries: int = 300,
    budget_bytes: int = 8192,
    dimensions: Sequence[int] = (2, 3, 4),
    seed: int = 0,
) -> TableResult:
    """Accuracy on correlated multi-dimensional data for d = 2, 3, 4."""
    result = TableResult(
        "Table 2: multi-dimensional accuracy at equal space budget",
        ["dimensions", *_ACCURACY_HEADERS],
        [],
        notes=f"{rows} rows of correlated Gaussian data, {queries} queries per d, "
        f"budget ≈ {budget_bytes} bytes",
    )
    for d in dimensions:
        table = correlated_table(rows, dimensions=d, correlation=0.8, seed=seed)
        workload = UniformWorkload(table, volume_fraction=0.25, seed=seed + 1).generate(queries)
        for spec in _budgeted_specs(budget_bytes, dimensions=d):
            estimator = fit_or_restore(table, spec, scope=f"table2.d{d}")
            evaluation = evaluate_estimator(table, estimator, workload, name=spec.label)
            result.rows.append([d, *_error_row(spec.label, evaluation)])
    return result


# ---------------------------------------------------------------------------
# Table 3 — construction / estimation cost
# ---------------------------------------------------------------------------

def table3_cost(
    rows: int = 100_000,
    queries: int = 200,
    budget_bytes: int = 8192,
    dimensions: int = 3,
    seed: int = 0,
) -> TableResult:
    """Build time, estimation throughput and memory of every estimator."""
    table = gaussian_mixture_table(rows, dimensions=dimensions, components=5, seed=seed)
    workload = UniformWorkload(table, volume_fraction=0.2, seed=seed + 1).generate(queries)
    result = TableResult(
        "Table 3: construction and estimation cost",
        ["estimator", "build_seconds", "queries_per_second", "bytes", "rel_err_mean"],
        [],
        notes=f"{rows} rows, d={dimensions}, {queries} queries",
    )
    for spec in _budgeted_specs(budget_bytes, dimensions=dimensions):
        estimator = spec.build()
        start = time.perf_counter()
        estimator.fit(table)
        build_seconds = time.perf_counter() - start
        evaluation = evaluate_estimator(table, estimator, workload, name=spec.label)
        result.rows.append(
            [
                spec.label,
                build_seconds,
                evaluation.queries_per_second,
                int(evaluation.memory_bytes),
                evaluation.mean_relative_error(),
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Table 4 — streaming maintenance cost
# ---------------------------------------------------------------------------

def table4_stream_cost(
    stream_rows: int = 50_000,
    batch_size: int = 1000,
    budgets: Sequence[int] = (64, 128, 256, 512),
    queries: int = 100,
    seed: int = 0,
) -> TableResult:
    """Per-tuple maintenance cost and memory of the streaming synopses."""
    batches = max(stream_rows // batch_size, 1)
    stream = sudden_drift_stream(
        dimensions=2, batch_size=batch_size, batches=batches, drift_at=(0.5,), seed=seed
    )
    data = stream.materialize()
    table = Table.from_array("stream", data, stream.column_names)
    workload = UniformWorkload(table, volume_fraction=0.2, seed=seed + 1).generate(queries)

    result = TableResult(
        "Table 4: streaming maintenance cost vs. model budget",
        ["estimator", "budget", "tuples_per_second", "bytes", "rel_err_mean"],
        [],
        notes=f"{data.shape[0]} streamed tuples, d=2",
    )

    def run(label: str, estimator, budget: int) -> None:
        estimator.start(stream.column_names)
        start = time.perf_counter()
        for batch in stream:
            estimator.insert(batch)
        # Buffered ingestion work is maintenance cost: bill it here, not to
        # the estimation phase below.
        estimator.flush()
        elapsed = time.perf_counter() - start
        evaluation = evaluate_estimator(table, estimator, workload, name=label)
        result.rows.append(
            [
                label,
                budget,
                data.shape[0] / max(elapsed, 1e-9),
                int(estimator.memory_bytes()),
                evaluation.mean_relative_error(),
            ]
        )

    for budget in budgets:
        run("ade_streaming", StreamingADE(max_kernels=budget), budget)
        run("reservoir_sampling", ReservoirSamplingEstimator(sample_size=budget), budget)
    return result


# ---------------------------------------------------------------------------
# Fig. 1 — error vs. space budget
# ---------------------------------------------------------------------------

def fig1_budget_sweep(
    rows: int = 40_000,
    queries: int = 300,
    budgets: Sequence[int] = (512, 1024, 2048, 4096, 8192, 16384),
    seed: int = 0,
) -> SeriesResult:
    """Mean relative error of every estimator as the space budget grows (2-D data)."""
    table = gaussian_mixture_table(rows, dimensions=2, components=4, separation=4.0, seed=seed)
    workload = UniformWorkload(table, volume_fraction=0.15, seed=seed + 1).generate(queries)
    result = SeriesResult(
        "Fig. 1: error vs. space budget (2-D gaussian mixture)",
        "budget_bytes",
        list(budgets),
        notes=f"{rows} rows, {queries} queries; mean relative error",
    )
    for budget in budgets:
        for spec in _budgeted_specs(budget, dimensions=2):
            estimator = fit_or_restore(table, spec, scope=f"fig1.b{budget}")
            evaluation = evaluate_estimator(table, estimator, workload, name=spec.label)
            result.add_point(spec.label, evaluation.mean_relative_error())
    return result


# ---------------------------------------------------------------------------
# Fig. 2 — error vs. dimensionality
# ---------------------------------------------------------------------------

def fig2_dimensionality(
    rows: int = 30_000,
    queries: int = 200,
    budget_bytes: int = 8192,
    max_dimensions: int = 5,
    seed: int = 0,
) -> SeriesResult:
    """Error growth with dimensionality at a fixed space budget."""
    labels = ["ade_adaptive", "ade_streaming", "grid", "equidepth", "sampling", "independence"]
    result = SeriesResult(
        "Fig. 2: error vs. dimensionality (correlated data)",
        "dimensions",
        list(range(1, max_dimensions + 1)),
        notes=f"{rows} rows, correlation 0.8, budget ≈ {budget_bytes} bytes; mean relative error",
    )
    for d in range(1, max_dimensions + 1):
        if d == 1:
            table = gaussian_mixture_table(rows, dimensions=1, components=3, seed=seed)
        else:
            table = correlated_table(rows, dimensions=d, correlation=0.8, seed=seed)
        workload = UniformWorkload(table, volume_fraction=0.3, seed=seed + 1).generate(queries)
        specs = {s.label: s for s in _budgeted_specs(budget_bytes, dimensions=d)}
        for label in labels:
            estimator = fit_or_restore(table, specs[label], scope=f"fig2.d{d}")
            evaluation = evaluate_estimator(table, estimator, workload, name=label)
            result.add_point(label, evaluation.mean_relative_error())
    return result


# ---------------------------------------------------------------------------
# Fig. 3 — error vs. query volume
# ---------------------------------------------------------------------------

def fig3_query_volume(
    rows: int = 40_000,
    queries: int = 200,
    budget_bytes: int = 4096,
    volumes: Sequence[float] = (0.001, 0.005, 0.02, 0.05, 0.1, 0.2),
    seed: int = 0,
) -> SeriesResult:
    """Error as a function of the queried volume (selectivity class), 2-D data."""
    table = gaussian_mixture_table(rows, dimensions=2, components=4, separation=4.0, seed=seed)
    labels = ["ade_adaptive", "ade_streaming", "equidepth", "sampling", "grid"]
    result = SeriesResult(
        "Fig. 3: error vs. query volume (2-D gaussian mixture)",
        "volume_fraction",
        list(volumes),
        notes=f"{rows} rows, {queries} data-centred queries per volume class; mean q-error",
    )
    specs = {s.label: s for s in _budgeted_specs(budget_bytes, dimensions=2)}
    fitted: dict[str, SelectivityEstimator] = {}
    for label in labels:
        fitted[label] = fit_or_restore(table, specs[label], scope="fig3")
    for volume in volumes:
        workload = UniformWorkload(
            table, volume_fraction=volume, seed=seed + 1
        ).generate(queries)
        for label in labels:
            evaluation = evaluate_estimator(table, fitted[label], workload, name=label)
            result.add_point(label, evaluation.mean_q_error())
    return result


# ---------------------------------------------------------------------------
# Fig. 4 — error vs. data skew
# ---------------------------------------------------------------------------

def fig4_skew(
    rows: int = 40_000,
    queries: int = 300,
    budget_bytes: int = 4096,
    thetas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
    seed: int = 0,
) -> SeriesResult:
    """Error as the Zipf skew of a 1-D attribute grows."""
    labels = ["ade_adaptive", "ade_streaming", "kde_fixed", "equiwidth", "equidepth", "sampling"]
    result = SeriesResult(
        "Fig. 4: error vs. data skew (1-D Zipf)",
        "zipf_theta",
        list(thetas),
        notes=f"{rows} rows, {queries} queries per skew level; mean q-error",
    )
    for theta in thetas:
        table = zipf_table(rows, dimensions=1, theta=theta, seed=seed)
        workload = UniformWorkload(table, volume_fraction=0.02, seed=seed + 1).generate(queries)
        specs = {s.label: s for s in _budgeted_specs(budget_bytes, dimensions=1)}
        for label in labels:
            estimator = fit_or_restore(table, specs[label], scope=f"fig4.theta{theta}")
            evaluation = evaluate_estimator(table, estimator, workload, name=label)
            result.add_point(label, evaluation.mean_q_error())
    return result


# ---------------------------------------------------------------------------
# Fig. 5 — streaming adaptivity under drift
# ---------------------------------------------------------------------------

def fig5_drift(
    batches: int = 60,
    batch_size: int = 500,
    queries: int = 60,
    budget: int = 256,
    reference_window: int = 4000,
    evaluate_every: int = 5,
    seed: int = 0,
) -> SeriesResult:
    """Error over time under sudden drift: adaptive vs. static synopses.

    Ground truth at each evaluation point is computed from a sliding window of
    the most recent ``reference_window`` tuples — the distribution a query
    arriving *now* actually sees.
    """
    stream = sudden_drift_stream(
        dimensions=1, batch_size=batch_size, batches=batches, drift_at=(0.5,), shift=10.0, seed=seed
    )
    columns = stream.column_names

    # Decay chosen so the model's memory half-life matches the reference
    # window: what the model represents is what the evaluation compares against.
    adaptive = StreamingADE(max_kernels=budget, decay=0.5 ** (1.0 / reference_window))
    landmark = StreamingADE(max_kernels=budget, decay=1.0)
    decayed_sample = ReservoirSamplingEstimator(sample_size=budget, decay=True)
    uniform_sample = ReservoirSamplingEstimator(sample_size=budget, decay=False)
    # The drift-adaptive ensemble holds one expert per adaptation speed and
    # reweights them from the same evaluation feedback the figure reports —
    # it should track whichever expert the current drift phase favours.
    ensemble = EnsembleEstimator(
        experts=[
            {
                "name": "streaming_ade",
                "max_kernels": budget,
                "decay": 0.5 ** (1.0 / reference_window),
            },
            {"name": "streaming_ade", "max_kernels": budget, "decay": 1.0},
            {"name": "reservoir_sampling", "sample_size": budget, "decay": True},
        ],
        seed=seed,
    )
    ensemble.start(columns)
    for estimator in (adaptive, landmark, decayed_sample, uniform_sample):
        estimator.start(columns)
    static: KDESelectivityEstimator | None = None

    result = SeriesResult(
        "Fig. 5: streaming adaptivity under sudden drift (1-D)",
        "batch",
        [],
        notes=(
            f"{batches} batches of {batch_size} tuples, drift at batch {batches // 2}; "
            f"mean relative error against the last {reference_window} tuples"
        ),
    )
    window_rows: list[np.ndarray] = []
    rng = np.random.default_rng(seed + 7)

    for index, batch in enumerate(stream):
        for estimator in (adaptive, landmark, decayed_sample, uniform_sample, ensemble):
            estimator.insert(batch)
        window_rows.append(batch)
        recent = np.vstack(window_rows)[-reference_window:]
        if static is None and (index + 1) * batch_size >= reference_window:
            # The static synopsis is built once, from the pre-drift data only.
            static = KDESelectivityEstimator(sample_size=budget)
            static.fit(Table.from_array("static", recent, columns))
        if index % evaluate_every != 0 or static is None:
            continue
        reference = Table.from_array("reference", recent, columns)
        workload = UniformWorkload(
            reference, volume_fraction=0.1, seed=int(rng.integers(0, 2**31))
        ).generate(queries)
        result.x_values.append(index)
        for label, estimator in (
            ("ade_decayed", adaptive),
            ("ade_landmark", landmark),
            ("reservoir_decayed", decayed_sample),
            ("reservoir_uniform", uniform_sample),
            ("static_kde", static),
            ("ensemble", ensemble),
        ):
            evaluation = evaluate_estimator(reference, estimator, workload, name=label)
            result.add_point(label, evaluation.mean_relative_error())
        # Feedback strictly *after* this evaluation point: the ensemble is
        # scored on the same footing as the other synopses, then learns.
        ensemble.observe(workload, reference.true_selectivities(workload))
    return result


# ---------------------------------------------------------------------------
# Fig. 6 — query-feedback convergence
# ---------------------------------------------------------------------------

def fig6_feedback(
    rows: int = 30_000,
    feedback_steps: Sequence[int] = (0, 25, 50, 100, 200, 400),
    holdout_queries: int = 150,
    seed: int = 0,
) -> SeriesResult:
    """Error on a hot workload region as feedback observations accumulate."""
    table = gaussian_mixture_table(rows, dimensions=2, components=4, separation=4.0, seed=seed)
    hot = SkewedWorkload(
        table, volume_fraction=0.1, hot_fraction=0.25, hot_probability=0.95, seed=seed + 1
    )
    feedback_queries = hot.generate(max(feedback_steps))
    holdout = SkewedWorkload(
        table, volume_fraction=0.1, hot_fraction=0.25, hot_probability=0.95, seed=seed + 2
    ).generate(holdout_queries)

    feedback_ade = FeedbackAdaptiveEstimator(
        base=KDESelectivityEstimator(sample_size=256), max_regions=512
    )
    feedback_ade.fit(table)
    st_histogram = SelfTuningHistogram(cells_per_dim=12, learning_rate=0.5)
    st_histogram.fit(table)
    static_base = KDESelectivityEstimator(sample_size=256)
    static_base.fit(table)

    result = SeriesResult(
        "Fig. 6: query-feedback convergence (hot-region workload)",
        "feedback_queries",
        list(feedback_steps),
        notes=f"{rows} rows, 2-D; mean q-error on a {holdout_queries}-query hold-out workload",
    )
    # Ground truth for the whole feedback stream in one vectorized scan; the
    # feedback loop itself stays sequential (each observation must be applied
    # before the next estimate).
    feedback_truths = table.true_selectivities(feedback_queries)
    applied = 0
    for step in feedback_steps:
        while applied < step:
            query = feedback_queries[applied]
            truth = float(feedback_truths[applied])
            feedback_ade.feedback(query, truth)
            st_histogram.feedback(query, truth)
            applied += 1
        for label, estimator in (
            ("feedback_ade", feedback_ade),
            ("st_histogram", st_histogram),
            ("static_kde", static_base),
        ):
            evaluation = evaluate_estimator(table, estimator, holdout, name=label)
            result.add_point(label, evaluation.mean_q_error())
    return result


# ---------------------------------------------------------------------------
# Fig. 7 — bandwidth-selection ablation
# ---------------------------------------------------------------------------

def fig7_bandwidth_ablation(
    rows: int = 20_000,
    queries: int = 300,
    sample_size: int = 512,
    seed: int = 0,
) -> TableResult:
    """Rule-of-thumb vs. cross-validated vs. adaptive bandwidths (1-D mixture).

    Reports both range-selectivity error and the integrated squared error of
    the density itself (the generating mixture is known analytically).
    """
    components = 4
    separation = 4.0
    table = gaussian_mixture_table(
        rows, dimensions=1, components=components, separation=separation, seed=seed
    )
    workload = UniformWorkload(table, volume_fraction=0.05, seed=seed + 1).generate(queries)

    values = table.column("x0")
    grid = np.linspace(float(values.min()), float(values.max()), 512)
    grid_step = float(grid[1] - grid[0])
    histogram_density, _ = np.histogram(values, bins=512, range=(grid[0], grid[-1]), density=True)

    configurations: list[tuple[str, Callable[[], KDESelectivityEstimator]]] = [
        ("scott", lambda: KDESelectivityEstimator(sample_size=sample_size, bandwidth_rule="scott")),
        (
            "silverman",
            lambda: KDESelectivityEstimator(sample_size=sample_size, bandwidth_rule="silverman"),
        ),
        ("lscv", lambda: KDESelectivityEstimator(sample_size=sample_size, bandwidth_rule="lscv")),
        ("mlcv", lambda: KDESelectivityEstimator(sample_size=sample_size, bandwidth_rule="mlcv")),
        (
            "adaptive_scott",
            lambda: AdaptiveKDEEstimator(sample_size=sample_size, bandwidth_rule="scott"),
        ),
        (
            "adaptive_lscv",
            lambda: AdaptiveKDEEstimator(sample_size=sample_size, bandwidth_rule="lscv"),
        ),
    ]
    result = TableResult(
        "Fig. 7: bandwidth-selection ablation (1-D gaussian mixture)",
        ["rule", "bandwidth", "rel_err_mean", "q_err_mean", "density_ise"],
        [],
        notes=f"{rows} rows, sample={sample_size}, {queries} queries; ISE against an "
        "empirical fine-grained histogram of the data",
    )
    for label, build in configurations:
        estimator = build()
        estimator.fit(table)
        evaluation = evaluate_estimator(table, estimator, workload, name=label)
        density = estimator.density(grid.reshape(-1, 1))
        ise = integrated_squared_error(density, histogram_density, grid_step)
        result.rows.append(
            [
                label,
                float(estimator.bandwidths[0]),
                evaluation.mean_relative_error(),
                evaluation.mean_q_error(),
                ise,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 8 — optimizer impact
# ---------------------------------------------------------------------------

def fig8_optimizer_impact(
    fact_rows: int = 60_000,
    dimension_rows: int = 8_000,
    trials: int = 20,
    seed: int = 0,
) -> TableResult:
    """Join-order quality (plan regret) under different selectivity estimators.

    A three-table star schema is optimized with exhaustive left-deep
    enumeration; the only thing that differs between rows of the table is the
    synopsis used for the local range predicates.
    """
    rng = np.random.default_rng(seed)
    fact = gaussian_mixture_table(
        fact_rows, dimensions=2, components=5, separation=4.0, seed=seed, name="fact",
        column_names=["amount", "quantity"],
    )
    customers = zipf_table(
        dimension_rows, dimensions=1, theta=1.1, seed=seed + 1, name="customers",
        column_names=["age"],
    )
    products = correlated_table(
        dimension_rows, dimensions=2, correlation=0.7, seed=seed + 2, name="products",
        column_names=["price", "weight"],
    )

    estimator_factories: dict[str, Callable[[], SelectivityEstimator]] = {
        "true_selectivity": lambda: None,  # type: ignore[return-value]
        "ade_adaptive": lambda: AdaptiveKDEEstimator(sample_size=512, bandwidth_rule="lscv"),
        "equidepth": lambda: EquiDepthHistogram(buckets=32),
        "independence": lambda: IndependenceEstimator(),
    }

    result = TableResult(
        "Fig. 8: optimizer impact (three-table star join)",
        ["estimator", "mean_plan_regret", "max_plan_regret", "optimal_plan_rate"],
        [],
        notes=f"{trials} random filter combinations; regret = true cost of chosen plan / "
        "true cost of optimal plan",
    )

    # Pre-generate the per-trial filters so every estimator sees the same queries.
    specs = []
    for _ in range(trials):
        filters = {
            "fact": _random_filter(fact, ["amount"], rng, volume=0.2),
            "customers": _random_filter(customers, ["age"], rng, volume=0.15),
            "products": _random_filter(products, ["price"], rng, volume=0.25),
        }
        join_selectivities = {
            frozenset(("fact", "customers")): 1.0 / dimension_rows,
            frozenset(("fact", "products")): 1.0 / dimension_rows,
            frozenset(("customers", "products")): 1.0,
        }
        specs.append(
            JoinSpec(("fact", "customers", "products"), filters, join_selectivities)
        )

    for label, factory in estimator_factories.items():
        catalog = Catalog()
        for table in (fact, customers, products):
            catalog.add_table(table)
            if label != "true_selectivity":
                catalog.attach_estimator(table.name, factory())
        optimizer = Optimizer(catalog)
        regrets = [plan_regret(optimizer, spec) for spec in specs]
        optimal_rate = float(np.mean([r <= 1.0 + 1e-9 for r in regrets]))
        result.rows.append([label, float(np.mean(regrets)), float(np.max(regrets)), optimal_rate])
    return result


def _random_filter(
    table: Table, columns: Sequence[str], rng: np.random.Generator, volume: float
) -> RangeQuery:
    """A random range predicate covering roughly ``volume`` of each column's domain."""
    constraints = {}
    domain = table.domain(columns)
    for column in columns:
        low, high = domain[column]
        width = (high - low) * volume
        center = rng.uniform(low, high)
        constraints[column] = Interval(center - width / 2.0, center + width / 2.0)
    return RangeQuery(constraints)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., TableResult | SeriesResult]] = {
    "table1": table1_accuracy_1d,
    "table2": table2_accuracy_multid,
    "table3": table3_cost,
    "table4": table4_stream_cost,
    "fig1": fig1_budget_sweep,
    "fig2": fig2_dimensionality,
    "fig3": fig3_query_volume,
    "fig4": fig4_skew,
    "fig5": fig5_drift,
    "fig6": fig6_feedback,
    "fig7": fig7_bandwidth_ablation,
    "fig8": fig8_optimizer_impact,
}


def run_experiment(name: str, **kwargs: object) -> TableResult | SeriesResult:
    """Run one experiment by id (``table1`` … ``fig8``) with optional overrides."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](**kwargs)  # type: ignore[arg-type]
