"""repro — adaptive density estimation for selectivity estimation.

A reproduction of the VLDB 2006 paper *Adaptive Density Estimation* as an
open-source Python library: kernel-density selectivity estimators (batch,
sample-point adaptive, streaming with bounded memory, and query-feedback
self-tuning) together with the classical synopsis baselines (equi-width /
equi-depth histograms, multi-dimensional grids, samples, Haar wavelets,
self-tuning histograms), the data/workload/engine substrates needed to
evaluate them, and a benchmark harness that regenerates every table and
figure of the (reconstructed) evaluation.

The estimator API is *batch first*: a workload is compiled once into a
:class:`~repro.workload.queries.CompiledQueries` plan and every synopsis
answers the whole batch with vectorized numpy operations via
``estimate_batch``; the scalar ``estimate(query)`` is sugar over a one-row
batch.

Quickstart
----------
>>> from repro import (
...     gaussian_mixture_table, AdaptiveKDEEstimator, UniformWorkload,
...     compile_queries,
... )
>>> table = gaussian_mixture_table(rows=20_000, dimensions=2, seed=7)
>>> estimator = AdaptiveKDEEstimator(sample_size=512).fit(table)
>>> queries = UniformWorkload(table, seed=1).generate(100)
>>> plan = compile_queries(queries, estimator.columns)   # compile once ...
>>> estimates = estimator.estimate_batch(plan)           # ... estimate in bulk
>>> truths = table.true_selectivities(plan)              # vectorized ground truth
>>> estimates.shape == truths.shape == (100,)
True
>>> bool((estimates >= 0.0).all() and (estimates <= 1.0).all())
True

Durability is on by default: snapshots written through ``save_estimator`` /
:class:`ModelStore` carry a content checksum that loads verify (corrupt
versions are quarantined and the store rolls back to the newest intact one),
and streaming ingest can be made crash-safe by wrapping the estimator in
:class:`~repro.persist.JournaledIngest` over an
:class:`~repro.persist.IngestJournal` (fsync'd write-ahead journal; replay
after a crash reproduces the pre-crash model bitwise).  All failure paths are
testable deterministically through :mod:`repro.fault`.
"""

from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.bandwidth import (
    lscv_bandwidth,
    mlcv_bandwidth,
    scott_bandwidth,
    select_bandwidth,
    silverman_bandwidth,
)
from repro.core.errors import (
    BudgetError,
    CatalogError,
    CircuitOpenError,
    DimensionMismatchError,
    InjectedFault,
    InvalidParameterError,
    InvalidQueryError,
    NotFittedError,
    PersistenceError,
    ReproError,
    SchemaError,
    SnapshotCorruptError,
    StreamError,
)
from repro.core.estimator import (
    FeedbackEstimator,
    SelectivityEstimator,
    StreamingEstimator,
    available_estimators,
    create_estimator,
    estimator_from_config,
    register_estimator,
)
from repro.core.fastpath import (
    KernelSupportIndex,
    fastpath_disabled,
    fastpath_enabled,
)
from repro.core.feedback import FeedbackAdaptiveEstimator
from repro.core.kde import KDESelectivityEstimator
from repro.core.resolve import resolve_estimator
from repro.core.kernels import (
    BiweightKernel,
    EpanechnikovKernel,
    GaussianKernel,
    Kernel,
    TriangularKernel,
    UniformKernel,
    get_kernel,
)
from repro.core.streaming import StreamingADE
from repro.baselines.histogram import EquiDepthHistogram, EquiWidthHistogram, Histogram1D
from repro.baselines.independence import IndependenceEstimator
from repro.baselines.multidim import GridHistogram
from repro.baselines.sampling import ReservoirSamplingEstimator, SamplingEstimator
from repro.baselines.stholes import SelfTuningHistogram
from repro.baselines.wavelet import WaveletHistogram
from repro.data.generators import (
    clustered_table,
    correlated_table,
    gaussian_mixture_table,
    mixed_table,
    mixed_type_table,
    uniform_table,
    zipf_table,
)
from repro.data.streams import (
    DataStream,
    gradual_drift_stream,
    rotating_drift_stream,
    stationary_stream,
    sudden_drift_stream,
)
from repro.engine.catalog import Catalog
from repro.ensemble import (
    EnsembleEstimator,
    ExpertPool,
    WeightedExpert,
    WeightPolicy,
    create_policy,
)
from repro.engine.executor import EvaluationResult, Executor, evaluate_estimator
from repro.engine.optimizer import (
    JoinSpec,
    Optimizer,
    Plan,
    estimate_join_selectivity,
    exact_join_selectivity,
    plan_regret,
)
from repro.engine.table import ColumnKind, ColumnStats, Table, TableSchema
from repro.metrics.errors import (
    ErrorSummary,
    absolute_errors,
    evaluate_estimates,
    q_errors,
    relative_errors,
    summarize_errors,
)
from repro.metrics.report import render_series, render_table
from repro.fault import (
    FaultPlan,
    FaultRule,
    default_fault_plan,
    random_plan,
    set_default_fault_plan,
    use_fault_plan,
)
from repro.persist import (
    IngestJournal,
    JournaledIngest,
    ModelStore,
    ModelVersion,
    load_estimator,
    save_estimator,
    verify_snapshot,
)
from repro.obs import (
    CSVExporter,
    JSONExporter,
    JSONLExporter,
    LatencyHistogram,
    MetricsExporter,
    MetricsRegistry,
    TelemetryCollector,
    TimeSeriesStore,
    exporter_for_path,
    render_dashboard,
    set_default_metrics,
    use_default_metrics,
    write_dashboard,
)
from repro.serve import CircuitBreaker, EstimatorServer, ServerCacheInfo
from repro.shard import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    ShardedEstimator,
    ShardExecutor,
    make_partitioner,
    partition_table,
)
from repro.stream.reservoir import DecayedReservoirSampler, ReservoirSampler
from repro.traffic import (
    DEFAULT_TENANTS,
    TenantProfile,
    TrafficEvent,
    TrafficReport,
    TrafficSimulator,
)
from repro.workload.generators import (
    DataCenteredWorkload,
    SkewedWorkload,
    TypedWorkload,
    UniformWorkload,
    WorkloadGenerator,
)
from repro.workload.queries import (
    CompiledQueries,
    Interval,
    LoweredQueries,
    RangeQuery,
    SetMembership,
    StringPrefix,
    TypedQuery,
    compile_queries,
)

__version__ = "1.0.0"

__all__ = [
    # core estimators
    "SelectivityEstimator",
    "StreamingEstimator",
    "FeedbackEstimator",
    "KDESelectivityEstimator",
    "AdaptiveKDEEstimator",
    "StreamingADE",
    "FeedbackAdaptiveEstimator",
    "register_estimator",
    "create_estimator",
    "available_estimators",
    "estimator_from_config",
    "resolve_estimator",
    # expert ensemble
    "EnsembleEstimator",
    "ExpertPool",
    "WeightedExpert",
    "WeightPolicy",
    "create_policy",
    # query fast path
    "KernelSupportIndex",
    "fastpath_enabled",
    "fastpath_disabled",
    # kernels & bandwidths
    "Kernel",
    "GaussianKernel",
    "EpanechnikovKernel",
    "BiweightKernel",
    "TriangularKernel",
    "UniformKernel",
    "get_kernel",
    "scott_bandwidth",
    "silverman_bandwidth",
    "lscv_bandwidth",
    "mlcv_bandwidth",
    "select_bandwidth",
    # baselines
    "Histogram1D",
    "EquiWidthHistogram",
    "EquiDepthHistogram",
    "GridHistogram",
    "IndependenceEstimator",
    "SamplingEstimator",
    "ReservoirSamplingEstimator",
    "WaveletHistogram",
    "SelfTuningHistogram",
    # engine
    "Table",
    "TableSchema",
    "ColumnKind",
    "ColumnStats",
    "Catalog",
    "Executor",
    "EvaluationResult",
    "evaluate_estimator",
    "Optimizer",
    "JoinSpec",
    "Plan",
    "plan_regret",
    "estimate_join_selectivity",
    "exact_join_selectivity",
    # sharded estimation
    "ShardedEstimator",
    "ShardExecutor",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "RoundRobinPartitioner",
    "make_partitioner",
    "partition_table",
    # persistence & serving
    "ModelStore",
    "ModelVersion",
    "save_estimator",
    "load_estimator",
    "verify_snapshot",
    "IngestJournal",
    "JournaledIngest",
    "EstimatorServer",
    "ServerCacheInfo",
    "CircuitBreaker",
    # fault injection
    "FaultPlan",
    "FaultRule",
    "default_fault_plan",
    "set_default_fault_plan",
    "use_fault_plan",
    "random_plan",
    # observability & traffic
    "MetricsRegistry",
    "LatencyHistogram",
    "set_default_metrics",
    "use_default_metrics",
    "MetricsExporter",
    "JSONExporter",
    "JSONLExporter",
    "CSVExporter",
    "TelemetryCollector",
    "TimeSeriesStore",
    "exporter_for_path",
    "render_dashboard",
    "write_dashboard",
    "TrafficSimulator",
    "TenantProfile",
    "TrafficEvent",
    "TrafficReport",
    "DEFAULT_TENANTS",
    # data & workloads
    "uniform_table",
    "gaussian_mixture_table",
    "zipf_table",
    "correlated_table",
    "clustered_table",
    "mixed_table",
    "mixed_type_table",
    "DataStream",
    "stationary_stream",
    "sudden_drift_stream",
    "gradual_drift_stream",
    "rotating_drift_stream",
    "RangeQuery",
    "TypedQuery",
    "Interval",
    "SetMembership",
    "StringPrefix",
    "CompiledQueries",
    "LoweredQueries",
    "compile_queries",
    "WorkloadGenerator",
    "UniformWorkload",
    "DataCenteredWorkload",
    "SkewedWorkload",
    "TypedWorkload",
    # streams
    "ReservoirSampler",
    "DecayedReservoirSampler",
    # metrics
    "ErrorSummary",
    "absolute_errors",
    "relative_errors",
    "q_errors",
    "summarize_errors",
    "evaluate_estimates",
    "render_table",
    "render_series",
    # errors
    "ReproError",
    "NotFittedError",
    "DimensionMismatchError",
    "InvalidQueryError",
    "InvalidParameterError",
    "BudgetError",
    "CatalogError",
    "StreamError",
    "SchemaError",
    "PersistenceError",
    "SnapshotCorruptError",
    "InjectedFault",
    "CircuitOpenError",
]
