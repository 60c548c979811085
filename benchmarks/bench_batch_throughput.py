"""Batch-path throughput: vectorized ``estimate_batch`` vs. the scalar loop.

For every estimator of the standard line-up this benchmark measures
queries/sec of the compiled batch path against a per-query ``estimate()``
loop on the same 10k-query workload, and records the ``queries_per_second``
reported by :class:`~repro.engine.executor.EvaluationResult` (which times the
batch path).  The KDE estimator — the paper's synopsis, at its Fig. 3 space
budget — must gain at least 5× from batching.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.histogram import EquiDepthHistogram
from repro.baselines.independence import IndependenceEstimator
from repro.baselines.multidim import GridHistogram
from repro.baselines.sampling import SamplingEstimator
from repro.baselines.wavelet import WaveletHistogram
from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.engine.executor import evaluate_estimator
from repro.experiments.runner import TableResult
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

from report import bench_report


def batch_throughput(
    rows: int = 40_000,
    queries: int = 10_000,
    scalar_sample: int = 500,
    seed: int = 0,
) -> TableResult:
    """Queries/sec of the batch path vs. the scalar loop, per estimator.

    The scalar loop is timed on ``scalar_sample`` queries and extrapolated —
    at 10k queries the full loop would dominate the benchmark's runtime,
    which is exactly the point of the batch API.
    """
    table = gaussian_mixture_table(rows, dimensions=2, components=4, separation=4.0, seed=seed)
    workload = UniformWorkload(table, volume_fraction=0.1, seed=seed + 1).generate(queries)

    # KDE-family synopses at the Fig. 3 space budget (4096 bytes, d=2).
    estimators = [
        ("kde", KDESelectivityEstimator(sample_size=128)),
        ("adaptive_kde", AdaptiveKDEEstimator(sample_size=128)),
        ("streaming_ade", StreamingADE(max_kernels=128)),
        ("equidepth", EquiDepthHistogram(buckets=64)),
        ("wavelet", WaveletHistogram(resolution=256, coefficients=32)),
        ("sampling", SamplingEstimator(sample_size=512)),
        ("grid", GridHistogram(cells_per_dim=16)),
        ("independence", IndependenceEstimator()),
    ]

    result = TableResult(
        "Batch throughput: estimate_batch vs. scalar estimate() loop",
        ["estimator", "batch_qps", "scalar_qps", "speedup", "eval_qps"],
        [],
        notes=(
            f"{rows} rows, d=2, {queries} compiled queries; scalar loop timed on "
            f"{scalar_sample} queries and extrapolated; eval_qps is "
            "EvaluationResult.queries_per_second"
        ),
    )
    for label, estimator in estimators:
        estimator.fit(table)
        plan = compile_queries(workload, estimator.columns)
        estimator.estimate_batch(plan)  # warm-up (first call pays lazy setup)

        start = time.perf_counter()
        batch = estimator.estimate_batch(plan)
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        scalar = np.array([estimator.estimate(q) for q in workload[:scalar_sample]])
        scalar_seconds = (time.perf_counter() - start) * (queries / scalar_sample)

        np.testing.assert_allclose(batch[:scalar_sample], scalar, rtol=0.0, atol=1e-12)
        evaluation = evaluate_estimator(table, estimator, plan, name=label)
        result.rows.append(
            [
                label,
                queries / batch_seconds,
                queries / scalar_seconds,
                scalar_seconds / batch_seconds,
                evaluation.queries_per_second,
            ]
        )
    return result


def test_batch_throughput(report):
    with bench_report("batch_throughput") as rep:
        result = report(batch_throughput)
        speedups = dict(zip(result.column("estimator"), result.column("speedup")))
        batch_qps = dict(zip(result.column("estimator"), result.column("batch_qps")))
        for label in speedups:
            rep.metric(f"{label}_batch_qps", batch_qps[label])
            rep.metric(f"{label}_speedup_vs_scalar", speedups[label])
        # Every estimator must gain from batching; the KDE synopsis (the
        # paper's estimator, at its Fig. 3 budget) must gain at least 5x.
        for label, speedup in speedups.items():
            assert rep.gate(
                f"{label}_gains_from_batching",
                speedup > 1.0,
                detail=speedup,
                enforced=True,
            ), f"{label} lost throughput on the batch path"
        assert rep.gate(
            "kde_speedup_ge_5x",
            speedups["kde"] >= 5.0,
            detail=speedups["kde"],
            enforced=True,
        ), f"kde speedup {speedups['kde']:.1f}x < 5x"
        # The recorded EvaluationResult throughput is the batch path.
        eval_qps = dict(zip(result.column("estimator"), result.column("eval_qps")))
        for label, qps in eval_qps.items():
            assert qps > 0, label
