"""Query fast path: support-culled ``estimate_batch`` vs. the dense path.

The query-side fast path (:mod:`repro.core.fastpath`) must answer a
*selective* workload — small boxes over a fine-grained synopsis, the regime
the paper's cheap-synopsis promise lives in — at least **5x** faster than
the dense reference path, while deviating from it by at most **1e-9**
(the design budget is 1e-12; measured deviations are ~1e-16).  The dense
path stays reachable through :func:`repro.core.fastpath.fastpath_disabled`,
which is exactly how this benchmark times it.

Covered estimators: fixed KDE (explicit fine bandwidths), adaptive KDE, and
the streaming ADE at a production-sized kernel budget.  A wide (full-domain)
workload is reported alongside to show the fast path degrades gracefully —
it must never be slower than 0.8x dense there.  The 1-query miss, the request
an optimizer sends one predicate at a time, is recorded per estimator as
``<label>_one_box_p50_us``: the median latency of the first 500 selective
boxes, each sent as its own 1-row plan (no gate).

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration; the
speedup gates are skipped there (shared CI hardware) but the deviation gate
— pure numerics — must hold anywhere.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.fastpath import fastpath_disabled
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import uniform_table
from repro.experiments.runner import TableResult
from repro.workload.generators import UniformWorkload
from repro.workload.queries import CompiledQueries, compile_queries

from report import SMOKE, bench_report


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _one_box_p50_us(estimator, plan: CompiledQueries, boxes: int = 500) -> float:
    """Median latency (µs) of the plan's first ``boxes`` boxes as 1-row plans."""
    samples = []
    for row in range(min(boxes, len(plan))):
        single = CompiledQueries(plan.columns, plan.lows[row : row + 1], plan.highs[row : row + 1])
        start = time.perf_counter()
        estimator.estimate_batch(single)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e6


def fastpath_speedup(
    rows: int = 30_000,
    kernels: int = 2_048,
    queries: int = 4_000,
    volume_fraction: float = 0.001,
    repeats: int = 3,
    seed: int = 0,
) -> TableResult:
    """Fast vs. dense `estimate_batch` wall time and max deviation per estimator.

    The selective workload draws ``queries`` boxes of ``volume_fraction`` of
    the domain volume; the KDE estimators use explicit fine bandwidths (1% of
    the domain width) so the synopsis actually resolves structure at the
    query scale — the regime support culling exists for.
    """
    table = uniform_table(rows=rows, dimensions=2, seed=seed)
    selective = UniformWorkload(
        table, volume_fraction=volume_fraction, seed=seed + 1
    ).generate(queries)
    selective_plan = compile_queries(selective, table.column_names)
    wide = UniformWorkload(table, volume_fraction=0.9, seed=seed + 2).generate(
        max(queries // 8, 16)
    )
    wide_plan = compile_queries(wide, table.column_names)

    bandwidths = [0.01, 0.01]
    estimators = [
        ("kde", KDESelectivityEstimator(sample_size=kernels, bandwidths=bandwidths)),
        (
            "adaptive_kde",
            AdaptiveKDEEstimator(sample_size=kernels, bandwidths=bandwidths),
        ),
        ("streaming_ade", StreamingADE(max_kernels=max(kernels // 2, 64))),
    ]

    result = TableResult(
        "Query fast path: support-culled vs. dense estimate_batch",
        [
            "estimator",
            "workload",
            "fast_qps",
            "dense_qps",
            "speedup",
            "max_abs_deviation",
            "one_box_p50_us",
        ],
        [],
        notes=(
            f"{rows} rows, d=2, {kernels}-kernel synopses; selective workload: "
            f"{queries} boxes at volume fraction {volume_fraction}; wide workload: "
            f"{len(wide_plan)} near-full-domain boxes; best of {repeats} runs; "
            "one_box_p50_us: median over the first 500 selective boxes, each "
            "sent as its own 1-row plan"
        ),
    )
    for label, estimator in estimators:
        estimator.fit(table)
        for workload_label, plan in (("selective", selective_plan), ("wide", wide_plan)):
            estimator.estimate_batch(plan)  # warm-up: builds the support index
            fast_seconds = _best_of(lambda: estimator.estimate_batch(plan), repeats)
            fast = estimator.estimate_batch(plan)
            with fastpath_disabled():
                estimator.estimate_batch(plan)
                dense_seconds = _best_of(
                    lambda: estimator.estimate_batch(plan), repeats
                )
                dense = estimator.estimate_batch(plan)
            deviation = float(np.abs(fast - dense).max())
            one_box = _one_box_p50_us(estimator, plan) if workload_label == "selective" else "-"
            result.rows.append(
                [
                    label,
                    workload_label,
                    len(plan) / fast_seconds,
                    len(plan) / dense_seconds,
                    dense_seconds / fast_seconds,
                    deviation,
                    one_box,
                ]
            )
    return result


def test_fastpath_speedup(report):
    kwargs = (
        dict(rows=4_000, kernels=256, queries=400, repeats=1) if SMOKE else {}
    )
    with bench_report("estimate_fastpath") as rep:
        result = report(fastpath_speedup, **kwargs)
        rows = {(r[0], r[1]): r for r in result.rows}
        for (label, workload), row in rows.items():
            rep.metric(f"{label}_{workload}_speedup", row[4])
            rep.metric(f"{label}_{workload}_max_abs_deviation", row[5])
        # The 1-query miss (one predicate per request), recorded without a gate.
        for label in ("kde", "adaptive_kde", "streaming_ade"):
            rep.metric(f"{label}_one_box_p50_us", rows[(label, "selective")][6])
        # The deviation gate is pure numerics and holds on any hardware: the
        # fast path must match the dense path to 1e-9 (design budget 1e-12).
        for (label, workload), row in rows.items():
            assert rep.gate(
                f"{label}_{workload}_deviation_le_1e9",
                row[5] <= 1e-9,
                detail=row[5],
                enforced=True,
            ), f"{label}/{workload} deviates {row[5]:.2e} > 1e-9"
        # ≥5x on the selective workload for every kernel-family estimator;
        # skipped (recorded as non-enforced) in smoke mode.
        for label in ("kde", "adaptive_kde", "streaming_ade"):
            speedup = rows[(label, "selective")][4]
            ok = rep.gate(
                f"{label}_selective_speedup_ge_5x",
                speedup >= 5.0,
                detail=speedup,
            )
            if not SMOKE:
                assert ok, f"{label} selective speedup {speedup:.1f}x < 5x"
        # Graceful degradation: wide boxes must not regress below 0.8x dense.
        for label in ("kde", "adaptive_kde", "streaming_ade"):
            speedup = rows[(label, "wide")][4]
            ok = rep.gate(
                f"{label}_wide_no_regression",
                speedup >= 0.8,
                detail=speedup,
            )
            if not SMOKE:
                assert ok, f"{label} wide-workload slowdown {speedup:.2f}x < 0.8x"
