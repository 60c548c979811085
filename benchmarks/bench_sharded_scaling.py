"""Sharded scaling: fit + estimate_batch at 1 / 2 / 4 shards.

One adaptive-KDE configuration is fitted monolithically (= 1 shard) and as a
hash-partitioned :class:`~repro.shard.sharded.ShardedEstimator` at 2 and 4
shards with parallel per-shard fits, then both paths answer the same
compiled workload.  The **total synopsis budget is held constant** — each of
``k`` shards gets ``sample_size / k`` sample points, the same equal-space
discipline the accuracy experiments use — so the table isolates what
sharding buys at fixed budget.  Reported per shard count:

* **fit seconds** and the fit speedup over 1 shard — the acceptance gate
  requires ≥ 1.5x at 4 shards.  Sharding wins twice: per-shard bandwidth
  selection is superlinear in the per-shard sample (so ``k`` samples of
  ``m/k`` points are much cheaper than one of ``m``), and the shards fit
  concurrently on the thread pool.
* **estimate throughput** (queries/sec) through the weighted-combine path.
* **mean relative deviation vs. monolithic** (0.05 selectivity floor) — the
  accuracy cost of sharding, which the acceptance criteria bound at the 5 %
  documented in :mod:`repro.shard`.

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration (the
speedup gate is skipped — shared CI hardware cannot guarantee parallel
speedups — but the table is still produced and archived).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.adaptive import AdaptiveKDEEstimator
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

from report import SMOKE, bench_report


#: Acceptance gate: parallel 4-shard fit speedup over the monolithic fit.
MIN_FIT_SPEEDUP_4_SHARDS = 1.5

#: Documented accuracy bound: mean relative deviation (0.05 floor) vs. the
#: monolithic estimator on the benchmark workload.
MAX_MEAN_RELATIVE_DEVIATION = 0.05


def sharded_scaling(
    rows: int = 60_000,
    queries: int = 400,
    sample_size: int = 1200,
    estimate_repeats: int = 5,
    seed: int = 7,
) -> TableResult:
    """Fit/estimate scaling table over shard counts 1, 2 and 4."""
    table = gaussian_mixture_table(
        rows=rows, dimensions=2, components=4, separation=4.0, seed=seed, name="bench"
    )
    workload = UniformWorkload(table, volume_fraction=0.15, seed=seed + 1).generate(
        queries
    )
    plan = compile_queries(workload, table.column_names)

    def build(shards: int):
        if shards == 1:
            return AdaptiveKDEEstimator(
                sample_size=sample_size, bandwidth_rule="lscv"
            )
        # Equal total budget: k shards share the monolithic sample size.
        return ShardedEstimator(
            {
                "name": "adaptive_kde",
                "sample_size": max(sample_size // shards, 8),
                "bandwidth_rule": "lscv",
            },
            shards=shards,
            partitioner="hash",
            parallel="thread",
        )

    rows_out = []
    baseline_fit = None
    monolithic_estimates = None
    for shards in (1, 2, 4):
        estimator = build(shards)
        start = time.perf_counter()
        estimator.fit(table)
        fit_seconds = time.perf_counter() - start

        estimator.estimate_batch(plan)  # warm-up
        start = time.perf_counter()
        for _ in range(estimate_repeats):
            estimates = estimator.estimate_batch(plan)
        estimate_seconds = (time.perf_counter() - start) / estimate_repeats
        qps = len(plan) / max(estimate_seconds, 1e-9)

        if shards == 1:
            baseline_fit = fit_seconds
            monolithic_estimates = estimates
            deviation = 0.0
        else:
            deviation = float(
                (
                    np.abs(estimates - monolithic_estimates)
                    / np.maximum(monolithic_estimates, 0.05)
                ).mean()
            )
        rows_out.append(
            [
                shards,
                fit_seconds,
                baseline_fit / max(fit_seconds, 1e-9),
                qps,
                deviation,
            ]
        )

    return TableResult(
        "Sharded scaling: parallel fit + estimate_batch vs. shard count",
        ["shards", "fit_sec", "fit_speedup", "estimate_qps", "mean_rel_dev"],
        rows_out,
        notes=(
            f"{rows}-row 2-D mixture, {queries}-query compiled plan, "
            f"adaptive KDE (lscv, {sample_size} sample points); gate: "
            f"4-shard fit ≥ {MIN_FIT_SPEEDUP_4_SHARDS}x the monolithic fit, "
            f"mean relative deviation ≤ {MAX_MEAN_RELATIVE_DEVIATION:.0%}"
        ),
    )


def test_sharded_scaling(report):
    kwargs = (
        dict(rows=12_000, queries=80, sample_size=1024, estimate_repeats=2)
        if SMOKE
        else {}
    )
    with bench_report("sharded_scaling") as rep:
        result = report(sharded_scaling, **kwargs)
        by_shards = {row[0]: row for row in result.rows}
        for shards, row in by_shards.items():
            rep.metric(f"shards_{shards}_fit_speedup", row[2])
            rep.metric(f"shards_{shards}_estimate_qps", row[3])
            rep.metric(f"shards_{shards}_mean_rel_dev", row[4])
        # Accuracy gate holds at every scale (deviation is data-, not
        # hardware-dependent).
        for shards in (2, 4):
            assert rep.gate(
                f"shards_{shards}_accuracy_le_5pct",
                by_shards[shards][4] <= MAX_MEAN_RELATIVE_DEVIATION,
                detail=by_shards[shards][4],
                enforced=True,
            ), (
                f"{shards}-shard estimates deviate "
                f"{by_shards[shards][4]:.4f} from monolithic"
            )
        speedup = by_shards[4][2]
        ok = rep.gate(
            "fit_speedup_4_shards_ge_1_5x",
            speedup >= MIN_FIT_SPEEDUP_4_SHARDS,
            detail=speedup,
        )
        if not SMOKE:
            assert ok, (
                f"4-shard parallel fit speedup {speedup:.2f}x < "
                f"{MIN_FIT_SPEEDUP_4_SHARDS}x"
            )
