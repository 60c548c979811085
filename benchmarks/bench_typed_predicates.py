"""Typed predicate overhead: lowered categorical/string workloads vs. numeric.

The typed surface lowers IN sets and string prefixes onto the numeric
estimator core as disjoint code-range boxes, so a mixed workload pays for
dictionary lookups, run merging and the per-query box expansion that a pure
numeric workload never sees.  This benchmark quantifies that overhead on one
equi-depth synopsis over a mixed-type table:

* **throughput** (queries/sec through ``Catalog.estimate_batch``) of a pure
  numeric workload and of a mixed typed workload (intervals + IN sets +
  prefixes) at the same query count and dimensionality — the numeric baseline
  ranges over the *same four columns in code space*, so both workloads drive
  identical estimator work per column and the ratio isolates the typed
  surface itself (lowering + disjoint-box expansion).  The acceptance gate
  requires the mixed workload to reach ≥ 0.9x the numeric throughput;
* **accuracy** (mean absolute error vs. exact selectivities) of both
  workloads — lowering must not cost accuracy, so the typed error gate is
  enforced in every mode.

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration (the
throughput gate is reported but not enforced on shared hardware).
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.histogram import EquiDepthHistogram
from repro.data.generators import mixed_type_table
from repro.engine.catalog import Catalog
from repro.experiments.runner import TableResult
from repro.workload.generators import TypedWorkload, UniformWorkload

from report import SMOKE, bench_report


#: Acceptance gate: mixed typed workload throughput vs. pure numeric.
MIN_THROUGHPUT_RATIO = 0.9

#: Accuracy gate: mean absolute error vs. exact selectivities.
MAX_MEAN_ABS_ERROR = 0.05


def typed_predicate_overhead(
    rows: int = 40_000,
    queries: int = 400,
    buckets: int = 32,
    estimate_repeats: int = 15,
    seed: int = 13,
) -> TableResult:
    """Throughput/accuracy table: numeric vs. mixed typed workloads."""
    table = mixed_type_table(rows, seed=seed)
    catalog = Catalog()
    catalog.add_table(table)
    columns = ["amount", "score", "region", "product"]
    catalog.attach_estimator(
        table.name, EquiDepthHistogram(buckets=buckets), columns=columns
    )

    # Same columns (code space), same per-query dimensionality: the numeric
    # baseline differs from the typed workload only in the predicate surface.
    numeric = UniformWorkload(
        table,
        attributes=columns,
        query_dimensions=2,
        volume_fraction=0.15,
        seed=seed + 1,
    ).generate(queries)
    typed = TypedWorkload(
        table, attributes=columns, query_dimensions=2, seed=seed + 2
    ).generate(queries)

    rows_out = []
    throughput = {}
    workloads = (("numeric", numeric), ("typed", typed))
    for label, workload in workloads:
        catalog.estimate_batch(table.name, workload)  # warm-up
    # Best-of-N per-batch timing, interleaved across workloads, so scheduler
    # noise and frequency scaling hit both paths alike.
    best = {label: float("inf") for label, _ in workloads}
    for _ in range(estimate_repeats):
        for label, workload in workloads:
            start = time.perf_counter()
            catalog.estimate_batch(table.name, workload)
            best[label] = min(best[label], time.perf_counter() - start)
    for label, workload in workloads:
        seconds = best[label]
        qps = len(workload) / max(seconds, 1e-9)
        throughput[label] = qps
        estimates = catalog.estimate_batch(table.name, workload)
        exact = table.true_selectivities(workload)
        mean_abs_error = float(np.mean(np.abs(estimates - exact)))
        rows_out.append([label, qps, seconds * 1e3, mean_abs_error])

    ratio = throughput["typed"] / max(throughput["numeric"], 1e-9)
    return TableResult(
        "Typed predicate overhead: lowered mixed workload vs. pure numeric",
        ["workload", "estimate_qps", "batch_ms", "mean_abs_error"],
        rows_out,
        notes=(
            f"{rows}-row mixed-type table, {queries} queries/workload, "
            f"equi-depth histogram ({buckets} buckets) over {len(columns)} "
            f"columns; typed/numeric throughput ratio {ratio:.2f} "
            f"(gate ≥ {MIN_THROUGHPUT_RATIO}), mean abs error gate ≤ "
            f"{MAX_MEAN_ABS_ERROR}"
        ),
    )


def test_typed_predicate_overhead(report):
    kwargs = (
        dict(rows=6_000, queries=60, estimate_repeats=2) if SMOKE else {}
    )
    with bench_report("typed_predicates") as rep:
        result = report(typed_predicate_overhead, **kwargs)
        by_workload = {row[0]: row for row in result.rows}
        for label, row in by_workload.items():
            rep.metric(f"{label}_estimate_qps", row[1])
            rep.metric(f"{label}_mean_abs_error", row[3])
        ratio = by_workload["typed"][1] / max(by_workload["numeric"][1], 1e-9)
        rep.metric("throughput_ratio", ratio)
        # Accuracy is data-, not hardware-dependent: enforced in every mode.
        for label in ("numeric", "typed"):
            error = by_workload[label][3]
            assert rep.gate(
                f"{label}_mean_abs_error_le_5pct",
                error <= MAX_MEAN_ABS_ERROR,
                detail=error,
                enforced=True,
            ), f"{label} workload mean abs error {error:.4f} above gate"
        ok = rep.gate(
            "typed_throughput_ge_0_9x_numeric",
            ratio >= MIN_THROUGHPUT_RATIO,
            detail=ratio,
        )
        if not SMOKE:
            assert ok, (
                f"typed workload throughput ratio {ratio:.2f} < "
                f"{MIN_THROUGHPUT_RATIO}"
            )
