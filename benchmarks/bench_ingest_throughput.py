"""Ingestion throughput: chunked bulk insert vs. the per-tuple reference loop.

The bulk path of :class:`~repro.core.streaming.StreamingADE` must ingest a
100k-row sudden-drift stream at least 10x faster than the sequential
per-tuple loop (``insert_sequential``), while matching its accuracy on the
Fig. 5-style drift workload — mean relative error against the most recent
window of tuples, averaged over periodic checkpoints — within 5%.  The
streaming reservoir estimator is reported alongside as the
vectorized-vs-row-loop baseline of the sampling family.

Set ``BENCH_SMOKE=1`` to run a tiny stream (CI smoke mode); the
throughput and accuracy gates are skipped there — a 5k-row stream on shared
CI hardware says nothing about either.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.sampling import ReservoirSamplingEstimator
from repro.core.streaming import StreamingADE
from repro.data.streams import sudden_drift_stream
from repro.engine.executor import evaluate_estimator
from repro.engine.table import Table
from repro.experiments.runner import TableResult
from repro.workload.generators import UniformWorkload

from report import SMOKE, bench_report


def ingest_throughput(
    rows: int = 100_000,
    batch_size: int = 1_000,
    max_kernels: int = 256,
    reference_window: int = 20_000,
    queries: int = 100,
    evaluate_every: int = 10,
    seed: int = 0,
) -> TableResult:
    """Rows/sec and Fig. 5-style drift accuracy of bulk vs. per-tuple ingestion.

    Only the ``insert`` calls (plus the closing ``flush``) are timed; the
    periodic evaluations against the most recent ``reference_window`` tuples
    are the accuracy probe, not maintenance work.
    """
    batches = max(rows // batch_size, 2)
    stream = sudden_drift_stream(
        dimensions=2, batch_size=batch_size, batches=batches, drift_at=(0.5,),
        shift=8.0, seed=seed,
    )
    columns = stream.column_names
    batches_list = list(stream)
    total_rows = sum(b.shape[0] for b in batches_list)
    decay = 0.5 ** (1.0 / reference_window)

    # Pre-build the per-checkpoint reference tables and workloads so every
    # driven estimator sees identical queries against identical truths.
    checkpoints: list[tuple[int, Table, list]] = []
    window: list[np.ndarray] = []
    rng = np.random.default_rng(seed + 7)
    for index, batch in enumerate(batches_list):
        window.append(batch)
        if index % evaluate_every != evaluate_every - 1:
            continue
        recent = np.vstack(window)[-reference_window:]
        reference = Table.from_array("recent", recent, columns)
        workload = UniformWorkload(
            reference, volume_fraction=0.15, seed=int(rng.integers(0, 2**31))
        ).generate(queries)
        checkpoints.append((index, reference, workload))

    result = TableResult(
        "Ingest throughput: chunked bulk insert vs. per-tuple loop",
        ["estimator", "path", "rows_per_second", "speedup_vs_sequential", "rel_err_mean"],
        [],
        notes=(
            f"{total_rows} streamed tuples, d=2, sudden drift at 50%; error is mean "
            f"relative error against the last {reference_window} tuples, averaged "
            f"over {len(checkpoints)} checkpoints"
        ),
    )

    def drive(estimator, insert) -> tuple[float, float]:
        estimator.start(columns)
        elapsed = 0.0
        errors: list[float] = []
        pending = iter(checkpoints)
        checkpoint = next(pending, None)
        for index, batch in enumerate(batches_list):
            start = time.perf_counter()
            insert(estimator, batch)
            elapsed += time.perf_counter() - start
            if checkpoint is not None and index == checkpoint[0]:
                start = time.perf_counter()
                estimator.flush()  # buffered maintenance bills to ingestion
                elapsed += time.perf_counter() - start
                _, reference, workload = checkpoint
                errors.append(
                    evaluate_estimator(reference, estimator, workload).mean_relative_error()
                )
                checkpoint = next(pending, None)
        return total_rows / max(elapsed, 1e-9), float(np.mean(errors))

    ade = lambda: StreamingADE(max_kernels=max_kernels, decay=decay)
    bulk_rps, bulk_err = drive(ade(), lambda e, b: e.insert(b))
    seq_rps, seq_err = drive(ade(), lambda e, b: e.insert_sequential(b))
    result.rows.append(["ade_streaming", "bulk", bulk_rps, bulk_rps / seq_rps, bulk_err])
    result.rows.append(["ade_streaming", "sequential", seq_rps, 1.0, seq_err])

    reservoir = lambda: ReservoirSamplingEstimator(sample_size=max_kernels, decay=True)
    res_bulk_rps, res_bulk_err = drive(reservoir(), lambda e, b: e.insert(b))

    def rowwise(estimator, batch) -> None:
        for row in batch:
            estimator.insert_row(row)

    res_row_rps, res_row_err = drive(reservoir(), rowwise)
    result.rows.append(
        ["reservoir_sampling", "bulk", res_bulk_rps, res_bulk_rps / res_row_rps, res_bulk_err]
    )
    result.rows.append(["reservoir_sampling", "row-loop", res_row_rps, 1.0, res_row_err])
    return result


def test_ingest_throughput(report):
    kwargs = (
        dict(rows=5_000, reference_window=2_000, queries=30, evaluate_every=2)
        if SMOKE
        else {}
    )
    with bench_report("ingest_throughput") as rep:
        result = report(ingest_throughput, **kwargs)
        rows = {(r[0], r[1]): r for r in result.rows}
        for (estimator, path), row in rows.items():
            rep.metric(f"{estimator}_{path.replace('-', '_')}_rows_per_second", row[2])
            rep.metric(f"{estimator}_{path.replace('-', '_')}_rel_err_mean", row[4])
        bulk = rows[("ade_streaming", "bulk")]
        sequential = rows[("ade_streaming", "sequential")]
        speedup = bulk[3]
        rep.gate("bulk_ingest_speedup_ge_10x", speedup >= 10.0, detail=speedup)
        accuracy_ok = bulk[4] <= sequential[4] * 1.05 + 1e-3
        rep.gate("bulk_accuracy_parity_5pct", accuracy_ok,
                 detail={"bulk": bulk[4], "sequential": sequential[4]})
        reservoir_ok = rows[("reservoir_sampling", "bulk")][3] >= 1.0
        rep.gate("reservoir_bulk_not_slower", reservoir_ok,
                 detail=rows[("reservoir_sampling", "bulk")][3])
        if SMOKE:
            return
        assert speedup >= 10.0, f"bulk ingest speedup {speedup:.1f}x < 10x"
        # Accuracy parity: the bulk maintenance policy must not cost accuracy
        # on the drift workload (5% relative slack per acceptance criteria).
        assert accuracy_ok, (
            f"bulk rel err {bulk[4]:.4f} vs sequential {sequential[4]:.4f}"
        )
        # The vectorized reservoir must not be slower than its row loop.
        assert reservoir_ok
