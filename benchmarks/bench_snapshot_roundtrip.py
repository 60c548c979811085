"""Snapshot round-trip: save + load cost and fidelity for every estimator.

Every registered estimator is fitted, saved to a single ``.npz`` snapshot,
loaded back, and compared: the loaded model's ``estimate_batch`` must match
the original to ``1e-12`` (the library's own round-trip tests assert bitwise
equality; the benchmark keeps the looser published gate), and the whole
save + load cycle must fit a fixed wall-clock budget per estimator.

The saved snapshot files are left under ``benchmarks/results/models/`` so CI
archives them alongside the rendered benchmark tables — a published artifact
of every estimator's on-disk format per build.

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration (the
time gate is skipped there; shared CI hardware says nothing about latency,
but fidelity must hold everywhere).
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.core.estimator import available_estimators, create_estimator
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.persist.snapshot import load_estimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

from report import SMOKE, bench_report


#: Wall-clock budget for one save + load cycle (generous: snapshots are a
#: few KB to a few MB of npz; regressions here mean accidental recompute).
TIME_BUDGET_SECONDS = 1.0

#: Estimate fidelity gate between the original and the loaded model.
ATOL = 1e-12

MODELS_DIR = pathlib.Path(__file__).parent / "results" / "models"

_FAST_KWARGS: dict[str, dict] = {
    "streaming_ade": {"max_kernels": 64},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 8},
    "wavelet": {"resolution": 128, "coefficients": 24},
}


def snapshot_roundtrip(rows: int = 20_000, queries: int = 500, seed: int = 7) -> TableResult:
    """Save/load latency, snapshot size and estimate drift per estimator."""
    table = gaussian_mixture_table(
        rows=rows, dimensions=2, components=4, separation=4.0, seed=seed, name="bench"
    )
    workload = UniformWorkload(table, volume_fraction=0.15, seed=seed + 1).generate(queries)
    MODELS_DIR.mkdir(parents=True, exist_ok=True)

    result = TableResult(
        "Snapshot round-trip: save + load every registered estimator",
        ["estimator", "save_ms", "load_ms", "snapshot_bytes", "max_abs_diff"],
        [],
        notes=(
            f"{rows}-row 2-D mixture, {queries}-query workload; loaded-model "
            f"estimates must match the originals to {ATOL:g} and one save+load "
            f"cycle must finish within {TIME_BUDGET_SECONDS:.1f}s"
        ),
    )
    for name in available_estimators():
        estimator = create_estimator(name, **_FAST_KWARGS.get(name, {}))
        estimator.fit(table)
        plan = compile_queries(workload, estimator.columns)
        before = estimator.estimate_batch(plan)

        path = MODELS_DIR / f"{name}.npz"
        start = time.perf_counter()
        estimator.save(path)
        save_seconds = time.perf_counter() - start
        start = time.perf_counter()
        loaded = load_estimator(path)
        load_seconds = time.perf_counter() - start

        after = loaded.estimate_batch(plan)
        drift = float(np.max(np.abs(after - before))) if len(plan) else 0.0
        result.rows.append(
            [name, save_seconds * 1e3, load_seconds * 1e3, path.stat().st_size, drift]
        )
    return result


def test_snapshot_roundtrip(report):
    kwargs = dict(rows=4_000, queries=100) if SMOKE else {}
    with bench_report("snapshot_roundtrip") as rep:
        result = report(snapshot_roundtrip, **kwargs)
        for name, save_ms, load_ms, size, drift in result.rows:
            rep.metric(f"{name}_save_ms", save_ms)
            rep.metric(f"{name}_load_ms", load_ms)
            rep.metric(f"{name}_bytes", size)
            rep.metric(f"{name}_drift", drift)
        for name, save_ms, load_ms, _, drift in result.rows:
            assert rep.gate(
                f"{name}_fidelity_le_1e12", drift <= ATOL, detail=drift, enforced=True
            ), (
                f"{name}: loaded estimates drift by {drift:g} > {ATOL:g}"
            )
            cycle = (save_ms + load_ms) / 1e3
            ok = rep.gate(
                f"{name}_cycle_within_budget",
                cycle <= TIME_BUDGET_SECONDS,
                detail=cycle,
            )
            if not SMOKE:
                assert ok, (
                    f"{name}: save+load took {cycle:.2f}s > "
                    f"{TIME_BUDGET_SECONDS:.1f}s budget"
                )
