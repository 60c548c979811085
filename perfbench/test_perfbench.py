"""Tests of the benchmark itself: determinism, the percentile rule, the output check."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np
import pytest

from perfbench import inputs, metrics, workloads
from perfbench.reference import SpeedReference
from perfbench.stats import mismatches, percentile, tail_percentile
from perfbench.tracing import Tracer, instrument

SMALL_POINT = workloads.PointSizes(rows=4000, kernels=64, pool=500, check_queries=32, setup_repeats=1)
SMALL_INGEST = workloads.IngestSizes(
    rows=3000, kernels=64, batch_rows=200, reads_per_batch=2, hot_plans=4, check_after=4,
    crash_batches=2, recoveries=2, check_selective=8, check_wide=4, setup_repeats=1,
)


def test_same_seed_gives_same_plans_and_q_error(tmp_path: Path) -> None:
    data = inputs.table_rows(2000)
    np.testing.assert_array_equal(data, inputs.table_rows(2000))
    for first, second in zip(inputs.point_pool(3, data, 50, 0.02), inputs.point_pool(3, data, 50, 0.02)):
        np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(inputs.zipf_order(3, 50, 100, 1.15), inputs.zipf_order(3, 50, 100, 1.15))
    for first, second in zip(inputs.bulk_plan(3, 7, data, 4, 2, 0.005, 0.6),
                             inputs.bulk_plan(3, 7, data, 4, 2, 0.005, 0.6)):
        np.testing.assert_array_equal(first, second)

    point = [workloads.run_point(3, 0.2, sizes=SMALL_POINT).q_error for _ in range(2)]
    assert point[0] == point[1]
    assert workloads.run_point(4, 0.2, sizes=SMALL_POINT).q_error != point[0]
    ingest = [
        workloads.run_ingest(3, 0.2, sizes=SMALL_INGEST, root=tmp_path).q_error for _ in range(2)
    ]
    assert ingest[0] == ingest[1]


def test_percentile_needs_ten_samples_beyond_it() -> None:
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99.0)
    assert percentile(list(range(1000)), 99.0) == pytest.approx(np.percentile(range(1000), 99.0))
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50.0)
    assert percentile(list(range(20)), 50.0) == 9.5
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(900) == 98.8
    percentile(list(range(900)), tail_percentile(900))
    assert tail_percentile(19) is None


def test_wrong_answer_counts_as_failure() -> None:
    model = workloads.StreamingADE(max_kernels=64).fit(
        workloads.Table.from_array("t", inputs.table_rows(3000), inputs.COLUMNS)
    )
    plan = workloads.CompiledQueries(inputs.COLUMNS, *inputs.point_pool(5, inputs.table_rows(3000), 20, 0.1))
    answers = model.estimate_batch(plan)

    result = workloads.RunResult("point-plans")
    workloads._check_answers(result, "right", answers, model, plan)
    assert (result.attempted, result.failed) == (len(plan), 0)

    wrong = answers.copy()
    wrong[3] += 1e-6
    workloads._check_answers(result, "wrong", wrong, model, plan)
    assert result.failed == 1 and result.errors
    assert mismatches(answers[:-1], answers) == len(answers)
    assert mismatches(np.full(3, np.nan), np.zeros(3)) == 3


def test_reference_states_wall_time_in_kernel_units() -> None:
    reference = SpeedReference()
    start = perf_counter_ns()
    reference.poll(start)
    reference.poll()  # not due again within the interval
    reference.exclude(1000)
    end = perf_counter_ns() + 5_000_000
    reference.finish(end)
    assert len(reference.samples) == 1 and reference.current == reference.samples[0] > 0
    assert reference.scaled_wall * reference.current == pytest.approx(
        end - start - reference.spent_ns - 1000
    )

    result = workloads.run_point(3, 0.2, sizes=SMALL_POINT)
    assert len(result.latency_ref) == len(result.latency_ns) > 0
    assert result.reference.samples and result.reference.scaled_wall > 0
    e2e = metrics.end_to_end(result)
    assert set(metrics.LISTED_END_TO_END) <= set(e2e)


def test_traced_run_reports_every_listed_layer_and_restores_the_code() -> None:
    from repro.core import fastpath
    from repro.serve import server

    compile_queries = server.compile_queries
    tracer = Tracer()
    with instrument(tracer):
        result = workloads.run_point(3, 0.2, tracer, sizes=SMALL_POINT)
    assert server.compile_queries is compile_queries
    assert "KernelSupportIndex" in vars(fastpath) and fastpath.KernelSupportIndex.__module__ == fastpath.__name__
    assert "estimate_batch" not in vars(workloads.StreamingADE)
    layers = metrics.per_layer(tracer, result)
    assert set(metrics.LISTED_PER_LAYER) <= set(layers)
    shares = tracer.unaccounted_shares()
    assert all(0.0 <= share <= 1.0 for share in shares.values())
    assert result.failed == 0


def test_benchmark_json_lists_the_metrics_every_workload_reports() -> None:
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in spec["end_to_end"]) == metrics.LISTED_END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == metrics.LISTED_PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["point-plans", "bulk-plans", "ingest-publish"]


def test_run_refuses_a_directory_without_the_package(tmp_path: Path) -> None:
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-plans", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
