"""Which thread runs a sharded estimator's per-shard tasks.

``insert`` and ``flush`` run every shard task on the calling thread, under
the ``"thread"`` backend too; ``fit`` and the weighted path's estimate fan-out
of at least ``_PARALLEL_ESTIMATE_THRESHOLD`` query-shards run on the pool.
The calling thread keeps the executor's fault point, retries and telemetry.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.shard.parallel as parallel
from repro.core.errors import InjectedFault
from repro.core.streaming import StreamingADE
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.shard.sharded import _PARALLEL_ESTIMATE_THRESHOLD, ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

BASE = {"name": "streaming_ade", "max_kernels": 16, "chunk_size": 256}


def _threaded(**kwargs) -> ShardedEstimator:
    return ShardedEstimator(BASE, shards=2, parallel="thread", max_workers=2, **kwargs)


def _spy(monkeypatch, cls, method: str, calls: list) -> None:
    """Record ``(method, thread id)`` for every call of ``cls.method``."""
    original = getattr(cls, method)

    def spy(self, *args, **kwargs):
        calls.append((method, threading.get_ident()))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, spy)


def _rows(seed: int, count: int = 600) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(count, 2))


def _plan(table, estimator: ShardedEstimator, count: int):
    queries = UniformWorkload(table, volume_fraction=0.2, seed=8).generate(count)
    return compile_queries(queries, estimator.columns)


def test_maintenance_runs_every_shard_task_on_the_calling_thread(
    monkeypatch, mixture_table_2d
) -> None:
    estimator = _threaded().fit(mixture_table_2d)
    calls: list[tuple[str, int]] = []
    for method in ("insert", "flush"):
        _spy(monkeypatch, StreamingADE, method, calls)
    estimator.insert(_rows(1))
    estimator.flush()

    ops = [op for op, _ in calls]
    assert all(ops.count(op) >= 2 for op in ("insert", "flush")), ops
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_fit_and_the_estimate_fan_out_run_on_the_pool(
    monkeypatch, mixture_table_2d
) -> None:
    calls: list[tuple[str, int]] = []
    for method in ("fit", "_estimate_batch"):
        _spy(monkeypatch, StreamingADE, method, calls)
    estimator = _threaded(combine="weighted").fit(mixture_table_2d)
    count = _PARALLEL_ESTIMATE_THRESHOLD // estimator.shard_count
    estimator.estimate_batch(_plan(mixture_table_2d, estimator, count))

    ops = [op for op, _ in calls]
    assert ops.count("fit") >= 2 and ops.count("_estimate_batch") == 2, ops
    assert threading.get_ident() not in {ident for _, ident in calls}


def test_transient_insert_fault_is_retried_on_the_calling_thread(
    monkeypatch, mixture_table_2d
) -> None:
    registry = MetricsRegistry()
    with use_default_metrics(registry):
        estimator = _threaded()
    estimator.fit(mixture_table_2d)
    attempts: list[int] = []
    real_inject = parallel.inject

    def inject(point: str) -> None:
        attempts.append(threading.get_ident())
        real_inject(point)

    monkeypatch.setattr(parallel, "inject", inject)
    rows = _rows(2)
    before = estimator.row_count
    retries = registry.counter("shard.task_retries").value
    fault = FaultPlan(seed=1)
    rule = fault.arm("shard.task", action="raise", at=(1,))
    with use_fault_plan(fault):
        estimator.insert(rows)

    assert rule.fired == 1
    assert estimator.row_count == before + rows.shape[0]
    # One faulted attempt and two successful ones, all on this thread.
    assert attempts == [threading.get_ident()] * 3
    # Counted in the registry captured at construction, not the default.
    assert registry.counter("shard.task_retries").value == retries + 1
    assert registry.histogram("shard.task_seconds", op="insert").count == 2


def test_insert_fault_that_survives_its_retries_stops_at_that_shard(
    mixture_table_2d,
) -> None:
    estimator = _threaded().fit(mixture_table_2d)
    counts = estimator.shard_row_counts()
    pending = estimator.shard(1)._pending_count
    rows = _rows(3)
    assert np.all(
        np.bincount(estimator.partitioner.assign_static(rows), minlength=2) > 0
    )
    fault = FaultPlan(seed=1)
    # The first shard task's three attempts (one try, two retries) all fail.
    fault.arm("shard.task", action="raise", at=(1, 2, 3))
    with use_fault_plan(fault):
        with pytest.raises(InjectedFault):
            estimator.insert(rows)

    # The second shard's task never ran.
    np.testing.assert_array_equal(estimator.shard_row_counts(), counts)
    assert estimator.shard(1)._pending_count == pending


def test_failed_insert_keeps_the_rows_of_the_shards_that_folded(
    mixture_table_2d,
) -> None:
    estimator = _threaded().fit(mixture_table_2d)
    plan = _plan(mixture_table_2d, estimator, 40)
    before = estimator.estimate_batch(plan)  # caches the union of the shards
    row_count = estimator.row_count
    rows = _rows(4)
    first = int(np.sum(estimator.partitioner.assign_static(rows) == 0))
    fault = FaultPlan(seed=1)
    # The first shard folds; the second shard's three attempts all fail.
    fault.arm("shard.task", action="raise", at=(2, 3, 4))
    with use_fault_plan(fault):
        with pytest.raises(InjectedFault):
            estimator.insert(rows)

    assert 0 < first < rows.shape[0]
    assert estimator.row_count == row_count + first
    # A front end rebuilt from the same shards serves their union afresh.
    rebuilt = estimator.with_shard(0, estimator.shard(0))
    assert rebuilt.row_count == estimator.row_count
    after = estimator.estimate_batch(plan)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, rebuilt.estimate_batch(plan))
