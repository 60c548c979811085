"""Degraded-mode sharded serving: shard loss, renormalization, healing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InjectedFault, ReproError
from repro.data.generators import gaussian_mixture_table
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.obs.metrics import MetricsRegistry, use_default_metrics
from repro.persist.snapshot import load_estimator, save_estimator
from repro.shard.parallel import ShardExecutor
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

TABLE = gaussian_mixture_table(rows=2000, dimensions=2, seed=31, name="degraded")


def _sharded(shards: int = 4) -> ShardedEstimator:
    return ShardedEstimator(
        base={"name": "kde", "sample_size": 100},
        shards=shards,
        parallel=None,  # serial: deterministic fault-to-shard assignment
    ).fit(TABLE)


def _plan(estimator, count: int = 30, seed: int = 5):
    queries = UniformWorkload(TABLE, volume_fraction=0.2, seed=seed).generate(count)
    return compile_queries(queries, estimator.columns)


class TestExecutorRetries:
    def test_transient_faults_are_retried_with_backoff(self) -> None:
        executor = ShardExecutor("serial", retry_backoff=0.0)
        plan = FaultPlan(seed=1)
        rule = plan.arm("shard.task", action="raise", at=(1, 2))
        with use_fault_plan(plan):
            assert executor.map(lambda x: x + 1, range(3)) == [1, 2, 3]
        assert rule.fired == 2  # both faults absorbed inside the retry budget

    def test_thread_backend_retries_transient_faults(self) -> None:
        registry = MetricsRegistry()
        with use_default_metrics(registry):
            executor = ShardExecutor("thread", max_workers=2, retry_backoff=0.0)
        plan = FaultPlan(seed=1)
        rule = plan.arm("shard.task", action="raise", at=(2,))
        with use_fault_plan(plan):
            results = executor.map(lambda x: x * 10, range(4), op="probe")
        assert results == [0, 10, 20, 30]
        assert rule.fired == 1
        assert registry.counter("shard.task_retries").value == 1
        # The faulted attempt raised before its task ran: one span per task.
        assert registry.histogram("shard.task_seconds", op="probe").count == 4

    def test_exhausted_retries_propagate(self) -> None:
        executor = ShardExecutor("serial", retries=1, retry_backoff=0.0)
        plan = FaultPlan(seed=1)
        plan.arm("shard.task", action="raise")
        with use_fault_plan(plan):
            with pytest.raises(InjectedFault):
                executor.map(lambda x: x, range(2))

    def test_retries_parameter_validated(self) -> None:
        from repro.core.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            ShardExecutor("serial", retries=-1)
        with pytest.raises(InvalidParameterError):
            ShardExecutor("serial", retry_backoff=-0.1)


class TestShardLoss:
    def test_transient_estimate_fault_is_probation_not_loss(self) -> None:
        """A one-off estimate fault excludes the shard from that batch only:
        the shard is retried on the next call, a success clears its strikes,
        and it is never marked lost."""
        sharded = _sharded()
        plan = _plan(sharded)
        full = sharded.estimate_batch(plan)

        fault = FaultPlan(seed=2)
        fault.arm("shard.estimate", action="raise", at=(1,))
        with use_fault_plan(fault):
            degraded = sharded.estimate_batch(plan)

        assert not sharded.degraded
        assert sharded.lost_shards == ()
        assert degraded.shape == full.shape
        assert np.all(degraded >= 0.0) and np.all(degraded <= 1.0)
        # The faulted shard recovered: the next call serves the full ensemble.
        np.testing.assert_array_equal(sharded.estimate_batch(plan), full)
        assert not sharded._estimate_strikes

    def test_consecutive_estimate_faults_mark_shard_lost(self) -> None:
        sharded = _sharded()
        plan = _plan(sharded)

        class _Faulty:
            row_count = sharded.shard(0).row_count

            def _estimate_batch(self, lows, highs):
                raise RuntimeError("synopsis fault")

        sharded._shards[0] = _Faulty()
        for _ in range(sharded.estimate_failure_threshold):
            assert not sharded.degraded
            estimates = sharded.estimate_batch(plan)
            assert np.all(estimates >= 0.0) and np.all(estimates <= 1.0)
        assert sharded.degraded
        assert sharded.lost_shards == (0,)

    def test_manual_mark_and_describe_surface(self) -> None:
        sharded = _sharded()
        assert not sharded.degraded
        assert "degraded" not in sharded.describe()
        sharded.mark_shard_lost(2)
        description = sharded.describe()
        assert description["degraded"] is True
        assert description["lost_shards"] == [2]
        assert "degraded" in repr(sharded)

    def test_insert_drops_rows_routed_to_lost_shards(self) -> None:
        sharded = ShardedEstimator(
            base={"name": "streaming_ade", "max_kernels": 32},
            shards=4,
            parallel=None,
        ).fit(TABLE)
        before = sharded.row_count
        sharded.mark_shard_lost(1)
        rows = TABLE.as_matrix()[:200]
        sharded.insert(rows)
        grew = sharded.row_count - before
        assert 0 < grew < 200  # the lost shard's share was dropped

    def test_all_shards_lost_raises(self) -> None:
        sharded = _sharded(shards=2)
        sharded.mark_shard_lost(0)
        sharded.mark_shard_lost(1)
        with pytest.raises(ReproError):
            sharded.estimate_batch(_plan(sharded))

    def test_degraded_estimates_stay_close_to_full(self) -> None:
        sharded = _sharded()
        plan = _plan(sharded, count=60)
        full = sharded.estimate_batch(plan)
        sharded.mark_shard_lost(3)
        degraded = sharded.estimate_batch(plan)
        deviation = float(np.mean(np.abs(degraded - full) / np.maximum(full, 1e-2)))
        assert deviation <= 0.15  # the documented degraded-mode tolerance


class TestHealing:
    def test_refit_shard_restores_the_lost_shard(self) -> None:
        sharded = _sharded()
        plan = _plan(sharded)
        full = sharded.estimate_batch(plan)
        sharded.mark_shard_lost(1)
        sharded.refit_shard(1, TABLE)
        assert not sharded.degraded
        np.testing.assert_array_equal(sharded.estimate_batch(plan), full)

    def test_with_shard_swap_heals_the_clone(self) -> None:
        sharded = _sharded()
        healthy = sharded.shard(1)
        sharded.mark_shard_lost(1)
        clone = sharded.with_shard(1, healthy)
        assert not clone.degraded
        assert sharded.degraded  # the original is untouched

    def test_full_fit_resets_lost_set(self) -> None:
        sharded = _sharded()
        sharded.mark_shard_lost(0)
        sharded.fit(TABLE)
        assert not sharded.degraded


class TestDegradedPersistence:
    def test_lost_set_round_trips_through_snapshot(self, tmp_path) -> None:
        sharded = _sharded()
        plan = _plan(sharded)
        sharded.mark_shard_lost(2)
        degraded = sharded.estimate_batch(plan)

        path = tmp_path / "degraded.snap"
        save_estimator(sharded, path)
        loaded = load_estimator(path)
        assert loaded.degraded
        assert loaded.lost_shards == (2,)
        np.testing.assert_array_equal(loaded.estimate_batch(plan), degraded)
