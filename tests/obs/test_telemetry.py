"""Unit and property tests for the telemetry primitives."""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.obs.metrics import (
    NULL_REGISTRY,
    LatencyHistogram,
    MetricsRegistry,
    default_metrics,
    hit_rate,
    metric_key,
    set_default_metrics,
    use_default_metrics,
)


class TestHitRate:
    def test_zero_traffic_is_zero(self) -> None:
        assert hit_rate(0, 0) == 0.0

    def test_fraction(self) -> None:
        assert hit_rate(3, 1) == 0.75


class TestMetricKey:
    def test_bare_name(self) -> None:
        assert metric_key("serve.requests", ()) == "serve.requests"

    def test_labels_render_sorted(self) -> None:
        key = metric_key("serve.requests", (("op", "query"), ("tenant", "a")))
        assert key == "serve.requests{op=query,tenant=a}"


class TestCountersAndGauges:
    def test_counter_accumulates(self) -> None:
        registry = MetricsRegistry()
        registry.counter("rows").inc(5)
        registry.counter("rows").inc()
        assert registry.counter("rows").value == 6

    def test_counter_rejects_negative(self) -> None:
        with pytest.raises(InvalidParameterError):
            MetricsRegistry().counter("rows").inc(-1)

    def test_labels_distinguish_series(self) -> None:
        registry = MetricsRegistry()
        registry.counter("ops", tenant="a").inc()
        registry.counter("ops", tenant="b").inc(2)
        assert registry.counter("ops", tenant="a").value == 1
        assert registry.counter("ops", tenant="b").value == 2

    def test_get_or_create_returns_same_object(self) -> None:
        registry = MetricsRegistry()
        assert registry.counter("x", a="1") is registry.counter("x", a="1")
        assert registry.histogram("h") is registry.histogram("h")

    def test_gauge_fn_evaluated_at_snapshot(self) -> None:
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge_fn("live", lambda: box["v"])
        box["v"] = 42
        assert registry.snapshot()["gauges"]["live"]["value"] == 42.0

    def test_snapshot_shape(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c", tenant="a").inc()
        registry.histogram("h").record(1e-4)
        snap = registry.snapshot()
        assert snap["counters"]["c{tenant=a}"]["value"] == 1
        assert snap["histograms"]["h"]["count"] == 1
        assert set(snap) == {"counters", "gauges", "histograms"}

    def test_reset_drops_recorded_series(self) -> None:
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").record(1e-3)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_preserves_callback_gauges(self) -> None:
        # Callback gauges are live views onto their owner's state (cache
        # counters, current generation): reset() clears recorded series but
        # must not silently un-instrument a still-running owner.
        registry = MetricsRegistry()
        box = {"v": 7}
        registry.gauge_fn("live", lambda: box["v"])
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.snapshot()["gauges"]["live"]["value"] == 7.0


class TestTimer:
    def test_timer_records_one_span(self) -> None:
        registry = MetricsRegistry()
        with registry.timer("op_seconds"):
            pass
        assert registry.histogram("op_seconds").count == 1


class TestRegistryIsASink:
    def test_deepcopy_returns_same_registry(self) -> None:
        registry = MetricsRegistry()
        holder = {"metrics": registry}
        assert copy.deepcopy(holder)["metrics"] is registry


class TestNullRegistry:
    def test_disabled_and_inert(self) -> None:
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("x", tenant="t").inc()
        NULL_REGISTRY.gauge_fn("g", lambda: 3.0)
        NULL_REGISTRY.histogram("h").record(0.5)
        with NULL_REGISTRY.timer("t"):
            pass
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_null_quantiles_empty(self) -> None:
        assert NULL_REGISTRY.histogram("h").quantile(0.99) == 0.0


class TestDefaultRegistry:
    def test_default_is_null_until_set(self) -> None:
        assert default_metrics() is NULL_REGISTRY

    def test_set_and_clear(self) -> None:
        registry = MetricsRegistry()
        set_default_metrics(registry)
        try:
            assert default_metrics() is registry
        finally:
            set_default_metrics(None)
        assert default_metrics() is NULL_REGISTRY

    def test_scoped_use(self) -> None:
        registry = MetricsRegistry()
        with use_default_metrics(registry):
            assert default_metrics() is registry
        assert default_metrics() is NULL_REGISTRY


class TestLatencyHistogram:
    def test_empty_quantile_is_zero(self) -> None:
        assert LatencyHistogram("h").quantile(0.5) == 0.0

    def test_quantile_range_validated(self) -> None:
        with pytest.raises(InvalidParameterError):
            LatencyHistogram("h").quantile(1.5)

    def test_single_value_all_quantiles(self) -> None:
        h = LatencyHistogram("h")
        h.record(3.3e-4)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.3e-4, rel=LatencyHistogram.GROWTH - 1)

    def test_mean_and_count(self) -> None:
        h = LatencyHistogram("h")
        for v in (1e-3, 3e-3):
            h.record(v)
        assert h.count == 2
        assert h.mean == pytest.approx(2e-3)

    def test_out_of_range_clamped_to_observed_extremes(self) -> None:
        h = LatencyHistogram("h")
        h.record(1e-9)  # below LOW -> underflow bucket
        h.record(1e3)  # above HIGH -> overflow bucket
        assert h.quantile(0.0) == pytest.approx(1e-9)
        assert h.quantile(1.0) == pytest.approx(1e3)

    def test_snapshot_buckets_sparse(self) -> None:
        h = LatencyHistogram("h")
        h.record(1e-4)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert sum(snap["buckets"].values()) == 1
        assert snap["p99"] == pytest.approx(h.quantile(0.99))

    def test_concurrent_records_all_land(self) -> None:
        h = LatencyHistogram("h")

        def pound() -> None:
            for _ in range(2000):
                h.record(1e-4)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # record is lock-free by design: a preemption can drop an observation,
        # but the histogram must stay internally sane and near-complete.
        assert 0 < h.count <= 8000
        assert h.quantile(0.5) == pytest.approx(1e-4, rel=LatencyHistogram.GROWTH - 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-7, max_value=1e2, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_within_one_bucket_of_numpy(self, values, q) -> None:
        """The paper-grade accuracy contract: histogram quantiles agree with
        ``np.quantile(..., method="inverted_cdf")`` to within one geometric
        bucket (a factor of GROWTH), clamped to the observed extremes."""
        h = LatencyHistogram("h")
        for v in values:
            h.record(v)
        truth = float(np.quantile(np.array(values), q, method="inverted_cdf"))
        readout = h.quantile(q)
        growth = LatencyHistogram.GROWTH
        assert readout / growth <= truth <= readout * growth * (1 + 1e-12)
