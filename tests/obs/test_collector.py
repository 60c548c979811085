"""TelemetryCollector sampling, TimeSeriesStore rollups, payload round-trips.

Includes the property-based invariants of the sampling pipeline: counter
deltas are never negative under monotone updates, tick batching does not
change counter delta totals, and the ring buffer keeps exactly the newest
``capacity`` points per series.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.obs.collector import (
    SeriesPoint,
    TelemetryCollector,
    TimeSeriesStore,
    series_payload,
    store_from_payload,
)
from repro.obs.metrics import MetricsRegistry


def make_collector(**kwargs) -> tuple[MetricsRegistry, TelemetryCollector]:
    registry = MetricsRegistry()
    return registry, TelemetryCollector(registry, **kwargs)


class TestTickDiffing:
    def test_first_tick_is_baseline(self) -> None:
        registry, collector = make_collector()
        registry.counter("c").inc(5)
        assert collector.tick(now=0.0) == []
        assert len(collector.store) == 0
        assert collector.last_tick == 0.0

    def test_counter_delta_and_rate(self) -> None:
        registry, collector = make_collector()
        counter = registry.counter("c", tenant="a")
        counter.inc(5)
        collector.tick(now=0.0)
        counter.inc(3)
        (point,) = collector.tick(now=2.0)
        assert point.kind == "counter"
        assert point.key == "c{tenant=a}"
        assert point.value == 8
        assert point.delta == 3
        assert point.rate == pytest.approx(1.5)

    def test_counter_restart_clamps_delta(self) -> None:
        registry, collector = make_collector()
        registry.counter("c").inc(10)
        collector.tick(now=0.0)
        registry.reset()
        registry.counter("c").inc(2)
        (point,) = collector.tick(now=1.0)
        assert point.delta == 2  # not -8

    def test_gauge_sampled_as_level(self) -> None:
        registry, collector = make_collector()
        level = {"g": 4.0}
        registry.gauge_fn("g", lambda: level["g"])
        collector.tick(now=0.0)
        level["g"] = 7.5
        (point,) = collector.tick(now=1.0)
        assert point.kind == "gauge"
        assert point.value == 7.5
        assert point.delta == 0.0 and point.rate == 0.0

    def test_histogram_interval_quantiles(self) -> None:
        registry, collector = make_collector()
        hist = registry.histogram("h")
        hist.record(1e-3)
        collector.tick(now=0.0)
        for value in (1e-3, 2e-3, 50e-3):
            hist.record(value)
        (point,) = collector.tick(now=1.0)
        assert point.kind == "histogram"
        assert point.delta == 3  # interval observations, not cumulative
        assert point.p50 == pytest.approx(2e-3, rel=0.25)
        assert point.p99 == pytest.approx(50e-3, rel=0.25)
        assert point.buckets and all(v > 0 for v in point.buckets.values())

    def test_quiet_histogram_interval_has_no_quantiles(self) -> None:
        registry, collector = make_collector()
        registry.histogram("h").record(1e-3)
        collector.tick(now=0.0)
        (point,) = collector.tick(now=1.0)
        assert point.delta == 0
        assert point.p50 is None and point.p99 is None and point.mean is None

    def test_time_must_strictly_advance(self) -> None:
        _, collector = make_collector()
        collector.tick(now=1.0)
        with pytest.raises(InvalidParameterError, match="advance"):
            collector.tick(now=1.0)

    def test_metric_created_after_baseline_counts_from_zero(self) -> None:
        registry, collector = make_collector()
        collector.tick(now=0.0)
        registry.counter("late").inc(4)
        (point,) = collector.tick(now=2.0)
        assert point.key == "late"
        assert point.delta == 4
        assert point.rate == pytest.approx(2.0)

    def test_histogram_restart_diffs_against_zero(self) -> None:
        registry, collector = make_collector()
        for value in (1e-3, 2e-3, 3e-3):
            registry.histogram("h").record(value)
        collector.tick(now=0.0)
        registry.reset()
        registry.histogram("h").record(5e-3)
        (point,) = collector.tick(now=1.0)
        assert point.value == 1
        assert point.delta == 1  # not -2
        assert point.total == pytest.approx(5e-3)
        assert sum(point.buckets.values()) == 1

    def test_invalid_interval_and_capacity_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="interval"):
            TelemetryCollector(MetricsRegistry(), interval=0.0)
        with pytest.raises(InvalidParameterError, match="capacity"):
            TimeSeriesStore(capacity=0)

    def test_background_thread_collects(self) -> None:
        registry, collector = make_collector(interval=0.01)
        counter = registry.counter("c")
        with collector:
            deadline = time.monotonic() + 2.0
            while len(collector.store) == 0 and time.monotonic() < deadline:
                counter.inc()
                time.sleep(0.002)
        assert len(collector.store) > 0
        assert collector.store.latest("c").kind == "counter"


class TestLifecycle:
    """``start``/``stop`` on an injected clock.  The hour-long interval keeps
    the background thread from ticking, so every point comes from the
    synchronous baseline and the final tick."""

    def test_start_baselines_and_stop_takes_a_final_tick(self) -> None:
        readings = iter([10.0, 15.0])
        registry = MetricsRegistry()
        collector = TelemetryCollector(
            registry, interval=3600.0, clock=lambda: next(readings)
        )
        registry.counter("c").inc(2)
        assert collector.start() is collector
        assert collector.start() is collector  # idempotent while running
        assert collector.last_tick == 10.0
        assert len(collector.store) == 0
        registry.counter("c").inc(3)
        collector.stop()
        (point,) = collector.store.points("c")
        assert point.time == 15.0
        assert point.delta == 3
        assert point.rate == pytest.approx(3 / 5)

    def test_stop_without_final_tick_records_nothing(self) -> None:
        registry, collector = make_collector(interval=3600.0)
        collector.start()
        registry.counter("c").inc()
        collector.stop(final_tick=False)
        assert len(collector.store) == 0
        collector.stop()  # no longer running: a no-op
        assert len(collector.store) == 0


class TestStoreAndRollups:
    def fill(self, deltas, times=None) -> TimeSeriesStore:
        store = TimeSeriesStore()
        times = times or [float(i) for i in range(1, len(deltas) + 1)]
        for t, d in zip(times, deltas):
            store.append(
                SeriesPoint(
                    time=t, metric="c", labels=(), kind="counter",
                    value=sum(deltas[: deltas.index(d) + 1]), delta=d, rate=d,
                )
            )
        return store

    def test_rollup_rate(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        roll = store.rollup("c", window=None)
        assert roll.points == 3
        assert roll.delta == 60.0
        assert roll.rate == pytest.approx(60.0 / 3.0)

    def test_gauge_rollup_quantiles_over_values(self) -> None:
        store = TimeSeriesStore()
        for i, value in enumerate([5.0, 1.0, 3.0]):
            store.append(
                SeriesPoint(
                    time=float(i), metric="g", labels=(), kind="gauge",
                    value=value, delta=0.0, rate=0.0,
                )
            )
        roll = store.rollup("g", window=None)
        assert roll.mean == pytest.approx(3.0)
        assert roll.p50 == 3.0
        assert roll.p99 == 5.0

    def test_window_restricts_points(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        roll = store.rollup("c", window=1.5)
        assert roll.points == 2
        assert roll.delta == 50.0
        # The window is (last - window, last]: the point stamped at the
        # cutoff closes an interval that ends there, outside the window.
        roll = store.rollup("c", window=1.0)
        assert roll.points == 1
        assert roll.delta == 30.0
        assert roll.rate == pytest.approx(30.0)

    def test_fixed_grid_window_holds_exactly_window_intervals(self) -> None:
        # Ticks every 0.1 s land one point exactly on the cutoff of a 0.5 s
        # window; its interval ends there, so five intervals remain.
        registry, collector = make_collector(interval=0.1)
        counter = registry.counter("c")
        collector.tick(now=0.0)
        for k in range(1, 21):
            counter.inc(k)
            collector.tick(now=k / 10)
        roll = collector.store.rollup("c", window=0.5)
        assert roll.points == 5
        assert roll.delta == 16 + 17 + 18 + 19 + 20
        assert roll.rate == pytest.approx(180.0)

    def test_window_wider_than_history_covers_everything(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        wide = store.rollup("c", window=100.0)
        everything = store.rollup("c", window=None)
        assert (wide.points, wide.delta, wide.rate) == (
            everything.points, everything.delta, everything.rate,
        )
        assert wide.window == 100.0
        assert everything.window == pytest.approx(3.0)  # the covered span

    def test_rollup_rejects_non_positive_window(self) -> None:
        store = self.fill([10.0])
        for window in (0.0, -1.0):
            with pytest.raises(InvalidParameterError, match="window"):
                store.rollup("c", window=window)

    def test_window_rate(self) -> None:
        store = self.fill([10.0, 20.0, 30.0])
        assert store.window_rate("c", window=1.5) == pytest.approx(50.0 / 2.0)
        assert store.window_rate("missing", window=1.5) == 0.0

    def test_histogram_rollup_merges_interval_buckets(self) -> None:
        registry, collector = make_collector()
        hist = registry.histogram("h")
        collector.tick(now=0.0)
        hist.record(100e-3)  # one slow outlier in the first interval
        collector.tick(now=1.0)
        for now in (2.0, 3.0):
            hist.record(1e-3)
            hist.record(2e-3)
            collector.tick(now=now)
        recent = collector.store.rollup("h", window=2.0)
        assert recent.points == 2
        assert recent.delta == 4
        assert recent.mean == pytest.approx(1.5e-3)
        assert recent.p50 == pytest.approx(1e-3, rel=0.25)
        assert recent.p99 == pytest.approx(2e-3, rel=0.25)  # outlier aged out
        everything = collector.store.rollup("h", window=None)
        assert everything.delta == 5
        assert everything.p99 == pytest.approx(100e-3, rel=0.25)

    def test_unknown_series_rollup_is_none(self) -> None:
        store = TimeSeriesStore()
        assert store.rollup("missing", window=None) is None

    def test_iteration_is_series_sorted_then_oldest_first(self) -> None:
        store = TimeSeriesStore()
        for t, metric in ((1.0, "b"), (2.0, "a"), (3.0, "b")):
            store.append(
                SeriesPoint(
                    time=t, metric=metric, labels=(), kind="counter",
                    value=t, delta=1.0, rate=1.0,
                )
            )
        assert [(p.metric, p.time) for p in store] == [("a", 2.0), ("b", 1.0), ("b", 3.0)]
        assert len(store) == 3
        assert store.latest("b").time == 3.0
        assert store.latest("missing") is None
        assert store.points("missing") == []

    def test_counter_record_carries_no_histogram_fields(self) -> None:
        point = SeriesPoint(
            time=1.0, metric="c", labels=(("tenant", "a"),), kind="counter",
            value=3.0, delta=1.0, rate=0.5,
        )
        record = point.to_record()
        assert set(record) == {"time", "metric", "labels", "kind", "value", "delta", "rate"}
        assert record["labels"] == {"tenant": "a"}
        assert SeriesPoint.from_record(record) == point

    def test_payload_without_points_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="points"):
            store_from_payload({"interval": 1.0})

    def test_payload_keeps_capacity(self) -> None:
        store = TimeSeriesStore(capacity=2)
        for i in range(3):
            store.append(
                SeriesPoint(
                    time=float(i), metric="c", labels=(), kind="counter",
                    value=float(i), delta=1.0, rate=1.0,
                )
            )
        rebuilt = store_from_payload(series_payload(store))
        assert rebuilt.capacity == 2
        assert rebuilt.points("c") == store.points("c")

    def test_payload_round_trip_exact(self) -> None:
        registry, collector = make_collector()
        registry.counter("c", tenant="a").inc(2)
        registry.histogram("h").record(1e-3)
        collector.tick(now=0.0)
        registry.counter("c", tenant="a").inc(1)
        registry.histogram("h").record(2e-3)
        collector.tick(now=1.0)
        payload = collector.series_payload(run="test")
        rebuilt = store_from_payload(payload)
        assert sorted(rebuilt.keys()) == sorted(collector.store.keys())
        for key in rebuilt.keys():
            assert rebuilt.points(key) == collector.store.points(key)
        assert payload["run"] == "test"
        assert payload == series_payload(
            collector.store, interval=collector.interval, run="test"
        )


# -- property-based invariants ------------------------------------------------

increments = st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=30)


class TestProperties:
    @given(increments)
    @settings(max_examples=50, deadline=None)
    def test_counter_deltas_never_negative(self, incs) -> None:
        registry, collector = make_collector()
        counter = registry.counter("c")
        collector.tick(now=0.0)
        for i, inc in enumerate(incs):
            counter.inc(inc)
            for point in collector.tick(now=float(i + 1)):
                assert point.delta >= 0
                assert point.rate >= 0

    @given(increments)
    @settings(max_examples=50, deadline=None)
    def test_tick_batching_preserves_counter_totals(self, incs) -> None:
        # One tick after all increments vs. a tick per increment: the summed
        # deltas must agree — sampling cadence never loses or invents events.
        reg_a, coarse = make_collector()
        reg_b, fine = make_collector()
        coarse.tick(now=0.0)
        fine.tick(now=0.0)
        for i, inc in enumerate(incs):
            reg_a.counter("c").inc(inc)
            reg_b.counter("c").inc(inc)
            fine.tick(now=float(i + 1))
        coarse.tick(now=float(len(incs)))
        fine_total = sum(p.delta for p in fine.store.points("c"))
        (coarse_point,) = coarse.store.points("c")
        assert coarse_point.delta == fine_total == sum(incs)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_ring_buffer_keeps_newest_capacity_points(self, capacity, n) -> None:
        store = TimeSeriesStore(capacity=capacity)
        for i in range(n):
            store.append(
                SeriesPoint(
                    time=float(i), metric="c", labels=(), kind="counter",
                    value=float(i), delta=1.0, rate=1.0,
                )
            )
        points = store.points("c")
        assert len(points) == min(capacity, n)
        assert [p.time for p in points] == [float(i) for i in range(max(0, n - capacity), n)]
