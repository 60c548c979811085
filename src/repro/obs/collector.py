"""Telemetry time-series collection: snapshot diffing, ring buffers, rollups.

A :class:`MetricsRegistry` snapshot is a point-in-time blob of cumulative
totals.  This module turns consecutive snapshots into *series*:

* :class:`TelemetryCollector` samples a registry — on an explicit
  :meth:`~TelemetryCollector.tick` (deterministic tests, virtual-time
  simulator runs) or on a background thread at a configurable ``interval``
  (live processes) — and diffs each snapshot against the previous one into
  one :class:`SeriesPoint` per metric: counter deltas and rates, gauge
  values, histogram count/sum deltas with per-interval bucket deltas and
  quantile readouts.
* :class:`TimeSeriesStore` retains the points in per-series bounded ring
  buffers (oldest points evicted first) and answers **windowed rollups**
  over a trailing time window: rate, mean, and p50/p95/p99 — histogram
  quantiles are computed by summing the retained interval bucket deltas and
  walking the shared :meth:`LatencyHistogram.quantile_from_counts` readout,
  so a trailing-window p99 is exactly as accurate as the histogram itself.

The diffing contract, pinned by the hypothesis suite:

* counter deltas are never negative across monotone updates — a smaller
  cumulative value (a registry ``reset()``) is treated as a restart and the
  delta clamps to the new cumulative value;
* tick batching is invariant for counters — the summed deltas of two ticks
  equal the delta of one tick spanning the union of updates;
* ring-buffer eviction preserves the newest ``capacity`` points per series.

The first ``tick()`` establishes the baseline snapshot and emits no points
(there is no previous snapshot to diff against); every later tick emits one
point per metric present in the new snapshot.  ``tick(now=...)`` accepts an
explicit timestamp so virtual-time consumers (the traffic simulator) drive
the collector on their own clock; without one, ``time.monotonic()`` is used.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.core.errors import InvalidParameterError
from repro.obs.metrics import LabelsT, LatencyHistogram, metric_key

__all__ = [
    "SeriesPoint",
    "TimeSeriesStore",
    "TelemetryCollector",
    "WindowRollup",
    "series_payload",
    "store_from_payload",
]

#: Quantile readouts carried on every histogram point.
_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class SeriesPoint:
    """One sampled interval of one metric series.

    ``value`` is the cumulative reading at the tick (counter total, gauge
    value, histogram count); ``delta`` is the change over the interval
    (clamped at the new cumulative value when the underlying metric
    restarted) and ``rate`` is ``delta / dt``.  Histogram points also carry
    ``total`` (the interval's summed observations), ``mean``
    (``total/delta``), the interval ``buckets`` deltas (sparse
    ``{index: count}``) and per-interval ``p50``/``p95``/``p99`` readouts;
    those fields are ``None`` on counter/gauge points.
    """

    time: float
    metric: str
    labels: LabelsT
    kind: str  # "counter" | "gauge" | "histogram"
    value: float
    delta: float
    rate: float
    total: float | None = None
    mean: float | None = None
    p50: float | None = None
    p95: float | None = None
    p99: float | None = None
    buckets: Mapping[str, int] | None = None

    @property
    def key(self) -> str:
        """The stable series key (``name{label=value,...}``)."""
        return metric_key(self.metric, self.labels)

    def to_record(self) -> dict[str, Any]:
        """Flat JSON-native record — one exporter row per point."""
        record: dict[str, Any] = {
            "time": self.time,
            "metric": self.metric,
            "labels": dict(self.labels),
            "kind": self.kind,
            "value": self.value,
            "delta": self.delta,
            "rate": self.rate,
        }
        if self.kind == "histogram":
            record.update(
                {
                    "total": self.total,
                    "mean": self.mean,
                    "p50": self.p50,
                    "p95": self.p95,
                    "p99": self.p99,
                    "buckets": dict(self.buckets or {}),
                }
            )
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SeriesPoint":
        """Inverse of :meth:`to_record` (exporter load-back)."""
        labels = tuple(sorted((str(k), str(v)) for k, v in record["labels"].items()))
        buckets = record.get("buckets")
        return cls(
            time=float(record["time"]),
            metric=str(record["metric"]),
            labels=labels,
            kind=str(record["kind"]),
            value=float(record["value"]),
            delta=float(record["delta"]),
            rate=float(record["rate"]),
            total=record.get("total"),
            mean=record.get("mean"),
            p50=record.get("p50"),
            p95=record.get("p95"),
            p99=record.get("p99"),
            buckets=dict(buckets) if buckets is not None else None,
        )


@dataclass(frozen=True)
class WindowRollup:
    """Trailing-window aggregate of one series (see :meth:`TimeSeriesStore.rollup`)."""

    key: str
    window: float
    points: int
    delta: float
    rate: float
    mean: float | None
    p50: float | None
    p95: float | None
    p99: float | None


class TimeSeriesStore:
    """Bounded per-series ring buffers of :class:`SeriesPoint` with rollups.

    ``capacity`` bounds each series independently; appending to a full
    series evicts its oldest point, so a long-running collector holds the
    newest ``capacity`` intervals per metric in O(series × capacity) memory.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be positive")
        self.capacity = int(capacity)
        self._series: dict[str, deque[SeriesPoint]] = {}
        self._lock = threading.Lock()

    def append(self, point: SeriesPoint) -> None:
        """Add one point (oldest evicted once the series is at capacity)."""
        with self._lock:
            series = self._series.get(point.key)
            if series is None:
                series = deque(maxlen=self.capacity)
                self._series[point.key] = series
            series.append(point)

    def keys(self) -> list[str]:
        """All series keys, sorted."""
        with self._lock:
            return sorted(self._series)

    def points(self, key: str) -> list[SeriesPoint]:
        """The retained points of one series, oldest first."""
        with self._lock:
            return list(self._series.get(key, ()))

    def latest(self, key: str) -> SeriesPoint | None:
        """The newest point of one series (``None`` when empty/unknown)."""
        with self._lock:
            series = self._series.get(key)
            return series[-1] if series else None

    def __len__(self) -> int:
        """Total retained points across every series."""
        with self._lock:
            return sum(len(s) for s in self._series.values())

    def __iter__(self) -> Iterator[SeriesPoint]:
        """Every retained point, series-sorted then oldest first."""
        with self._lock:
            snapshot = [list(self._series[key]) for key in sorted(self._series)]
        for series in snapshot:
            yield from series

    # -- windowed rollups ------------------------------------------------------
    def _window_points(self, key: str, window: float | None) -> list[SeriesPoint]:
        points = self.points(key)
        if not points or window is None:
            return points
        if window <= 0:
            raise InvalidParameterError("window must be positive")
        cutoff = points[-1].time - window
        # Points are time-ordered; bisect on the timestamps.  A point stamped
        # at the cutoff closes an interval that ends there, wholly outside
        # the window (cutoff, last], so it is excluded.
        times = [p.time for p in points]
        return points[bisect_right(times, cutoff):]

    def rollup(self, key: str, window: float | None = None) -> WindowRollup | None:
        """Aggregate the trailing ``window`` seconds of one series.

        ``window=None`` rolls up everything retained.  ``rate`` is the
        summed delta over the covered time span (interval widths, including
        the first point's own ``delta/rate`` width, so a single point rolls
        up to its own rate); histogram ``mean`` and quantiles are computed
        from the summed interval totals and bucket deltas — gauge quantiles
        use the point values directly (``inverted_cdf`` rank).  Returns
        ``None`` for an unknown/empty series.
        """
        points = self._window_points(key, window)
        if not points:
            return None
        delta = sum(p.delta for p in points)
        span = points[-1].time - points[0].time
        # The first retained point covers the interval *ending* at its
        # timestamp; recover that width from its own rate so a one-point
        # window still reports a meaningful rate.
        first = points[0]
        lead = first.delta / first.rate if first.rate > 0 else 0.0
        span += lead
        rate = delta / span if span > 0 else 0.0
        kind = points[-1].kind
        mean = p50 = p95 = p99 = None
        if kind == "histogram":
            total = sum(p.total or 0.0 for p in points)
            count = delta
            mean = total / count if count else None
            merged: dict[int, int] = {}
            for point in points:
                for index, bucket in (point.buckets or {}).items():
                    merged[int(index)] = merged.get(int(index), 0) + int(bucket)
            if merged:
                p50, p95, p99 = (
                    LatencyHistogram.quantile_from_counts(merged, q)
                    for q in _QUANTILES
                )
        elif kind == "gauge":
            values = sorted(p.value for p in points)
            mean = sum(values) / len(values)

            def _q(q: float) -> float:
                rank = max(int(math.ceil(q * len(values))), 1)
                return values[rank - 1]

            p50, p95, p99 = (_q(q) for q in _QUANTILES)
        return WindowRollup(
            key=key,
            window=window if window is not None else span,
            points=len(points),
            delta=delta,
            rate=rate,
            mean=mean,
            p50=p50,
            p95=p95,
            p99=p99,
        )

    def window_rate(self, key: str, window: float | None = None) -> float:
        """Trailing-window rate (0.0 for an unknown/empty series)."""
        rollup = self.rollup(key, window)
        return rollup.rate if rollup is not None else 0.0


def series_payload(
    store: TimeSeriesStore, *, interval: float | None = None, **meta: Any
) -> dict[str, Any]:
    """Render a store as one JSON-native payload (exporter input).

    One flat record per point under ``"points"``, plus the sampling
    ``interval`` and any extra ``meta`` keys — the shape every exporter
    (JSON, JSONL, CSV) round-trips and the dashboard renders.
    """
    payload: dict[str, Any] = dict(meta)
    if interval is not None:
        payload["interval"] = float(interval)
    payload["capacity"] = store.capacity
    payload["points"] = [point.to_record() for point in store]
    return payload


def store_from_payload(payload: Mapping[str, Any]) -> TimeSeriesStore:
    """Rebuild a :class:`TimeSeriesStore` from a :func:`series_payload` dict."""
    try:
        records = payload["points"]
    except KeyError:
        raise InvalidParameterError(
            "not a collector series payload: missing 'points'"
        ) from None
    store = TimeSeriesStore(capacity=int(payload.get("capacity", 4096)))
    for record in records:
        store.append(SeriesPoint.from_record(record))
    return store


@dataclass
class _HistogramBaseline:
    count: int = 0
    total: float = 0.0
    buckets: dict[str, int] = field(default_factory=dict)


class TelemetryCollector:
    """Sample a registry on an interval and diff snapshots into rate series.

    Parameters
    ----------
    registry:
        Anything with a ``snapshot()`` returning the
        :meth:`MetricsRegistry.snapshot` payload shape.
    interval:
        Sampling period in seconds — used by the background thread
        (:meth:`start`/:meth:`stop`) and recorded in exported payloads.
        Explicit :meth:`tick` calls may use any cadence.
    capacity:
        Per-series ring-buffer bound of the backing :class:`TimeSeriesStore`.
    clock:
        Timestamp source when ``tick(now=None)`` (default
        ``time.monotonic``); virtual-time consumers pass ``now`` explicitly
        instead.
    """

    def __init__(
        self,
        registry: Any,
        interval: float = 1.0,
        capacity: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise InvalidParameterError("interval must be positive")
        self.registry = registry
        self.interval = float(interval)
        self.store = TimeSeriesStore(capacity=capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._last_time: float | None = None
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, _HistogramBaseline] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def last_tick(self) -> float | None:
        """Timestamp of the latest tick (``None`` before the baseline)."""
        return self._last_time

    # -- sampling --------------------------------------------------------------
    def tick(self, now: float | None = None) -> list[SeriesPoint]:
        """Take one sample: snapshot, diff, retain; returns the new points.

        The first call records the baseline and returns ``[]``.  ``now``
        must be strictly greater than the previous tick's timestamp.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            points = self._tick_locked(float(now))
        for point in points:
            self.store.append(point)
        return points

    def _tick_locked(self, now: float) -> list[SeriesPoint]:
        snapshot = self.registry.snapshot()
        last = self._last_time
        if last is not None and now <= last:
            raise InvalidParameterError(
                f"tick time {now} must advance past the previous tick {last}"
            )
        baseline = last is None
        dt = (now - last) if last is not None else self.interval
        points: list[SeriesPoint] = []

        counters: dict[str, float] = {}
        for key, data in snapshot.get("counters", {}).items():
            value = float(data["value"])
            counters[key] = value
            if baseline:
                continue
            previous = self._counters.get(key, 0.0)
            # A cumulative value below the baseline means the metric was
            # dropped and recreated (registry reset): restart from zero
            # rather than emitting a negative delta.
            delta = value - previous if value >= previous else value
            points.append(
                SeriesPoint(
                    time=now,
                    metric=str(data["name"]),
                    labels=_labels(data),
                    kind="counter",
                    value=value,
                    delta=delta,
                    rate=delta / dt,
                )
            )
        self._counters = counters

        if not baseline:
            for key, data in snapshot.get("gauges", {}).items():
                value = float(data["value"])
                points.append(
                    SeriesPoint(
                        time=now,
                        metric=str(data["name"]),
                        labels=_labels(data),
                        kind="gauge",
                        value=value,
                        delta=0.0,
                        rate=0.0,
                    )
                )

        histograms: dict[str, _HistogramBaseline] = {}
        for key, data in snapshot.get("histograms", {}).items():
            count = int(data["count"])
            total = float(data["sum"])
            buckets = {str(k): int(v) for k, v in data.get("buckets", {}).items()}
            histograms[key] = _HistogramBaseline(count, total, buckets)
            if baseline:
                continue
            previous = self._histograms.get(key, _HistogramBaseline())
            if count < previous.count:  # restarted histogram: diff against zero
                previous = _HistogramBaseline()
            delta = count - previous.count
            total_delta = total - previous.total
            bucket_deltas = {
                index: bucket - previous.buckets.get(index, 0)
                for index, bucket in buckets.items()
                if bucket - previous.buckets.get(index, 0)
            }
            quantiles = (
                {
                    f"p{round(q * 100):d}": LatencyHistogram.quantile_from_counts(
                        bucket_deltas, q
                    )
                    for q in _QUANTILES
                }
                if bucket_deltas
                else {}
            )
            points.append(
                SeriesPoint(
                    time=now,
                    metric=str(data["name"]),
                    labels=_labels(data),
                    kind="histogram",
                    value=float(count),
                    delta=float(delta),
                    rate=delta / dt,
                    total=total_delta,
                    mean=(total_delta / delta) if delta else None,
                    p50=quantiles.get("p50"),
                    p95=quantiles.get("p95"),
                    p99=quantiles.get("p99"),
                    buckets=bucket_deltas,
                )
            )
        self._histograms = histograms
        self._last_time = now
        return points

    # -- background sampling ---------------------------------------------------
    def start(self) -> "TelemetryCollector":
        """Begin background sampling every ``interval`` seconds (daemon thread).

        The baseline snapshot is taken synchronously before the thread
        starts, so the first background tick already emits points.  Returns
        ``self`` for chaining; idempotent while running.
        """
        with self._lock:
            if self._thread is not None:
                return self
            if self._last_time is None:
                self._tick_locked(self._clock())
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="telemetry-collector", daemon=True
            )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def stop(self, final_tick: bool = True) -> None:
        """Stop the background thread (one final sample first by default)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join()
        if final_tick:
            now = self._clock()
            if self._last_time is None or now > self._last_time:
                self.tick(now)

    def __enter__(self) -> "TelemetryCollector":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- export ----------------------------------------------------------------
    def series_payload(self, **meta: Any) -> dict[str, Any]:
        """The retained series as one JSON-native payload (exporter input)."""
        return series_payload(self.store, interval=self.interval, **meta)


def _labels(data: Mapping[str, Any]) -> LabelsT:
    return tuple(sorted((str(k), str(v)) for k, v in data.get("labels", {}).items()))
