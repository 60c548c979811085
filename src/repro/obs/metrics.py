"""Lightweight, dependency-free telemetry primitives.

A :class:`MetricsRegistry` owns named, labelled metrics of three kinds:

* :class:`Counter` — monotonically increasing totals (requests, rows, ...).
* Gauges — instantaneous values, each a *callback* registered with
  ``gauge_fn`` and evaluated lazily at snapshot time, so hot paths that
  already maintain their own counters (the serving cache) are exported with
  **zero** per-event overhead.
* :class:`LatencyHistogram` — a streaming, log-bucketed latency histogram:
  O(1) bounded memory, O(log buckets) ``record`` (one ``bisect`` into a
  precomputed geometric edge table), and quantile readouts that are exact to
  within one bucket (~12% relative, 20 buckets per decade) — the resolution
  SLO gates need for p50/p95/p99 without retaining samples.

Instrumented layers follow one discipline: the *no-op default*.  Every
instrumentation point is either guarded by an ``is not None`` /
``registry.enabled`` check or records into :data:`NULL_REGISTRY`, whose
metric objects are inert singletons — so an uninstrumented hot path pays one
attribute load and a branch, nothing more.

Registries are process-local *sinks*, not model state: ``copy.deepcopy`` of
an object holding a registry reference (a served model checked out for a
copy-on-write update) carries the *same* registry along
(:class:`~repro.core.slot.CopyByReference`).

:func:`hit_rate` is the single shared hit-rate computation used by the
serving layer (``ServerCacheInfo.hit_rate`` and ``EstimatorServer.stats()``).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from time import perf_counter
from typing import Any, Callable, ContextManager, Mapping, Sequence

from repro.core.errors import InvalidParameterError
from repro.core.slot import CopyByReference, Slot

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "default_metrics",
    "set_default_metrics",
    "use_default_metrics",
    "hit_rate",
    "metric_key",
]

LabelsT = tuple[tuple[str, str], ...]


def hit_rate(hits: int, misses: int) -> float:
    """Fraction of requests answered from a cache (0.0 under zero traffic).

    The one shared definition of "hit rate" in the repo — the serving layer's
    ``ServerCacheInfo.hit_rate`` and ``EstimatorServer.stats()`` both defer
    here instead of re-deriving it.
    """
    total = hits + misses
    return hits / total if total else 0.0


def metric_key(name: str, labels: LabelsT) -> str:
    """Render ``name`` + sorted labels as one stable string key.

    ``"serve.requests{tenant=a,op=query}"`` — the key used in snapshots and
    exports, so two registries recording the same series produce comparable
    payloads.
    """
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def _labels_tuple(labels: Mapping[str, object]) -> LabelsT:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelsT = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise InvalidParameterError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels), "value": self._value}


def _geometric_edges(
    low: float, high: float, per_decade: int
) -> tuple[float, ...]:
    decades = math.log10(high) - math.log10(low)
    steps = int(round(decades * per_decade))
    lo = math.log10(low)
    return tuple(10.0 ** (lo + i / per_decade) for i in range(steps + 1))


class LatencyHistogram:
    """Streaming log-bucketed histogram of positive values (seconds).

    Buckets are geometric with :data:`BUCKETS_PER_DECADE` buckets per decade
    between :data:`LOW` and :data:`HIGH`; values outside the range land in
    the underflow/overflow buckets, whose quantile representative is the
    exact observed min/max.  ``record`` is one ``bisect`` plus a lock-free
    handful of scalar updates; quantile readout walks the cumulative counts
    and returns the geometric midpoint of the bucket holding the requested
    rank, clamped into ``[min, max]`` — so it agrees with
    ``np.quantile(values, q, method="inverted_cdf")`` to within one bucket
    (a factor of :data:`GROWTH`), which the hypothesis suite pins.
    """

    #: Bucket range in seconds: 100 ns .. 100 s.
    LOW = 1e-7
    HIGH = 1e2
    BUCKETS_PER_DECADE = 20
    #: Relative width of one bucket — the quantile error bound.
    GROWTH = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
    _EDGES = _geometric_edges(LOW, HIGH, BUCKETS_PER_DECADE)

    __slots__ = ("name", "labels", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, labels: LabelsT = ()) -> None:
        self.name = name
        self.labels = labels
        self._counts = [0] * (len(self._EDGES) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Fold one observation in (O(log buckets), bounded memory).

        ``record`` is deliberately lock-free: this is the serving hot path,
        and the 0.95x overhead gate budgets well under a microsecond per
        request — less than a lock round-trip.  Each update is one
        read-modify-write that the GIL makes atomic except across a
        preemption point, so concurrent recorders can in principle drop an
        occasional observation; that is the accepted telemetry trade-off
        (quantiles are estimates to one bucket anyway).  Readers
        (:meth:`quantile`, :meth:`snapshot`) take the lock so a readout is a
        single point-in-time view.
        """
        index = bisect_right(self._EDGES, value)
        self._counts[index] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (exact to within one bucket).

        Returns 0.0 on an empty histogram.  The readout is the smallest
        bucket whose cumulative count reaches ``ceil(q * count)`` — the
        ``inverted_cdf`` quantile definition.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError("quantile must lie in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            counts = list(self._counts)
            low, high = self._min, self._max
        return self.quantile_from_counts(counts, q, low=low, high=high)

    @classmethod
    def quantile_from_counts(
        cls,
        counts: "Sequence[int] | Mapping[int, int] | Mapping[str, int]",
        q: float,
        *,
        low: float | None = None,
        high: float | None = None,
    ) -> float:
        """Quantile readout over raw bucket counts (same walk as :meth:`quantile`).

        ``counts`` is either the dense per-index count list or the sparse
        ``{index: count}`` mapping that :meth:`snapshot` emits (string keys
        accepted, so exported snapshots and collector bucket *deltas* feed in
        unchanged).  ``low``/``high`` clamp the readout — pass the observed
        min/max when known; they default to the bucket range.  Returns 0.0
        when the counts are empty.  This is the shared quantile definition
        the telemetry collector uses for windowed p50/p95/p99 rollups over
        summed interval bucket deltas.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError("quantile must lie in [0, 1]")
        if isinstance(counts, Mapping):
            dense = [0] * (len(cls._EDGES) + 1)
            for index, count in counts.items():
                dense[int(index)] += int(count)
            counts = dense
        low = cls.LOW if low is None else low
        high = cls.HIGH if high is None else high
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = max(int(math.ceil(q * total)), 1)
        cumulative = 0
        for index, bucket in enumerate(counts):
            cumulative += bucket
            if cumulative >= rank:
                if index == 0:
                    value = low
                elif index >= len(cls._EDGES):
                    value = high
                else:
                    value = math.sqrt(cls._EDGES[index - 1] * cls._EDGES[index])
                return min(max(value, low), high)
        # Reachable only when a concurrent lock-free record left the bucket
        # sum momentarily behind the total: the max is the safe answer.
        return high  # pragma: no cover

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` convenience readout."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            low = self._min if count else None
            high = self._max if count else None
        payload: dict[str, Any] = {
            "name": self.name,
            "labels": dict(self.labels),
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "buckets": {str(i): c for i, c in enumerate(counts) if c},
        }
        payload.update(
            {key: (value if count else None) for key, value in self.quantiles().items()}
        )
        return payload


class _Timer:
    """Context manager recording one elapsed wall-clock span."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "LatencyHistogram | _NullHistogram") -> None:
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._histogram.record(perf_counter() - self._start)


class MetricsRegistry(CopyByReference):
    """Process-local store of named, labelled metrics.

    ``counter`` / ``histogram`` are get-or-create (same name and labels →
    same object), ``timer`` wraps a histogram in a context manager,
    ``gauge_fn`` registers a callback gauge evaluated at snapshot time, and
    :meth:`snapshot` renders everything as one JSON-native dict that the
    :mod:`repro.obs.export` exporters round-trip losslessly.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._callbacks: dict[str, tuple[str, LabelsT, Callable[[], float]]] = {}

    # -- get-or-create -------------------------------------------------------
    def _get(self, table: dict, factory: type, name: str, labels: Mapping) -> Any:
        key = metric_key(name, _labels_tuple(labels))
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.get(key)
                if metric is None:
                    metric = factory(name, _labels_tuple(labels))
                    table[key] = metric
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def histogram(self, name: str, **labels: object) -> LatencyHistogram:
        return self._get(self._histograms, LatencyHistogram, name, labels)

    def timer(self, name: str, **labels: object) -> _Timer:
        """``with registry.timer("persist.publish_seconds"): ...``"""
        return _Timer(self.histogram(name, **labels))

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: object) -> None:
        """Register a callback gauge evaluated lazily at snapshot time.

        The zero-overhead exporter hook for layers that already keep their
        own counters: nothing is recorded per event, the callback is read
        when a snapshot is taken.
        """
        key = metric_key(name, _labels_tuple(labels))
        with self._lock:
            self._callbacks[key] = (name, _labels_tuple(labels), fn)

    # -- read side -----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-native payload (exporter input)."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            callbacks = dict(self._callbacks)
        payload: dict[str, Any] = {
            "counters": {key: m.snapshot() for key, m in counters.items()},
            "gauges": {},
            "histograms": {key: m.snapshot() for key, m in histograms.items()},
        }
        for key, (name, labels, fn) in callbacks.items():
            payload["gauges"][key] = {
                "name": name,
                "labels": dict(labels),
                "value": float(fn()),
            }
        return payload

    def reset(self) -> None:
        """Drop recorded counters and histograms; keep callback gauges.

        The benchmark-phase / long-running-collector boundary: accumulated
        event series are cleared so the next phase starts from zero, while
        callback gauges registered with :meth:`gauge_fn` survive — they are
        *live views* onto their owner's state (the serving cache counters,
        the current generation), and dropping the registration would silently
        un-instrument a still-running server.  Because callbacks read live
        state, ``reset()`` does **not** zero what they report: to zero the
        serving counters behind ``serve.cache_hits``/``serve.cache_misses``,
        call :meth:`EstimatorServer.reset_stats` — the two resets compose
        (registry ``reset()`` for recorded series, server ``reset_stats()``
        for the counters its callbacks expose).  A
        :class:`~repro.obs.collector.TelemetryCollector` observing this
        registry sees the drop as a restart and clamps counter deltas at the
        new cumulative value rather than emitting negative rates.
        """
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


# ---------------------------------------------------------------------------
# The no-op default
# ---------------------------------------------------------------------------


class _NullMetric(CopyByReference):
    """Inert counter singleton: every mutation is a no-op."""

    __slots__ = ()
    name = "null"
    labels: LabelsT = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}


class _NullHistogram(_NullMetric):
    __slots__ = ()
    count = 0
    sum = 0.0
    mean = 0.0

    def record(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        return {}


_NULL_METRIC = _NullMetric()
_NULL_HISTOGRAM = _NullHistogram()


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class NullRegistry(CopyByReference):
    """The no-op registry: accepts every call, records nothing.

    Instrumented layers default to this, so telemetry costs one attribute
    load and a branch until a real :class:`MetricsRegistry` is wired in.
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels: object) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str, **labels: object) -> _NullTimer:
        return _NULL_TIMER

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: object) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# Process-default registry (the CLI's --telemetry hook)
# ---------------------------------------------------------------------------

_DEFAULT: "Slot[MetricsRegistry | NullRegistry]" = Slot(NULL_REGISTRY)


def default_metrics() -> "MetricsRegistry | NullRegistry":
    """The process-default registry (:data:`NULL_REGISTRY` until one is set).

    Instrumented constructors resolve ``metrics=None`` through this, so one
    :func:`set_default_metrics` / :func:`use_default_metrics` call
    instruments every layer built afterwards without threading a registry
    through each signature.
    """
    return _DEFAULT.value


def set_default_metrics(registry: "MetricsRegistry | None") -> None:
    """Install (or with ``None``, clear) the process-default registry."""
    _DEFAULT.set(registry)


def use_default_metrics(registry: "MetricsRegistry | None") -> ContextManager[None]:
    """Scoped :func:`set_default_metrics` (restores the previous default)."""
    return _DEFAULT.use(registry)
