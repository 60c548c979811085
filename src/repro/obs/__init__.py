"""Observability layer: metrics, latency histograms, exporters, dashboards.

``obs`` is the repo's telemetry substrate.  It is dependency-free (stdlib
only, besides the shared error types and the process-wide ``Slot``) and
sits below every instrumented layer:

* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsRegistry`
  with counters, zero-overhead snapshot-time callback gauges, streaming
  log-bucketed :class:`~repro.obs.metrics.LatencyHistogram` quantiles, a
  timer context manager, and the no-op
  :data:`~repro.obs.metrics.NULL_REGISTRY` default that keeps
  uninstrumented hot paths at one-branch cost.
* :mod:`repro.obs.export` — three exporters picked by file suffix
  (``.json``, ``.jsonl``, and ``.csv`` with one row per point and
  JSON-encoded cells) that serialise registry snapshots and collector
  series losslessly.
* :mod:`repro.obs.collector` — :class:`~repro.obs.collector.TelemetryCollector`
  sampling a registry on an interval (or explicit ``tick()``), diffing
  consecutive snapshots into per-metric delta/rate series with
  histogram-quantile readouts, retained in a bounded
  :class:`~repro.obs.collector.TimeSeriesStore` with trailing-window
  rollups (rate, mean, p50/p95/p99).
* :mod:`repro.obs.dashboard` — static self-contained HTML dashboards
  (inline SVG sparklines with rollup readouts) rendered from a live
  collector or its store, zero third-party dependencies.

Instrumented layers: :class:`~repro.serve.EstimatorServer` (per-request
latency, cache hits/misses, generation swaps, per-tenant labels),
:meth:`~repro.persist.store.ModelStore.publish`,
:class:`~repro.shard.parallel.ShardExecutor` per-shard task timings, and the
query fast path's culled-vs-dense routing counters
(:func:`repro.core.fastpath.set_route_metrics`).
"""

from repro.obs.collector import (
    SeriesPoint,
    TelemetryCollector,
    TimeSeriesStore,
    WindowRollup,
    series_payload,
    store_from_payload,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.export import (
    CSVExporter,
    JSONExporter,
    JSONLExporter,
    MetricsExporter,
    exporter_for_path,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    NullRegistry,
    default_metrics,
    hit_rate,
    metric_key,
    set_default_metrics,
    use_default_metrics,
)

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
    "MetricsExporter",
    "JSONExporter",
    "JSONLExporter",
    "CSVExporter",
    "exporter_for_path",
    "SeriesPoint",
    "TimeSeriesStore",
    "TelemetryCollector",
    "WindowRollup",
    "series_payload",
    "store_from_payload",
    "render_dashboard",
    "write_dashboard",
]
