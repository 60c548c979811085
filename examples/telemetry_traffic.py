"""Telemetry + multi-tenant traffic: observe a live serving stack under load.

Run with::

    python examples/telemetry_traffic.py

The walkthrough wires the observability layer through the whole serving
stack and then drives it with the deterministic multi-tenant traffic
simulator:

1. An instrumented :class:`~repro.serve.EstimatorServer` records every
   request into a streaming log-bucketed latency histogram (constant
   memory, p50/p95/p99 readouts within one geometric bucket of the exact
   sample quantile) plus cache hit/miss counters and generation gauges —
   per tenant, when requests carry a tenant label.
2. A :class:`~repro.traffic.TrafficSimulator` replays an open-loop,
   seed-deterministic schedule over three tenant profiles: a bursty
   dashboard hammering a small zipf-hot plan pool, an ad-hoc tenant
   spraying a wide pool of one-off plans, and an ingest tenant whose
   checkout → insert → flush → publish cycles bump the serving generation
   and invalidate every cached plan — the cross-tenant interference
   mechanism the tail-latency benchmark gates.
3. A :class:`~repro.obs.TelemetryCollector` ticks at virtual-time interval
   boundaries during the run, diffing registry snapshots into per-metric
   delta/rate time series with windowed rollups.
4. The run's report (per-tenant p50/p99 per op) and the full registry
   snapshot are exported through the exporter the file suffix picks —
   JSON for humans, JSONL (one record per metric) for line-oriented
   collectors, CSV (one row per series point) for columnar tooling — and
   read back losslessly.  The collected series also renders as a
   self-contained static HTML dashboard (inline SVG sparklines, zero
   third-party deps).

Two runs with the same seed execute the identical op sequence (the report
checksum proves it), so latency differences between runs measure the
system, not the workload.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    DEFAULT_TENANTS,
    EstimatorServer,
    MetricsRegistry,
    StreamingADE,
    TelemetryCollector,
    TenantProfile,
    TrafficSimulator,
    exporter_for_path,
    gaussian_mixture_table,
    write_dashboard,
)


def main() -> None:
    # 1. A relation and a streaming synopsis to serve.
    table = gaussian_mixture_table(
        rows=20_000, dimensions=3, components=4, separation=4.0, seed=7, name="orders"
    )
    model = StreamingADE(max_kernels=128).fit(table)

    # 2. An instrumented server: every request lands in the registry.
    registry = MetricsRegistry()
    server = EstimatorServer(model, cache_size=32, metrics=registry)

    # 3. Three tenants with distinct mixes.  Each tenant draws from its own
    #    SeedSequence([seed, index]) stream, so adding or removing one tenant
    #    leaves every other tenant's schedule untouched.
    tenants = (
        DEFAULT_TENANTS[0],  # "dashboard": bursty reads over a zipf-hot pool
        TenantProfile(name="adhoc", rate=60.0, plan_pool=64, zipf_s=0.0),
        TenantProfile(
            name="ingest",
            query_weight=0.2,
            ingest_weight=1.0,
            rate=15.0,
            plan_pool=4,
            ingest_rows=512,
        ),
    )
    # ... and a collector sampling the registry every 0.1s of virtual time:
    # the simulator ticks it at interval boundaries, so the series timeline
    # is the deterministic schedule's, not the wall clock's.
    collector = TelemetryCollector(registry, interval=0.1)
    simulator = TrafficSimulator(
        server, table, tenants=tenants, seed=42, collector=collector
    )

    # 4. The schedule is a pure function of (profiles, seed, duration) —
    #    inspectable before anything executes.
    events = simulator.schedule(1.0)
    by_op: dict[str, int] = {}
    for event in events:
        by_op[event.op] = by_op.get(event.op, 0) + 1
    print(f"schedule: {len(events)} arrivals over 1.0s virtual time — {by_op}")

    # 5. Replay it against the live server.
    report = simulator.run(1.0)
    print(f"executed {report.events} events, answer checksum {report.checksum:.3f}")
    print()
    print("per-tenant query tails (client-observed):")
    for name, entry in sorted(report.tenants.items()):
        query = entry["ops"].get("query")
        if query:
            print(
                f"  {name:10s} {query['count']:5d} queries  "
                f"p50 {query['p50'] * 1e3:6.2f}ms  p99 {query['p99'] * 1e3:6.2f}ms"
            )
    stats = report.server
    print(
        f"server: generation {stats['generation']} "
        f"({stats['generation_swaps']} publishes), "
        f"hit rate {stats['hit_rate']:.0%}, "
        f"{stats['cache_invalidations']} cache invalidations"
    )

    # 6. The server-side per-tenant view lives in the same registry the
    #    simulator recorded into (server-observed spans: cache + estimate
    #    only, excluding compile/reduce — slightly tighter than the
    #    client-observed spans above).
    dashboard = registry.histogram("serve.request_seconds", tenant="dashboard")
    print(
        f"server-side dashboard view: {dashboard.count} requests, "
        f"p99 {dashboard.quantile(0.99) * 1e3:.2f}ms"
    )

    # 7. The collector turned the run into time series: per-metric
    #    delta/rate points with windowed rollups.
    qps = collector.store.window_rate("traffic.ops{op=query,tenant=dashboard}", None)
    print(
        f"collector: {len(collector.store.keys())} series, "
        f"{len(collector.store)} points; dashboard query rate {qps:.0f}/s"
    )

    # 8. Export the report + registry snapshot through the suffix-picked
    #    exporters and read them back losslessly; the collected series goes
    #    to CSV and renders as a self-contained offline dashboard.
    with tempfile.TemporaryDirectory() as root:
        for suffix in (".json", ".jsonl"):
            path = report.export(Path(root) / f"traffic{suffix}", metrics=registry)
            loaded = exporter_for_path(path).load(path)
            assert loaded["checksum"] == report.checksum
            print(
                f"exported {path.name}: {len(loaded['histograms'])} histogram "
                f"series, checksum round-tripped"
            )
        series_path = Path(root) / "traffic.series.csv"
        exporter_for_path(series_path).export(
            collector.series_payload(run="example"), series_path
        )
        loaded_series = exporter_for_path(series_path).load(series_path)
        assert loaded_series["points"] == collector.series_payload(run="example")["points"]
        html = write_dashboard(
            collector, Path(root) / "traffic.html", title="telemetry_traffic example"
        )
        print(
            f"exported {series_path.name}: {len(loaded_series['points'])} points "
            f"round-tripped; dashboard {html.name}: {html.stat().st_size} bytes"
        )

    # 9. Determinism probe: a fresh simulator over a fresh server, same seed
    #    — the identical op sequence executes (checksums differ only if the
    #    *model* differs).
    replay_server = EstimatorServer(StreamingADE(max_kernels=128).fit(table), cache_size=32)
    replay = TrafficSimulator(replay_server, table, tenants=tenants, seed=42).run(1.0)
    print()
    print(
        f"replay with the same seed: {replay.events} events "
        f"(same: {replay.events == report.events}), checksum matches: "
        f"{abs(replay.checksum - report.checksum) < 1e-6}"
    )


if __name__ == "__main__":
    main()
