"""Serving throughput: cached EstimatorServer vs. the bare estimator.

Two measurements on the same fitted model and compiled workload:

* **cached path** — repeated ``estimate_batch`` calls against an
  :class:`~repro.serve.EstimatorServer`, which answers warm repeats from the
  plan-keyed result cache.  The acceptance gate requires at least 2x the
  uncached throughput (in practice the gap is orders of magnitude — a cache
  hit is a dict lookup).
* **concurrent ingest-while-serve** — reader threads hammer the server while
  a writer thread keeps checking out a private copy, ingesting new rows and
  publishing fresh generations; reported as sustained reads/sec under live
  model swaps (no gate: thread scheduling on shared hardware is noisy).

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time

import numpy as np

from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.obs import MetricsRegistry, TelemetryCollector
from repro.serve import EstimatorServer
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

from report import SMOKE, bench_report


#: Acceptance gate: cached-batch throughput over the uncached path.
MIN_CACHED_SPEEDUP = 2.0

#: Acceptance gate: instrumented warm-cache throughput over uninstrumented.
MIN_TELEMETRY_RATIO = 0.95

#: Acceptance gate: instrumented throughput with a live background
#: TelemetryCollector sampling the registry, over uninstrumented.
MIN_COLLECTED_RATIO = 0.90

#: Sampling period of the collector during the overhead measurement — far
#: more aggressive than a production cadence, so the gate is conservative.
COLLECT_INTERVAL = 0.05

#: Collector intervals each collected loop lasts at least: the loop must see
#: the sampling, not only the start of the collector's background thread.
COLLECT_INTERVALS = 5


def telemetry_overhead(
    model: StreamingADE, plan, repeats: int, trials: int = 7
) -> tuple[float, float, float, float, float, int]:
    """Warm-cache QPS with and without an attached metrics registry.

    Interleaved paired trials: each trial times the same repeat loop on a
    plain server, an instrumented one (per-request latency histogram), an
    instrumented one also recording per-tenant labelled series, and the
    tenant-labelled loop with a live background
    :class:`~repro.obs.TelemetryCollector` sampling the registry every
    ``COLLECT_INTERVAL`` seconds against a plain loop of the same length.
    That pair lasts ``COLLECT_INTERVALS`` sampling periods, so it times the
    sampling itself.  The *minimum paired delta* between adjacent loops is
    taken as the instrumentation cost — the estimator that survives
    scheduler and frequency jitter far larger than the sub-microsecond delta
    under measurement.  Returns ``(plain_qps,
    instrumented_qps, instrumented/plain ratio, tenant-labelled ratio,
    collected ratio, fewest ticks a collected loop saw)``.
    """
    plain = EstimatorServer(model, cache_size=64)
    instrumented = EstimatorServer(model, cache_size=64, metrics=MetricsRegistry())
    plain.estimate_batch(plan)  # warm the cache on all variants
    instrumented.estimate_batch(plan)
    instrumented.estimate_batch(plan, tenant="bench")

    def loop(
        server: EstimatorServer, tenant: str | None = None, count: int = repeats
    ) -> float:
        start = time.perf_counter()
        if tenant is None:
            for _ in range(count):
                server.estimate_batch(plan)
        else:
            for _ in range(count):
                server.estimate_batch(plan, tenant=tenant)
        return time.perf_counter() - start

    # Size the collected pair from a timed plain loop so that it lasts
    # COLLECT_INTERVALS sampling periods whatever the hardware.
    collected_repeats = max(
        repeats, math.ceil(COLLECT_INTERVALS * COLLECT_INTERVAL * repeats / loop(plain))
    )

    # Paired differencing: the instrumentation delta (sub-µs per call) is far
    # below this hardware's run-to-run jitter, so each trial compares
    # *adjacent* loops and the smallest non-negative paired delta is taken as
    # the intrinsic instrumentation cost — any scheduler preemption, gc pause
    # or frequency excursion only ever inflates a delta, never deflates all
    # of them, so the minimum is the estimate least polluted by interference.
    plain_times, deltas, tenant_deltas, collected_deltas = [], [], [], []
    ticks = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            t_plain = loop(plain)
            t_instrumented = loop(instrumented)
            t_tenant = loop(instrumented, tenant="bench")
            t_plain_long = loop(plain, count=collected_repeats)
            # Collector running only around its own loop: the paired delta
            # then includes the snapshot/diff work stealing cycles from the
            # request path, which is exactly the cost under test.
            collector = TelemetryCollector(
                instrumented.metrics, interval=COLLECT_INTERVAL
            ).start()
            try:
                t_collected = loop(instrumented, tenant="bench", count=collected_repeats)
            finally:
                collector.stop(final_tick=False)
            # Every tick after the synchronous baseline adds one point per series.
            store = collector.store
            ticks.append(max((len(store.points(key)) for key in store.keys()), default=0))
            plain_times.append(t_plain)
            deltas.append(t_instrumented - t_plain)
            tenant_deltas.append(t_tenant - t_plain)
            collected_deltas.append(t_collected - t_plain_long)
    finally:
        if gc_was_enabled:
            gc.enable()
    per_call_plain = statistics.median(plain_times) / repeats
    overhead = max(min(deltas) / repeats, 0.0)
    tenant_overhead = max(min(tenant_deltas) / repeats, 0.0)
    collected_overhead = max(min(collected_deltas) / collected_repeats, 0.0)
    plain_qps = len(plan) / max(per_call_plain, 1e-12)
    instrumented_qps = len(plan) / max(per_call_plain + overhead, 1e-12)
    tenant_qps = len(plan) / max(per_call_plain + tenant_overhead, 1e-12)
    collected_qps = len(plan) / max(per_call_plain + collected_overhead, 1e-12)
    return (
        plain_qps,
        instrumented_qps,
        instrumented_qps / plain_qps,
        tenant_qps / plain_qps,
        collected_qps / plain_qps,
        min(ticks),
    )


def serving_throughput(
    rows: int = 50_000,
    queries: int = 500,
    repeats: int = 50,
    readers: int = 4,
    serve_seconds: float = 1.0,
    seed: int = 7,
) -> TableResult:
    """Batch QPS of the cached server vs. the bare model, plus live-swap serving."""
    table = gaussian_mixture_table(
        rows=rows, dimensions=2, components=4, separation=4.0, seed=seed, name="bench"
    )
    model = StreamingADE(max_kernels=256).fit(table)
    workload = UniformWorkload(table, volume_fraction=0.15, seed=seed + 1).generate(queries)
    plan = compile_queries(workload, model.columns)

    # Uncached baseline: the bare estimator answers every repeat from scratch.
    model.estimate_batch(plan)  # warm-up (first call pays one-time setup)
    start = time.perf_counter()
    for _ in range(repeats):
        model.estimate_batch(plan)
    bare_seconds = time.perf_counter() - start
    bare_qps = repeats * len(plan) / max(bare_seconds, 1e-9)

    # Cached path: same repeats through the server (first call is the miss).
    server = EstimatorServer(model, cache_size=64)
    server.estimate_batch(plan)
    start = time.perf_counter()
    for _ in range(repeats):
        server.estimate_batch(plan)
    cached_seconds = time.perf_counter() - start
    cached_qps = repeats * len(plan) / max(cached_seconds, 1e-9)

    # Telemetry overhead: the same warm-cache loop against an instrumented
    # server (per-request latency histogram; per-tenant series measured too).
    # More repeats than the headline loop: a sub-microsecond per-call delta
    # needs a longer window than cache-speedup measurement does.
    (
        plain_qps,
        instrumented_qps,
        telemetry_ratio,
        tenant_ratio,
        collected_ratio,
        collected_ticks,
    ) = telemetry_overhead(model, plan, max(repeats, 200))

    # Concurrent ingest-while-serve: readers vs. one publishing writer.
    stop = threading.Event()
    read_batches = [0] * readers
    publishes = [0]

    def reader(slot: int) -> None:
        while not stop.is_set():
            server.estimate_batch(plan)
            read_batches[slot] += 1

    def writer() -> None:
        rng = np.random.default_rng(seed + 2)
        while not stop.is_set():
            fresh = server.checkout()
            fresh.insert(rng.normal(0.0, 1.0, size=(1_000, 2)))
            fresh.flush()
            server.publish(fresh)
            publishes[0] += 1

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(readers)] + [
        threading.Thread(target=writer)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(serve_seconds)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    concurrent_qps = sum(read_batches) * len(plan) / max(elapsed, 1e-9)

    result = TableResult(
        "Serving throughput: cached server vs. bare estimator",
        ["path", "queries_per_sec", "speedup_vs_bare", "notes"],
        [
            ["bare estimate_batch", bare_qps, 1.0, f"{repeats} repeats"],
            ["server (warm cache)", cached_qps, cached_qps / bare_qps,
             f"hit rate {server.cache_info().hit_rate:.0%}"],
            ["server, instrumented", instrumented_qps, telemetry_ratio,
             f"{telemetry_ratio:.3f}x of uninstrumented ({plain_qps:,.0f} qps); "
             f"{tenant_ratio:.3f}x with per-tenant labels"],
            ["server, instrumented+collected", plain_qps * collected_ratio,
             collected_ratio,
             f"{collected_ratio:.3f}x of uninstrumented with a live collector "
             f"sampling every {COLLECT_INTERVAL * 1000:.0f} ms "
             f"(at least {collected_ticks} ticks per loop)"],
            ["server, concurrent", concurrent_qps, concurrent_qps / bare_qps,
             f"{readers} readers, {publishes[0]} live publishes"],
        ],
        notes=(
            f"{queries}-query compiled plan over a {rows}-row 2-D mixture; "
            f"gate: warm-cache throughput ≥ {MIN_CACHED_SPEEDUP:.0f}x bare"
        ),
    )
    return result


def test_serving_throughput(report):
    kwargs = (
        dict(rows=10_000, queries=100, repeats=10, readers=2, serve_seconds=0.3)
        if SMOKE
        else {}
    )
    with bench_report("serving_throughput") as rep:
        result = report(serving_throughput, **kwargs)
        rows = {r[0]: r for r in result.rows}
        for label, row in rows.items():
            slug = label.replace(" ", "_").replace("(", "").replace(")", "").replace(",", "")
            rep.metric(f"{slug}_qps", row[1])
        speedup = rows["server (warm cache)"][2]
        assert rep.gate(
            "warm_cache_speedup_ge_2x",
            speedup >= MIN_CACHED_SPEEDUP,
            detail=speedup,
            enforced=True,
        ), f"cached-batch speedup {speedup:.1f}x < {MIN_CACHED_SPEEDUP:.0f}x"
        # Telemetry must be near-free: instrumented warm-cache throughput
        # within 5% of the uninstrumented server (best-of-3, interleaved).
        ratio = rows["server, instrumented"][2]
        rep.metric("telemetry_overhead_ratio", ratio)
        assert rep.gate(
            "telemetry_overhead_ge_0_95",
            ratio >= MIN_TELEMETRY_RATIO,
            detail=ratio,
        ) or SMOKE, f"instrumented/uninstrumented ratio {ratio:.3f} < {MIN_TELEMETRY_RATIO}"
        # A live collector sampling the registry must stay near-free too:
        # instrumented+collected throughput within 10% of uninstrumented.
        collected = rows["server, instrumented+collected"][2]
        rep.metric("collected_overhead_ratio", collected)
        assert rep.gate(
            "collected_overhead_ge_0_90",
            collected >= MIN_COLLECTED_RATIO,
            detail=collected,
        ) or SMOKE, (
            f"instrumented+collected ratio {collected:.3f} < {MIN_COLLECTED_RATIO}"
        )
        # Liveness: the writer must have published while readers were served.
        assert rep.gate(
            "concurrent_reads_alive",
            rows["server, concurrent"][1] > 0,
            detail=rows["server, concurrent"][1],
            enforced=True,
        )
