"""Metrics of a run: end-to-end from the samples, per-layer from the trace.

Each metric is a dict with ``value``, ``unit`` and ``better``, plus the
sample count it rests on and, for a tail, the percentile actually reported.
A metric that does not apply to a workload is left out of its report.
``LISTED_END_TO_END`` and ``LISTED_PER_LAYER`` name the metrics that every
workload reports (``BENCHMARK.json`` lists exactly these); the others appear
only in the full report.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any

import numpy as np

from perfbench.stats import summarize
from perfbench.tracing import Tracer
from perfbench.workloads import RunResult

#: End-to-end metrics every workload reports, in ``BENCHMARK.json`` order.
#: Latency and throughput are listed in reference-kernel units
#: (:mod:`perfbench.reference`): on a shared 2-core VM the microsecond
#: median of bulk-plans moved by 0.26 to 0.41 of itself between ten-run
#: sets as the host's load came and went.  The microsecond figures, the
#: miss median and the p99 tails are reported but not listed; stalls put
#: some ingest-publish runs' p99 at 2 to 3 times the others', so no tail
#: could hold a bound.
LISTED_END_TO_END = (
    "request_p50_ref", "queries_per_ref", "setup_s", "mean_q_error", "peak_rss_mb",
)

#: Per-layer metrics every workload's traced run reports.
LISTED_PER_LAYER = (
    "workload.compile_us", "serve.self_us", "serve.hit_rate", "core.estimate_us",
    "core.fastpath.route_us", "core.fastpath.microkernel_us_per_query",
    "core.fastpath.culled_share", "core.fastpath.candidates_per_query",
    "core.fastpath.index_builds", "core.fastpath.index_build_us",
    "core.streaming.insert_us_per_krow", "core.streaming.flush_us",
)


def _metric(value: float, unit: str, better: str, samples: int, **extra: Any) -> dict:
    return {"value": float(value), "unit": unit, "better": better, "samples": int(samples), **extra}


def _latencies(out: dict, prefix: str, latency: np.ndarray, unit: str = "us") -> None:
    summary = summarize(latency.tolist())
    if summary["p50"] is None:
        return
    out[f"{prefix}_p50_{unit}"] = _metric(summary["p50"], unit, "lower", summary["count"], percentile=50.0)
    out[f"{prefix}_p99_{unit}"] = _metric(
        summary["tail"], unit, "lower", summary["count"],
        percentile=summary["tail_pct"], tail_repeats=summary["tail_repeats"],
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hit_share(result: RunResult) -> float:
    return sum(result.hit) / len(result.hit) if result.hit else 0.0


def end_to_end(result: RunResult) -> dict[str, dict]:
    """Every end-to-end metric that applies to the run's workload."""
    out: dict[str, dict] = {}
    latency = np.frombuffer(result.latency_ns, dtype=np.int64) / 1e3
    hit = np.frombuffer(bytes(result.hit), dtype=np.uint8).astype(bool)
    _latencies(out, "request", np.frombuffer(result.latency_ref, dtype=np.float64), "ref")
    _latencies(out, "request", latency)
    if hit.any():
        _latencies(out, "hit", latency[hit])
    _latencies(out, "miss", latency[~hit])
    reference = result.reference
    out["queries_per_ref"] = _metric(
        result.boxes / reference.scaled_wall, "1/ref", "higher", len(latency)
    )
    out["queries_per_s"] = _metric(
        result.boxes / (result.wall_ns / 1e9), "1/s", "higher", len(latency)
    )
    out["reference_us"] = _metric(
        float(np.median(np.frombuffer(reference.samples, dtype=np.int64))) / 1e3, "us", "lower",
        len(reference.samples),
    )
    out["setup_s"] = _metric(statistics.median(result.setup_s), "s", "lower", len(result.setup_s))
    out["failed_fraction"] = _metric(
        result.failed / max(result.attempted, 1), "ratio", "lower", result.attempted
    )
    out["mean_q_error"] = _metric(result.q_error, "ratio", "lower", 1)
    out["peak_rss_mb"] = _metric(peak_rss_mb(), "MB", "lower", 1)
    if result.workload == "ingest-publish":
        out["ingest_rows_per_s"] = _metric(
            result.ingest_rows / (result.ingest_ns / 1e9), "rows/s", "higher", result.ingest_rows
        )
        visible = np.frombuffer(result.publish_visible_ns, dtype=np.int64) / 1e6
        summary = summarize(visible.tolist(), nominal_tail=90.0)
        if summary["p50"] is not None:
            out["publish_visible_p50_ms"] = _metric(summary["p50"], "ms", "lower", len(visible), percentile=50.0)
            out["publish_visible_p90_ms"] = _metric(
                summary["tail"], "ms", "lower", len(visible),
                percentile=summary["tail_pct"], tail_repeats=summary["tail_repeats"],
            )
        recovery = np.frombuffer(result.recovery_ns, dtype=np.int64) / 1e6
        if recovery.size:
            out["recovery_ms"] = _metric(float(np.median(recovery)), "ms", "lower", recovery.size)
        out["snapshot_bytes"] = _metric(result.snapshot_bytes, "B", "lower", 1)
    return out


def _us(values) -> float:
    return float(np.median(np.frombuffer(values, dtype=np.int64))) / 1e3 if len(values) else float("nan")


def per_layer(tracer: Tracer, result: RunResult) -> dict[str, dict]:
    """Layer metrics of a traced run; ``run.py`` says how each is measured."""
    d, own, count = tracer.durations, tracer.self_times, tracer.counters
    out: dict[str, dict] = {}

    def add(name: str, value: float, unit: str, better: str, samples: int) -> None:
        if samples:
            out[name] = _metric(value, unit, better, samples)

    add("workload.compile_us", _us(d["workload.compile"]), "us", "lower", len(d["workload.compile"]))
    add("serve.self_us", _us(own["serve.request"]), "us", "lower", len(own["serve.request"]))
    stats = result.server_stats
    add("serve.hit_rate", stats.get("hit_rate", 0.0), "ratio", "higher", 1)
    add("serve.publish_us", _us(own["serve.publish"]), "us", "lower", len(own["serve.publish"]))
    if result.breaker_trips is not None:
        add("serve.breaker_trips", result.breaker_trips, "count", "lower", 1)
    add("core.estimate_us", _us(d["core.estimate"]), "us", "lower", len(d["core.estimate"]))
    add("core.fastpath.route_us", _us(own["core.fastpath.route"]), "us", "lower",
        len(own["core.fastpath.route"]))
    boxes = count["microkernel.boxes"]
    add("core.fastpath.microkernel_us_per_query",
        sum(d["core.fastpath.microkernel"]) / 1e3 / max(boxes, 1), "us", "lower", boxes)
    culled = tracer.routes.counter("fastpath.culled_queries").value
    dense = tracer.routes.counter("fastpath.dense_queries").value
    add("core.fastpath.culled_share", culled / max(culled + dense, 1), "ratio", "higher",
        int(culled + dense))
    groups = count["cull.groups"]
    add("core.fastpath.candidates_per_query", count["cull.candidate_share"] / max(groups, 1),
        "ratio", "lower", groups)
    builds = len(d["core.fastpath.index_build"])
    add("core.fastpath.index_builds", builds, "count", "lower", builds)
    add("core.fastpath.index_build_us", _us(d["core.fastpath.index_build"]), "us", "lower", builds)
    rows = count["streaming.rows"]
    add("core.streaming.insert_us_per_krow", sum(d["core.streaming.insert"]) / max(rows, 1),
        "us", "lower", rows)
    flushes = d["core.streaming.flush"]
    add("core.streaming.flush_us", sum(flushes) / 1e3 / max(len(flushes), 1), "us", "lower",
        len(flushes))

    if result.workload == "ingest-publish":
        add("serve.cache_invalidations", stats["cache_invalidations"], "count", "lower", 1)
        add("shard.insert_route_us", _us(own["shard.insert"]), "us", "lower", len(own["shard.insert"]))
        add("shard.estimate_fanout_us", _us(own["core.estimate"]), "us", "lower",
            len(own["core.estimate"]))
        registry = result.retry_registry
        add("shard.task_retries", registry.counter("shard.task_retries").value, "count", "lower", 1)
        appends = d["persist.journal.append"]
        add("persist.journal.append_us", _us(appends), "us", "lower", len(appends))
        add("persist.journal.bytes_per_row", count["journal.bytes"] / max(count["journal.rows"], 1),
            "B", "lower", count["journal.rows"])
        add("persist.snapshot.serialize_us", _us(d["persist.snapshot.serialize"]), "us", "lower",
            len(d["persist.snapshot.serialize"]))
        add("persist.snapshot.verify_us", _us(d["persist.snapshot.verify"]), "us", "lower",
            len(d["persist.snapshot.verify"]))
        publishes = len(d["persist.store.publish"])
        add("persist.store.publish_us", _us(d["persist.store.publish"]), "us", "lower", publishes)
        fsyncs = tracer.under[("persist.fsync", "persist.store.publish")][0]
        add("persist.store.fsyncs_per_publish", fsyncs / max(publishes, 1), "count", "lower", publishes)
        loads = d["persist.store.load"]
        add("persist.store.load_us", _us(loads), "us", "lower", len(loads))
        recoveries = len(d["ingest.recover"])
        replay_ns = (
            tracer.under[("persist.journal.replay", "ingest.recover")][1]
            + tracer.under[("shard.insert", "ingest.recover")][1]
        )
        add("persist.journal.replay_us", replay_ns / 1e3 / max(recoveries, 1), "us", "lower",
            recoveries)
    return out
