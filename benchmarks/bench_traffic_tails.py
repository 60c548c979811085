"""Tail latency under mixed multi-tenant traffic + cross-tenant isolation.

Two phases over the same fitted model, same victim tenant, same seed:

* **baseline** — the victim tenant (read-only, plan pool larger than the
  server cache so its p99 already reflects the miss path) runs alone.
* **storm** — the same victim schedule interleaved with an aggressor tenant
  hammering ingest (checkout + insert + flush + publish), each publish
  bumping the generation and invalidating every cached plan.

Gates:

* ``mixed_p99_slo`` — every tenant's query p99 under the mixed read/write
  storm stays within :data:`SLO_P99_SECONDS`.
* ``isolation_p99_le_2x`` — the victim's storm-phase p99 degrades at most
  :data:`ISOLATION_FACTOR`x over its baseline p99 (with a small floor so a
  microsecond-scale baseline cannot make the ratio meaningless).  This holds
  because the synopsis budget (``max_kernels``) bounds the miss-path cost no
  matter how much the aggressor ingests — the property the gate pins.

The run's full telemetry (per-tenant latency histograms, server counters,
traffic op counts) is archived as ``BENCH_traffic_tails.json`` plus a JSONL
export under ``benchmarks/results/`` for CI to collect.

Set ``BENCH_SMOKE=1`` for the reduced, non-gating CI configuration.
"""

from __future__ import annotations

import copy

from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.obs import JSONLExporter, MetricsRegistry
from repro.serve import EstimatorServer
from repro.traffic import TenantProfile, TrafficSimulator

from report import RESULTS_DIR, SMOKE, bench_report


#: Gate: per-tenant query p99 under the mixed read/write storm phase.
SLO_P99_SECONDS = 0.05

#: Gate: victim p99 degradation factor, storm over baseline.
ISOLATION_FACTOR = 2.0

#: Baseline p99 floor for the isolation ratio: below this the baseline is
#: timer-granularity noise and a ratio over it measures nothing.
ISOLATION_FLOOR_SECONDS = 5e-4

CACHE_SIZE = 32


def _tenants(smoke: bool) -> tuple[TenantProfile, TenantProfile]:
    """(victim, aggressor) — the victim's draws depend only on its index (0),
    so its schedule is identical whether or not the aggressor runs."""
    victim = TenantProfile(
        name="victim",
        rate=150.0 if smoke else 300.0,
        # Pool > cache: the victim's baseline p99 is already a miss-path
        # latency, so the isolation ratio compares eval cost to eval cost
        # instead of dict-lookup to eval cost.
        plan_pool=CACHE_SIZE + 16,
        zipf_s=0.0,
        queries_per_plan=8,
        burstiness=2.0,
    )
    aggressor = TenantProfile(
        name="aggressor",
        query_weight=0.1,
        ingest_weight=1.0,
        rate=10.0 if smoke else 30.0,
        plan_pool=4,
        ingest_rows=128 if smoke else 512,
    )
    return victim, aggressor


def traffic_tails(
    rows: int = 20_000,
    max_kernels: int = 128,
    duration: float = 2.0,
    seed: int = 29,
    smoke: bool = False,
) -> tuple[TableResult, dict]:
    """Run both phases; returns the rendered table plus the gate inputs."""
    table = gaussian_mixture_table(
        rows=rows, dimensions=3, components=4, separation=4.0, seed=seed, name="traffic"
    )
    base_model = StreamingADE(max_kernels=max_kernels).fit(table)
    victim, aggressor = _tenants(smoke)

    def run_phase(tenants, registry):
        server = EstimatorServer(
            copy.deepcopy(base_model), cache_size=CACHE_SIZE, metrics=registry
        )
        return TrafficSimulator(server, table, tenants=tenants, seed=seed).run(duration)

    baseline_registry = MetricsRegistry()
    baseline = run_phase((victim,), baseline_registry)
    storm_registry = MetricsRegistry()
    storm = run_phase((victim, aggressor), storm_registry)

    base_victim = baseline.tenants["victim"]
    storm_victim = storm.tenants["victim"]
    isolation_base = max(base_victim["p99"], ISOLATION_FLOOR_SECONDS)
    gate_inputs = {
        "baseline": baseline,
        "storm": storm,
        "storm_registry": storm_registry,
        "victim_p99_baseline": base_victim["p99"],
        "victim_p99_storm": storm_victim["p99"],
        "isolation_ratio": storm_victim["p99"] / isolation_base,
        "worst_p99_storm": max(
            t["p99"] for t in storm.tenants.values() if "p99" in t
        ),
    }

    def fmt_rows(phase_name, report):
        out = []
        for name, tenant in sorted(report.tenants.items()):
            query = tenant["ops"].get("query")
            if not query:
                continue
            out.append([
                phase_name,
                name,
                query["count"],
                query["p50"] * 1e3,
                query["p99"] * 1e3,
                f"{report.server['generation_swaps']} publishes, "
                f"hit rate {report.server['hit_rate']:.0%}",
            ])
        return out

    result = TableResult(
        "Multi-tenant traffic: per-tenant query tails, baseline vs. ingest storm",
        ["phase", "tenant", "queries", "p50_ms", "p99_ms", "server"],
        fmt_rows("baseline", baseline) + fmt_rows("storm", storm),
        notes=(
            f"{duration}s virtual open-loop traffic over a {rows}-row 3-D mixture "
            f"(max_kernels={max_kernels}, cache={CACHE_SIZE}); gates: storm p99 ≤ "
            f"{SLO_P99_SECONDS * 1e3:.0f}ms, victim degradation ≤ {ISOLATION_FACTOR}x"
        ),
    )
    return result, gate_inputs


def test_traffic_tails(report):
    kwargs = (
        dict(rows=5_000, max_kernels=64, duration=0.4) if SMOKE else {}
    )
    with bench_report("traffic_tails") as rep:
        holder = {}

        def experiment(**kw):
            result, inputs = traffic_tails(smoke=SMOKE, **kw)
            holder["inputs"] = inputs
            return result

        report(experiment, **kwargs)
        inputs = holder["inputs"]
        baseline, storm = inputs["baseline"], inputs["storm"]
        for phase_name, phase in (("baseline", baseline), ("storm", storm)):
            for tenant, entry in phase.tenants.items():
                if "p99" in entry:
                    rep.metric(f"{phase_name}_{tenant}_p50_seconds", entry["p50"])
                    rep.metric(f"{phase_name}_{tenant}_p99_seconds", entry["p99"])
        rep.metric("storm_events", storm.events)
        rep.metric("storm_checksum", storm.checksum)
        rep.metric("storm_generation_swaps", storm.server["generation_swaps"])
        rep.metric("isolation_ratio", inputs["isolation_ratio"])
        rep.telemetry(inputs["storm_registry"])

        # Archive the storm phase's raw telemetry as JSONL for CI to collect.
        jsonl_path = RESULTS_DIR / "telemetry_traffic_tails.jsonl"
        storm.export(jsonl_path, JSONLExporter(), metrics=inputs["storm_registry"])

        worst = inputs["worst_p99_storm"]
        assert rep.gate(
            "mixed_p99_slo",
            worst <= SLO_P99_SECONDS,
            detail=worst,
        ) or SMOKE, f"storm-phase p99 {worst * 1e3:.1f}ms > {SLO_P99_SECONDS * 1e3:.0f}ms"
        ratio = inputs["isolation_ratio"]
        assert rep.gate(
            "isolation_p99_le_2x",
            ratio <= ISOLATION_FACTOR,
            detail=ratio,
        ) or SMOKE, (
            f"victim p99 degraded {ratio:.2f}x under the ingest storm "
            f"(baseline {inputs['victim_p99_baseline'] * 1e3:.2f}ms, "
            f"storm {inputs['victim_p99_storm'] * 1e3:.2f}ms)"
        )
