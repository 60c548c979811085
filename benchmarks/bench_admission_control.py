"""Closed-loop admission control under the ingest storm: tails vs. goodput.

Three phases over the same fitted model, same victim schedule, same seed —
the first two replay :mod:`bench_traffic_tails`' scenario, the third closes
the control loop:

* **baseline** — the victim tenant (read-only, plan pool larger than the
  server cache) runs alone; its p99 sets the SLO target for phase three.
* **storm (ungated)** — the victim interleaved with an ingest-hammering
  aggressor, no admission control: every publish invalidates the cache and
  the victim's p99 degrades (PR 8 measured ~1.41x, bounded at 2x).
* **storm (gated)** — the same schedule with an
  :class:`~repro.serve.AdmissionController` bound to a virtual-time
  :class:`~repro.obs.TelemetryCollector`: the victim's trailing p99 over
  target multiplicatively sheds the aggressor's ingest/publish ops until
  the tail recovers.  The controller slow-starts at its floor allowance and
  admits writes in bursts (``quantum``) so the victim pays rare clustered
  cache-invalidation episodes rather than a sustained publish drizzle.

Each phase runs :data:`PHASE_REPS` times and the least-noisy rep (minimum
victim p99) is scored — preemption noise on shared hardware is one-sided,
so min-of-k recovers the noise floor.

Gates (enforced outside smoke mode):

* ``gated_victim_degradation_le_1_25x`` — gated-storm victim p99 at most
  :data:`GATED_DEGRADATION_FACTOR`x its baseline p99 (vs. the 2x ungated
  bound) — the controller must actually protect the tail.
* ``storm_goodput_ge_50pct`` — the aggressor still gets at least
  :data:`MIN_STORM_GOODPUT` of its scheduled ops admitted — shedding must
  degrade the bulk tenant gracefully, not starve it.

Artifacts for CI: the gated phase's collector series as CSV
(``telemetry_admission_control.csv``) and a rendered dashboard
(``dashboard_admission_control.html``) under ``benchmarks/results/``.

Set ``BENCH_SMOKE=1`` for the reduced, non-gating CI configuration.
"""

from __future__ import annotations

import copy

from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.obs import MetricsRegistry, TelemetryCollector, create_exporter
from repro.obs.dashboard import write_dashboard
from repro.serve import AdmissionController, EstimatorServer, TenantQuota
from repro.traffic import TenantProfile, TrafficSimulator

from report import RESULTS_DIR, SMOKE, bench_report


#: Gate: gated-storm victim p99 over its baseline p99.
GATED_DEGRADATION_FACTOR = 1.25

#: Gate: fraction of the aggressor's scheduled ops admitted in the gated storm.
MIN_STORM_GOODPUT = 0.50

#: Baseline p99 floor for the degradation ratio and the SLO target (same
#: rationale as bench_traffic_tails, but sized for this scenario): the
#: baseline victim p99 here sits at ~0.6-1.1ms and flutters by a full
#: log-histogram bucket run to run on shared hardware, so the ratio is
#: anchored to this provisioned floor — an operator's absolute SLO budget —
#: rather than to a single lucky baseline readout.
ISOLATION_FLOOR_SECONDS = 8e-4

#: SLO target for the controller: this factor over the measured baseline p99
#: (an operator provisioning from a measured baseline, not a magic number).
SLO_HEADROOM = 1.10

#: Collector sampling period in virtual seconds — the control-loop tick.
COLLECT_INTERVAL = 0.1

#: Trailing window of the controller's p99 readout (virtual seconds).
CONTROL_WINDOW = 0.5

#: Shedding dynamics: multiplicative backoff under breach, slow recovery, a
#: floor that keeps the aggressor above the goodput gate even under a
#: sustained breach, and a slow start (initial allowance at the floor) so the
#: storm never runs unthrottled while the first breach is still being
#: observed.  Writes are admitted in bursts of SHED_QUANTUM so the victim
#: pays rare clustered cache-invalidation episodes instead of a sustained
#: publish drizzle that keeps the cache permanently cold.
SHED_BACKOFF = 0.5
SHED_RECOVERY = 1.05
SHED_FLOOR = 0.55
SHED_QUANTUM = 4

CACHE_SIZE = 32

#: Repetitions per phase outside smoke mode.  Tail readouts on shared
#: hardware carry one-sided noise — preemption only ever adds latency — so
#: each phase is run PHASE_REPS times and the least-noisy rep (minimum victim
#: p99) is scored: the standard min-of-k estimator for a noise-floored
#: measurement.
PHASE_REPS = 2


def _tenants(smoke: bool) -> tuple[TenantProfile, TenantProfile]:
    """(victim, aggressor) — identical to bench_traffic_tails' scenario, so
    the gated numbers are comparable with PR 8's ungated measurements."""
    victim = TenantProfile(
        name="victim",
        rate=150.0 if smoke else 300.0,
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


def admission_control(
    rows: int = 20_000,
    max_kernels: int = 128,
    duration: float = 2.0,
    seed: int = 29,
    smoke: bool = False,
) -> tuple[TableResult, dict]:
    """Run all three phases; returns the rendered table plus the gate inputs."""
    table = gaussian_mixture_table(
        rows=rows, dimensions=3, components=4, separation=4.0, seed=seed, name="traffic"
    )
    base_model = StreamingADE(max_kernels=max_kernels).fit(table)
    victim, aggressor = _tenants(smoke)

    reps = 1 if smoke else PHASE_REPS

    def run_phase(tenants, slo_target=None):
        """Run one phase ``reps`` times; return the least-noisy rep as a
        ``(report, registry, collector, controller)`` tuple (collector and
        controller are ``None`` for ungated phases)."""
        best = None
        for _ in range(reps):
            registry = MetricsRegistry()
            collector = controller = None
            if slo_target is not None:
                collector = TelemetryCollector(registry, interval=COLLECT_INTERVAL)
                controller = AdmissionController(
                    [TenantQuota("victim", slo_p99=slo_target)],
                    window=CONTROL_WINDOW,
                    floor=SHED_FLOOR,
                    backoff=SHED_BACKOFF,
                    recovery=SHED_RECOVERY,
                    quantum=SHED_QUANTUM,
                    initial_allowance=SHED_FLOOR,
                    metrics=registry,
                ).bind(collector)
            server = EstimatorServer(
                copy.deepcopy(base_model),
                cache_size=CACHE_SIZE,
                metrics=registry,
                admission=controller,
            )
            simulator = TrafficSimulator(
                server, table, tenants=tenants, seed=seed, collector=collector
            )
            rep = (simulator.run(duration), registry, collector, controller)
            if best is None or (
                rep[0].tenants["victim"]["p99"] < best[0].tenants["victim"]["p99"]
            ):
                best = rep
        return best

    baseline = run_phase((victim,))[0]
    ungated = run_phase((victim, aggressor))[0]

    baseline_p99 = baseline.tenants["victim"]["p99"]
    isolation_base = max(baseline_p99, ISOLATION_FLOOR_SECONDS)
    slo_target = isolation_base * SLO_HEADROOM

    gated, gated_registry, collector, controller = run_phase(
        (victim, aggressor), slo_target=slo_target
    )

    gated_victim = gated.tenants["victim"]
    gated_aggressor = gated.tenants["aggressor"]
    gate_inputs = {
        "baseline": baseline,
        "ungated": ungated,
        "gated": gated,
        "gated_registry": gated_registry,
        "collector": collector,
        "controller": controller,
        "slo_target": slo_target,
        "victim_p99_baseline": baseline_p99,
        "victim_p99_ungated": ungated.tenants["victim"]["p99"],
        "victim_p99_gated": gated_victim["p99"],
        "ungated_ratio": ungated.tenants["victim"]["p99"] / isolation_base,
        "gated_ratio": gated_victim["p99"] / isolation_base,
        "storm_goodput": gated_aggressor["goodput"],
        "storm_rejected": gated_aggressor.get("rejected", {}),
    }

    def fmt_row(phase_name, report, tenant):
        entry = report.tenants[tenant]
        query = entry["ops"].get("query")
        if not query:
            return None
        rejected = sum(entry.get("rejected", {}).values())
        return [
            phase_name,
            tenant,
            query["count"],
            query["p99"] * 1e3,
            f"{entry['goodput']:.0%}",
            f"{report.server['generation_swaps']} publishes, {rejected} shed",
        ]

    rows_out = [
        row
        for phase_name, report in (
            ("baseline", baseline),
            ("storm ungated", ungated),
            ("storm gated", gated),
        )
        for tenant in sorted(report.tenants)
        if (row := fmt_row(phase_name, report, tenant)) is not None
    ]
    result = TableResult(
        "Admission control: victim tails and aggressor goodput under the storm",
        ["phase", "tenant", "queries", "p99_ms", "goodput", "server"],
        rows_out,
        notes=(
            f"{duration}s virtual traffic over a {rows}-row 3-D mixture "
            f"(max_kernels={max_kernels}, cache={CACHE_SIZE}); SLO target "
            f"{slo_target * 1e3:.2f}ms ({SLO_HEADROOM:.2f}x baseline p99); gates: "
            f"gated victim degradation ≤ {GATED_DEGRADATION_FACTOR}x, "
            f"aggressor goodput ≥ {MIN_STORM_GOODPUT:.0%}"
        ),
    )
    return result, gate_inputs


def test_admission_control(report):
    kwargs = dict(rows=5_000, max_kernels=64, duration=0.4) if SMOKE else {}
    with bench_report("admission_control") as rep:
        holder = {}

        def experiment(**kw):
            result, inputs = admission_control(smoke=SMOKE, **kw)
            holder["inputs"] = inputs
            return result

        report(experiment, **kwargs)
        inputs = holder["inputs"]
        rep.metric("victim_p99_baseline_seconds", inputs["victim_p99_baseline"])
        rep.metric("victim_p99_ungated_seconds", inputs["victim_p99_ungated"])
        rep.metric("victim_p99_gated_seconds", inputs["victim_p99_gated"])
        rep.metric("ungated_degradation_ratio", inputs["ungated_ratio"])
        rep.metric("gated_degradation_ratio", inputs["gated_ratio"])
        rep.metric("storm_goodput", inputs["storm_goodput"])
        rep.metric("storm_rejected", inputs["storm_rejected"])
        rep.metric("slo_target_seconds", inputs["slo_target"])
        rep.metric("final_write_allowance", inputs["controller"].write_allowance)
        rep.telemetry(inputs["gated_registry"], inputs["collector"])

        # CI artifacts: the gated phase's collector series (columnar CSV,
        # lossless) and the rendered offline dashboard.
        collector = inputs["collector"]
        csv_path = RESULTS_DIR / "telemetry_admission_control.csv"
        create_exporter("csv").export(
            collector.series_payload(bench="admission_control"), csv_path
        )
        write_dashboard(
            collector,
            RESULTS_DIR / "dashboard_admission_control.html",
            title="admission control: gated storm",
            slo={"victim": inputs["slo_target"]},
        )

        ratio = inputs["gated_ratio"]
        assert rep.gate(
            "gated_victim_degradation_le_1_25x",
            ratio <= GATED_DEGRADATION_FACTOR,
            detail=ratio,
        ) or SMOKE, (
            f"gated victim p99 degraded {ratio:.2f}x > {GATED_DEGRADATION_FACTOR}x "
            f"(baseline {inputs['victim_p99_baseline'] * 1e3:.2f}ms, gated "
            f"{inputs['victim_p99_gated'] * 1e3:.2f}ms, ungated "
            f"{inputs['victim_p99_ungated'] * 1e3:.2f}ms)"
        )
        goodput = inputs["storm_goodput"]
        assert rep.gate(
            "storm_goodput_ge_50pct",
            goodput >= MIN_STORM_GOODPUT,
            detail=goodput,
        ) or SMOKE, (
            f"aggressor goodput {goodput:.0%} < {MIN_STORM_GOODPUT:.0%} "
            f"(shed: {inputs['storm_rejected']})"
        )
