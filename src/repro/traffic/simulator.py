"""Deterministic multi-tenant traffic simulator over a live estimator server.

The simulator turns a set of :class:`~repro.traffic.tenants.TenantProfile`
descriptions into a single open-loop event schedule — every tenant's arrival
times, op choices and plan draws are derived up front from
``SeedSequence([seed, tenant index])`` — and then replays that schedule
against a real :class:`~repro.serve.server.EstimatorServer`, recording each
op's wall-clock latency into an :mod:`repro.obs` registry.  Two runs with
the same profiles and seed execute the *identical* op sequence (pinned by a
checksum over every query answer), so tail-latency comparisons between runs
measure the system, not the workload.

Execution is single-threaded and ordered by virtual arrival time: the
interference mechanism under study is not CPU contention but *cache and
generation churn* — an ingest tenant's publishes bump the serving generation
and invalidate every cached plan, turning a victim tenant's hits into
misses.  That mechanism is fully exercised by interleaved sequential
execution, and keeping it single-threaded is what makes runs reproducible
enough to gate in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.obs.export import exporter_for_path
from repro.obs.metrics import MetricsRegistry
from repro.traffic.tenants import DEFAULT_TENANTS, TenantProfile
from repro.workload.generators import TypedWorkload, UniformWorkload
from repro.workload.queries import LoweredQueries, compile_queries

__all__ = ["TrafficEvent", "TrafficReport", "TrafficSimulator"]

_OPS = ("query", "ingest", "publish")


@dataclass(frozen=True)
class TrafficEvent:
    """One scheduled arrival: when, who, what, and which plan (queries)."""

    time: float
    tenant: str
    op: str
    plan: int = -1


@dataclass
class TrafficReport:
    """Outcome of one simulator run (JSON-native via :meth:`to_payload`)."""

    duration: float
    seed: int
    events: int
    checksum: float
    tenants: dict[str, dict] = field(default_factory=dict)
    server: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "duration": self.duration,
            "seed": self.seed,
            "events": self.events,
            "checksum": self.checksum,
            "tenants": self.tenants,
            "server": self.server,
        }

    def export(self, path, exporter=None, metrics: MetricsRegistry | None = None):
        """Write the report (plus a registry snapshot) through an exporter.

        ``exporter`` is a :class:`~repro.obs.export.MetricsExporter`
        instance; when omitted, :func:`~repro.obs.export.exporter_for_path`
        picks one from the path suffix.  Returns the written path.
        """
        if exporter is None:
            exporter = exporter_for_path(path)
        payload = self.to_payload()
        if metrics is not None:
            payload.update(metrics.snapshot())
        return exporter.export(payload, path)


class _TenantState:
    """Frozen per-tenant draw state: plan pool + dedicated RNG streams."""

    __slots__ = ("profile", "rng", "plans", "plan_probs", "ingest_source")

    def __init__(self, profile: TenantProfile, seed: int, index: int, server, table):
        self.profile = profile
        # One independent, splittable stream per tenant: tenant i's draws
        # never depend on how many events tenant j generated.
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        workload_seed = int(self.rng.integers(0, 2**31 - 1))
        schema = table.schema
        typed = bool(profile.typed and schema is not None and schema.encoded_columns)
        if typed:
            generator = TypedWorkload(
                table, volume_fraction=profile.volume_fraction, seed=workload_seed
            )
        else:
            generator = UniformWorkload(
                table,
                attributes=server.columns,
                volume_fraction=profile.volume_fraction,
                seed=workload_seed,
            )
        queries = generator.generate(profile.plan_pool * profile.queries_per_plan)
        self.plans = []
        for start in range(0, len(queries), profile.queries_per_plan):
            chunk = queries[start : start + profile.queries_per_plan]
            plan = compile_queries(
                chunk, server.columns, schema=table.schema if typed else None
            )
            self.plans.append(plan)
        # Zipf-skewed popularity over the pool: plan 0 is the hottest.
        ranks = np.arange(1, profile.plan_pool + 1, dtype=float)
        weights = ranks ** -profile.zipf_s
        self.plan_probs = weights / weights.sum()
        self.ingest_source = table

    def draw_plan(self) -> int:
        return int(self.rng.choice(len(self.plans), p=self.plan_probs))

    def draw_op(self) -> str:
        return _OPS[int(self.rng.choice(3, p=self.profile.op_weights))]

    def draw_ingest_rows(self) -> np.ndarray:
        table = self.ingest_source
        index = self.rng.integers(0, table.row_count, self.profile.ingest_rows)
        return table.as_matrix()[index]

    def arrivals(self, duration: float) -> list[float]:
        """Open-loop arrival times over ``[0, duration)`` of virtual seconds.

        A two-state modulated Poisson process: the tenant alternates between
        a normal state at ``rate`` and a burst state at ``rate * burstiness``,
        spending ``burst_fraction`` of virtual time bursting (mean burst
        length 0.25 s).  ``burstiness == 1`` degenerates to plain Poisson.
        """
        profile = self.profile
        times: list[float] = []
        now = 0.0
        bursting = False
        state_end = 0.0
        burst_mean = 0.25
        normal_mean = (
            burst_mean * (1.0 - profile.burst_fraction) / profile.burst_fraction
            if profile.burst_fraction > 0
            else np.inf
        )
        use_bursts = profile.burstiness > 1.0 and profile.burst_fraction > 0
        while now < duration:
            if use_bursts and now >= state_end:
                bursting = not bursting
                mean = burst_mean if bursting else normal_mean
                state_end = now + float(self.rng.exponential(mean))
            rate = profile.rate * (profile.burstiness if bursting else 1.0)
            now += float(self.rng.exponential(1.0 / rate))
            if now < duration:
                times.append(now)
        return times


class TrafficSimulator:
    """Replay deterministic multi-tenant traffic against a live server.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.server.EstimatorServer` under test.
    table:
        Source :class:`~repro.engine.table.Table` for query generation and
        ingest rows (ingest batches are resampled rows of this table).
    tenants:
        Tenant profiles (defaults to :data:`~repro.traffic.tenants.DEFAULT_TENANTS`).
        Names must be unique.
    seed:
        Master seed; with identical profiles it fixes the entire schedule.
    metrics:
        Registry receiving ``traffic.op_seconds{tenant=,op=}`` latency
        series and ``traffic.ops{tenant=,op=}`` counters.  Defaults to the
        server's registry when that is enabled, else a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` — the simulator always
        measures, even over an uninstrumented server.
    collector:
        Optional :class:`~repro.obs.collector.TelemetryCollector`.  When
        given, :meth:`run` drives it on **virtual time**: one ``tick`` per
        ``collector.interval`` of simulated seconds (plus a final tick at
        the end of the run), so trailing-window rollups see the run's own
        clock.  Use a fresh collector per run: ticks must advance
        monotonically.
    """

    def __init__(
        self,
        server,
        table,
        tenants: Sequence[TenantProfile] = DEFAULT_TENANTS,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        collector=None,
    ) -> None:
        if not tenants:
            raise InvalidParameterError("at least one tenant profile is required")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"tenant names must be unique: {names}")
        self.server = server
        self.table = table
        self.tenants = tuple(tenants)
        self.seed = int(seed)
        self.collector = collector
        if metrics is not None:
            self.metrics = metrics
        elif getattr(server, "metrics", None) is not None and server.metrics.enabled:
            self.metrics = server.metrics
        else:
            self.metrics = MetricsRegistry()
        self._states = {
            profile.name: _TenantState(profile, self.seed, index, server, table)
            for index, profile in enumerate(self.tenants)
        }

    # -- schedule --------------------------------------------------------------
    def schedule(self, duration: float) -> list[TrafficEvent]:
        """The full event list for ``duration`` virtual seconds, time-ordered.

        Pure function of ``(profiles, seed, duration)`` — calling it twice
        returns the same events, and :meth:`run` executes exactly this list.
        Ties are broken by tenant order, so the interleaving is total.
        """
        if duration <= 0:
            raise InvalidParameterError("duration must be positive")
        events: list[TrafficEvent] = []
        for index, profile in enumerate(self.tenants):
            # Draw state must not be shared with run(): rebuild a fresh
            # tenant state so schedule() is repeatable and side-effect free.
            state = _TenantState(profile, self.seed, index, self.server, self.table)
            for when in state.arrivals(duration):
                op = state.draw_op()
                plan = state.draw_plan() if op == "query" else -1
                events.append(TrafficEvent(when, profile.name, op, plan))
        events.sort(key=lambda e: (e.time, e.tenant))
        return events

    # -- execution -------------------------------------------------------------
    def run(self, duration: float) -> TrafficReport:
        """Execute the schedule against the server and report per-tenant tails.

        Latency quantiles are read from the ``traffic.op_seconds`` series —
        the *client-observed* spans (compile + serve + reduce for queries;
        checkout + insert + flush + publish for ingest), which is what an
        SLO on this layer should gate.  An attached ``collector`` is ticked
        on virtual-time interval boundaries (event timestamps) between ops.
        """
        events = self.schedule(duration)
        # Rebuild draw states so ingest-row draws replay identically run-to-run.
        states = {
            profile.name: _TenantState(profile, self.seed, index, self.server, self.table)
            for index, profile in enumerate(self.tenants)
        }
        op_seconds = {
            (name, op): self.metrics.histogram("traffic.op_seconds", tenant=name, op=op)
            for name in states
            for op in _OPS
        }
        op_counts = {
            (name, op): self.metrics.counter("traffic.ops", tenant=name, op=op)
            for name in states
            for op in _OPS
        }
        collector = self.collector
        if collector is not None and collector.last_tick is None:
            collector.tick(now=0.0)  # baseline at virtual time zero
        # Tick boundaries as rounded integer multiples of the interval —
        # accumulating floats would drift the recorded tick times
        # (0.1 + 0.1 + 0.1 == 0.30000000000000004).
        ticks = 0
        next_tick = collector.interval if collector is not None else float("inf")
        checksum = 0.0
        for event in events:
            while event.time >= next_tick:
                collector.tick(now=next_tick)
                ticks += 1
                next_tick = round((ticks + 1) * collector.interval, 9)
            state = states[event.tenant]
            start = perf_counter()
            if event.op == "query":
                plan = state.plans[event.plan]
                if isinstance(plan, LoweredQueries):
                    estimates = plan.reduce(
                        self.server.estimate_batch(
                            plan.plan, tenant=event.tenant, now=event.time
                        )
                    )
                else:
                    estimates = self.server.estimate_batch(
                        plan, tenant=event.tenant, now=event.time
                    )
                checksum += float(np.sum(estimates))
            elif event.op == "ingest":
                rows = state.draw_ingest_rows()
                model = self.server.checkout()
                model.insert(rows)
                if hasattr(model, "flush"):
                    model.flush()
                self.server.publish(model)
            else:  # pure publish churn: version bump, no data change
                self.server.publish(self.server.checkout())
            elapsed = perf_counter() - start
            op_seconds[(event.tenant, event.op)].record(elapsed)
            op_counts[(event.tenant, event.op)].inc()
        if collector is not None and duration > next_tick - collector.interval:
            collector.tick(now=duration)
        return self._report(duration, len(events), checksum)

    def _report(self, duration: float, events: int, checksum: float) -> TrafficReport:
        tenants: dict[str, dict] = {}
        for name, state in self._states.items():
            entry: dict = {"profile": state.profile.describe(), "ops": {}}
            for op in _OPS:
                histogram = self.metrics.histogram(
                    "traffic.op_seconds", tenant=name, op=op
                )
                if histogram.count:
                    entry["ops"][op] = {
                        "count": histogram.count,
                        "mean_seconds": histogram.mean,
                        **histogram.quantiles(),
                    }
            query = entry["ops"].get("query")
            if query:
                entry["p50"] = query["p50"]
                entry["p99"] = query["p99"]
            tenants[name] = entry
        server_stats = self.server.stats() if hasattr(self.server, "stats") else {}
        return TrafficReport(
            duration=duration,
            seed=self.seed,
            events=events,
            checksum=checksum,
            tenants=tenants,
            server=server_stats,
        )
