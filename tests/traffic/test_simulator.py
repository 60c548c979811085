"""Traffic simulator: determinism, tenant isolation of draws, instrumentation."""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro.core.errors import InvalidParameterError
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table, mixed_type_table
from repro.obs.metrics import MetricsRegistry
from repro.serve.server import EstimatorServer
from repro.traffic import DEFAULT_TENANTS, TenantProfile, TrafficSimulator


@pytest.fixture(scope="module")
def table():
    return gaussian_mixture_table(rows=4000, dimensions=2, components=3, seed=17)


@pytest.fixture(scope="module")
def base_model(table):
    return StreamingADE(max_kernels=64).fit(table)


def make_server(base_model, metrics=None):
    return EstimatorServer(
        copy.deepcopy(base_model), cache_size=16, metrics=metrics
    )


TENANTS = (
    TenantProfile(name="reader", rate=120.0, plan_pool=8, zipf_s=1.1, burstiness=2.0),
    TenantProfile(
        name="writer", query_weight=0.3, ingest_weight=1.0, rate=15.0,
        plan_pool=4, ingest_rows=64,
    ),
)


class TestProfiles:
    def test_weights_normalise(self) -> None:
        q, i, p = TenantProfile(name="t", query_weight=3, ingest_weight=1).op_weights
        assert (q, i, p) == (0.75, 0.25, 0.0)

    def test_describe_is_jsonable(self) -> None:
        desc = DEFAULT_TENANTS[0].describe()
        assert desc["name"] == "dashboard"
        assert isinstance(desc["rate"], float)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "query_weight": 0, "ingest_weight": 0, "publish_weight": 0},
            {"name": "t", "rate": 0},
            {"name": "t", "burstiness": 0.5},
            {"name": "t", "burst_fraction": 1.0},
            {"name": "t", "plan_pool": 0},
            {"name": "t", "volume_fraction": 0.0},
            {"name": "t", "ingest_rows": 0},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs) -> None:
        with pytest.raises(InvalidParameterError):
            TenantProfile(**kwargs)


class TestSchedule:
    def test_same_seed_same_schedule(self, base_model, table) -> None:
        sim_a = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        sim_b = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        assert sim_a.schedule(0.5) == sim_b.schedule(0.5)

    def test_schedule_is_repeatable_on_one_simulator(self, base_model, table) -> None:
        sim = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        assert sim.schedule(0.5) == sim.schedule(0.5)

    def test_different_seeds_differ(self, base_model, table) -> None:
        sim_a = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5)
        sim_b = TrafficSimulator(make_server(base_model), table, TENANTS, seed=6)
        assert sim_a.schedule(0.5) != sim_b.schedule(0.5)

    def test_tenant_schedule_independent_of_other_tenants(
        self, base_model, table
    ) -> None:
        """Tenant draws hang off (seed, index): adding a tenant after the
        victim leaves the victim's schedule untouched — the property the
        isolation benchmark's baseline/storm comparison rests on."""
        solo = TrafficSimulator(make_server(base_model), table, TENANTS[:1], seed=9)
        both = TrafficSimulator(make_server(base_model), table, TENANTS, seed=9)
        solo_events = [e for e in solo.schedule(0.5) if e.tenant == "reader"]
        both_events = [e for e in both.schedule(0.5) if e.tenant == "reader"]
        assert solo_events == both_events

    def test_time_ordered(self, base_model, table) -> None:
        events = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5).schedule(0.5)
        assert events == sorted(events, key=lambda e: (e.time, e.tenant))

    def test_query_events_draw_from_the_plan_pool(self, base_model, table) -> None:
        events = TrafficSimulator(make_server(base_model), table, TENANTS, seed=5).schedule(0.5)
        pools = {t.name: t.plan_pool for t in TENANTS}
        assert {e.op for e in events} == {"query", "ingest"}
        assert all(0.0 <= e.time < 0.5 for e in events)
        for event in events:
            if event.op == "query":
                assert 0 <= event.plan < pools[event.tenant]
            else:
                assert event.plan == -1

    def test_duration_validated(self, base_model, table) -> None:
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, TENANTS, seed=5).schedule(0.0)

    def test_duplicate_tenant_names_rejected(self, base_model, table) -> None:
        dup = (TENANTS[0], TENANTS[0])
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, dup, seed=5)

    def test_empty_tenants_rejected(self, base_model, table) -> None:
        with pytest.raises(InvalidParameterError):
            TrafficSimulator(make_server(base_model), table, (), seed=5)


class TestRun:
    def test_same_seed_same_checksum(self, base_model, table) -> None:
        r1 = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3).run(0.4)
        r2 = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3).run(0.4)
        assert r1.events == r2.events
        assert r1.checksum == pytest.approx(r2.checksum)

    def test_runs_every_scheduled_op(self, base_model, table) -> None:
        sim = TrafficSimulator(make_server(base_model), table, TENANTS, seed=3)
        scheduled = Counter((e.tenant, e.op) for e in sim.schedule(0.4))
        report = sim.run(0.4)
        executed = {
            (tenant, op): entry["count"]
            for tenant, summary in report.tenants.items()
            for op, entry in summary["ops"].items()
        }
        assert executed == dict(scheduled)
        assert sum(executed.values()) == report.events

    def test_per_tenant_histograms_populated(self, base_model, table) -> None:
        metrics = MetricsRegistry()
        sim = TrafficSimulator(
            make_server(base_model), table, TENANTS, seed=3, metrics=metrics
        )
        report = sim.run(0.4)
        reader = report.tenants["reader"]
        assert reader["ops"]["query"]["count"] > 0
        assert 0 < reader["p50"] <= reader["p99"]
        hist = metrics.histogram("traffic.op_seconds", tenant="reader", op="query")
        assert hist.count == reader["ops"]["query"]["count"]

    def test_ingest_bumps_generation_and_rows(self, base_model, table) -> None:
        server = make_server(base_model)
        report = TrafficSimulator(server, table, TENANTS, seed=3).run(0.4)
        writes = report.tenants["writer"]["ops"].get("ingest", {}).get("count", 0)
        assert writes > 0
        assert report.server["generation"] == 1 + writes
        assert report.server["rows_modelled"] > base_model.row_count

    def test_publish_only_tenant_churns_generations_not_rows(
        self, base_model, table
    ) -> None:
        churn = (TenantProfile(name="churn", query_weight=0.0, publish_weight=1.0, rate=40.0),)
        report = TrafficSimulator(make_server(base_model), table, churn, seed=4).run(0.3)
        tenant = report.tenants["churn"]
        assert set(tenant["ops"]) == {"publish"}
        publishes = tenant["ops"]["publish"]["count"]
        assert publishes == report.events > 0
        assert report.server["generation"] == 1 + publishes
        assert report.server["rows_modelled"] == base_model.row_count
        assert report.checksum == 0.0
        assert "p50" not in tenant and "p99" not in tenant  # no queries, no query tails

    def test_uses_server_registry_when_enabled(self, base_model, table) -> None:
        metrics = MetricsRegistry()
        server = make_server(base_model, metrics=metrics)
        sim = TrafficSimulator(server, table, TENANTS, seed=3)
        assert sim.metrics is metrics
        sim.run(0.3)
        # server-side per-tenant request series share the same registry
        assert metrics.histogram("serve.request_seconds", tenant="reader").count > 0

    def test_typed_tenant_runs_on_schema_table(self) -> None:
        typed_table = mixed_type_table(rows=2000, seed=23)
        model = StreamingADE(max_kernels=32).fit(typed_table)
        server = EstimatorServer(model, cache_size=8)
        tenants = (
            TenantProfile(name="typed", rate=60.0, plan_pool=4, typed=True),
        )
        report = TrafficSimulator(server, typed_table, tenants, seed=2).run(0.3)
        assert report.tenants["typed"]["ops"]["query"]["count"] > 0


class TestReportExport:
    def test_round_trips_through_both_exporters(self, base_model, table, tmp_path) -> None:
        metrics = MetricsRegistry()
        sim = TrafficSimulator(
            make_server(base_model), table, TENANTS, seed=3, metrics=metrics
        )
        report = sim.run(0.3)
        for suffix in (".json", ".jsonl"):
            path = report.export(tmp_path / f"run{suffix}", metrics=metrics)
            from repro.obs.export import exporter_for_path

            loaded = exporter_for_path(path).load(path)
            assert loaded["checksum"] == pytest.approx(report.checksum)
            assert loaded["histograms"]  # registry snapshot rode along


class TestClosedLoop:
    """Collector ticking inside the simulated run."""

    def test_collector_ticks_on_virtual_time(self, base_model, table) -> None:
        from repro.obs.collector import TelemetryCollector

        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics, interval=0.1)
        sim = TrafficSimulator(
            make_server(base_model, metrics=metrics), table, TENANTS,
            seed=3, collector=collector,
        )
        sim.run(0.45)
        assert collector.last_tick == 0.45  # final partial-interval tick
        times = {p.time for p in collector.store}
        assert {0.1, 0.2, 0.3, 0.4} <= times
        assert any(
            key.startswith("traffic.ops") for key in collector.store.keys()
        )

    def run_collected(self, base_model, table):
        from repro.obs.collector import TelemetryCollector

        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics, interval=0.1)
        report = TrafficSimulator(
            make_server(base_model), table, TENANTS,
            seed=3, metrics=metrics, collector=collector,
        ).run(0.45)
        return report, collector

    def test_collector_counts_every_op(self, base_model, table) -> None:
        report, collector = self.run_collected(base_model, table)
        counted = sum(p.delta for p in collector.store if p.metric == "traffic.ops")
        assert counted == report.events

    def test_collector_series_are_deterministic(self, base_model, table) -> None:
        def ops_series():
            _, collector = self.run_collected(base_model, table)
            return [
                (p.key, p.time, p.delta) for p in collector.store if p.metric == "traffic.ops"
            ]

        first = ops_series()
        assert first and ops_series() == first
