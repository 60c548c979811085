"""CSV exporter: lossless columnar round-trips."""

from __future__ import annotations

from repro.obs.collector import TelemetryCollector, store_from_payload
from repro.obs.export import CSVExporter, exporter_for_path
from repro.obs.metrics import MetricsRegistry


def collected_payload() -> dict:
    """A realistic series payload: counter, labelled counter, histogram."""
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry)
    registry.counter("traffic.ops", tenant="a", op="query").inc(3)
    registry.histogram("serve.request_seconds", tenant="a").record(1e-3)
    collector.tick(now=0.0)
    for value in (2e-3, 8e-3):
        registry.histogram("serve.request_seconds", tenant="a").record(value)
    registry.counter("traffic.ops", tenant="a", op="query").inc(4)
    registry.gauge_fn("serve.generation", lambda: 2)
    collector.tick(now=0.5)
    registry.counter("traffic.ops", tenant="a", op="query").inc(1)
    collector.tick(now=1.0)
    return collector.series_payload(bench="columnar-test")


def snapshot_payload() -> dict:
    registry = MetricsRegistry()
    registry.counter("c", tenant="a").inc(7)
    registry.gauge_fn("g", lambda: 1.5)
    registry.histogram("h").record(2e-4)
    return registry.snapshot()


class TestCSV:
    def test_registered(self) -> None:
        assert isinstance(exporter_for_path("series.csv"), CSVExporter)

    def test_series_round_trip_lossless(self, tmp_path) -> None:
        exporter = CSVExporter()
        payload = collected_payload()
        path = exporter.export(payload, tmp_path / "series.csv")
        assert exporter.load(path) == payload

    def test_snapshot_round_trip_lossless(self, tmp_path) -> None:
        exporter = CSVExporter()
        payload = snapshot_payload()
        path = exporter.export(payload, tmp_path / "snap.csv")
        assert exporter.load(path) == payload

    def test_dumps_loads_inverse(self) -> None:
        exporter = CSVExporter()
        payload = collected_payload()
        assert exporter.loads(exporter.dumps(payload)) == payload

    def test_store_rebuilds_from_csv(self, tmp_path) -> None:
        exporter = CSVExporter()
        payload = collected_payload()
        path = exporter.export(payload, tmp_path / "series.csv")
        store = store_from_payload(exporter.load(path))
        assert "traffic.ops{op=query,tenant=a}" in store.keys()
        assert any(
            p.p99 is not None for p in store.points("serve.request_seconds{tenant=a}")
        )

    def test_one_row_per_point(self, tmp_path) -> None:
        exporter = CSVExporter()
        payload = collected_payload()
        text = exporter.dumps(payload)
        lines = [line for line in text.splitlines() if line.strip()]
        # meta line + header + one row per series point
        assert len(lines) == 2 + len(payload["points"])
        assert lines[0].startswith("#meta ")
