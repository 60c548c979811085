"""Exporter choice by file suffix + lossless round-trips (JSON and JSONL)."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidParameterError
from repro.obs.export import (
    CSVExporter,
    JSONExporter,
    JSONLExporter,
    exporter_for_path,
)
from repro.obs.metrics import MetricsRegistry


def sample_payload() -> dict:
    """A realistic simulator-run payload: report keys + registry snapshot."""
    registry = MetricsRegistry()
    registry.counter("traffic.ops", tenant="a", op="query").inc(7)
    registry.gauge_fn("serve.generation", lambda: 3)
    for v in (1e-4, 2e-4, 5e-3):
        registry.histogram("traffic.op_seconds", tenant="a", op="query").record(v)
    registry.histogram("serve.request_seconds").record(3e-5)
    payload = {"duration": 2.0, "seed": 42, "checksum": 10.5, "tenants": {"a": {"p99": 0.005}}}
    payload.update(registry.snapshot())
    return payload


class TestResolution:
    @pytest.mark.parametrize(
        ("suffix", "cls"),
        [
            (".json", JSONExporter),
            (".jsonl", JSONLExporter),
            (".csv", CSVExporter),
            (".CSV", CSVExporter),
        ],
    )
    def test_exporter_for_path_picks_by_suffix(self, suffix, cls, tmp_path) -> None:
        exporter = exporter_for_path(tmp_path / f"m{suffix}")
        assert type(exporter) is cls
        assert exporter.suffix == suffix.lower()

    def test_exporter_for_path_by_suffix(self, tmp_path) -> None:
        assert isinstance(exporter_for_path(tmp_path / "m.jsonl"), JSONLExporter)
        assert isinstance(exporter_for_path(tmp_path / "m.json"), JSONExporter)

    def test_exporter_for_path_unknown_suffix_lists_formats(self, tmp_path) -> None:
        with pytest.raises(InvalidParameterError) as err:
            exporter_for_path(tmp_path / "m.txt")
        message = str(err.value)
        assert "'.txt'" in message
        assert "json (.json)" in message and "csv (.csv)" in message


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["json", "jsonl"])
    def test_lossless_round_trip(self, name, tmp_path) -> None:
        exporter = exporter_for_path(f"metrics.{name}")
        payload = sample_payload()
        path = exporter.export(payload, tmp_path / f"metrics{exporter.suffix}")
        assert exporter.load(path) == payload

    @pytest.mark.parametrize("name", ["json", "jsonl"])
    def test_dumps_loads_inverse(self, name) -> None:
        exporter = exporter_for_path(f"metrics.{name}")
        payload = sample_payload()
        assert exporter.loads(exporter.dumps(payload)) == payload

    def test_jsonl_one_record_per_metric(self) -> None:
        payload = sample_payload()
        lines = JSONLExporter().dumps(payload).strip().splitlines()
        metric_count = sum(
            len(payload[s]) for s in ("counters", "gauges", "histograms")
        )
        assert len(lines) == 1 + metric_count  # meta + one line per metric

    def test_jsonl_rejects_headless_file(self) -> None:
        with pytest.raises(InvalidParameterError):
            JSONLExporter().loads('{"record": "counters", "key": "x", "data": {}}\n')

    def test_jsonl_rejects_empty(self) -> None:
        with pytest.raises(InvalidParameterError):
            JSONLExporter().loads("")

    def test_export_creates_parent_dirs(self, tmp_path) -> None:
        path = JSONExporter().export({"a": 1}, tmp_path / "deep" / "dir" / "m.json")
        assert path.is_file()
