"""Dashboard rendering: self-contained offline HTML from collected series."""

from __future__ import annotations

import re

import pytest

from repro.core.errors import InvalidParameterError
from repro.obs.collector import TelemetryCollector, TimeSeriesStore, store_from_payload
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.export import exporter_for_path
from repro.obs.metrics import MetricsRegistry


def panel_stats(html: str) -> dict[str, str]:
    """Each panel's series key mapped to its readout line."""
    return dict(
        re.findall(r'<div class="name">([^<]*)</div>.*?<div class="stats">([^<]*)</div>', html)
    )


@pytest.fixture()
def collector() -> TelemetryCollector:
    registry = MetricsRegistry()
    collector = TelemetryCollector(registry)
    collector.tick(now=0.0)
    generation = {"value": 0}
    registry.gauge_fn("serve.generation", lambda: generation["value"])
    for step in range(1, 5):
        registry.counter("traffic.ops", tenant="a").inc(10 * step)
        registry.histogram("serve.request_seconds", tenant="a").record(1e-3 * step)
        generation["value"] = step
        collector.tick(now=float(step))
    return collector


class TestRender:
    def test_renders_every_series_as_a_panel(self, collector) -> None:
        html = render_dashboard(collector, title="test board")
        assert html.lstrip().lower().startswith("<!doctype html>")
        assert "test board" in html
        for key in collector.store.keys():
            assert key in html
        assert "<svg" in html  # sparklines are inline SVG

    def test_self_contained_offline(self, collector) -> None:
        # Zero third-party deps: no external scripts, stylesheets or fonts.
        html = render_dashboard(collector)
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and "<link" not in html

    def test_renders_from_exported_file(self, collector, tmp_path) -> None:
        path = tmp_path / "series.csv"
        exporter_for_path(path).export(collector.series_payload(), path)
        store = store_from_payload(exporter_for_path(path).load(path))
        assert render_dashboard(store) == render_dashboard(collector)

    def test_write_dashboard(self, collector, tmp_path) -> None:
        path = write_dashboard(collector, tmp_path / "board.html")
        assert path.read_text().lstrip().lower().startswith("<!doctype html>")

    def test_renders_from_payload_mapping(self, collector) -> None:
        store = store_from_payload(collector.series_payload())
        assert render_dashboard(store) == render_dashboard(collector)

    def test_empty_source_renders_placeholder(self) -> None:
        html = render_dashboard(TimeSeriesStore())
        assert "0 series · 0 points" in html
        assert "no series recorded" in html

    def test_window_restricts_rollup_readouts(self, collector) -> None:
        # The counter's intervals hold 10, 20, 30 and 40 ops over 1 s each;
        # the gauge reads 1, 2, 3, 4.  Totals and point counts stay whole.
        everything = render_dashboard(collector)
        assert "trailing window" not in everything
        stats = panel_stats(everything)
        assert stats["traffic.ops{tenant=a}"] == "kind=counter · points=4 · rate=25/s · total=100"
        assert stats["serve.generation"] == "kind=gauge · points=4 · last=4 · mean=2.5"
        recent = render_dashboard(collector, window=1.0)
        assert "trailing window 1s" in recent
        stats = panel_stats(recent)
        assert stats["traffic.ops{tenant=a}"] == "kind=counter · points=4 · rate=40/s · total=100"
        assert stats["serve.generation"] == "kind=gauge · points=4 · last=4 · mean=4"

    def test_title_and_series_keys_are_escaped(self) -> None:
        registry = MetricsRegistry()
        collector = TelemetryCollector(registry)
        collector.tick(now=0.0)
        registry.counter("ops", tenant="<b>&co").inc()
        collector.tick(now=1.0)
        html = render_dashboard(collector, title="<i>board</i>")
        assert "<i>" not in html and "<b>" not in html
        assert "&lt;i&gt;board&lt;/i&gt;" in html
        assert "ops{tenant=&lt;b&gt;&amp;co}" in html

    def test_bad_source_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            render_dashboard(3.14)
