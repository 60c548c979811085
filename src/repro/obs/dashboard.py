"""Static telemetry dashboard: collector series → self-contained HTML.

:func:`render_dashboard` turns a telemetry source — a live
:class:`~repro.obs.collector.TelemetryCollector` or a
:class:`~repro.obs.collector.TimeSeriesStore` — into one HTML page with
**zero third-party runtime dependencies**: styling is inline CSS, charts are
inline SVG sparklines, so the file renders offline in any browser straight
from disk.  An exported series file renders through its store::

    render_dashboard(store_from_payload(exporter_for_path(path).load(path)))

The page shows one panel per series: a sparkline of the rate for
counter/histogram series, of the value for gauges, plus trailing-window
rollup readouts (rate, mean, p50/p95/p99).
"""

from __future__ import annotations

import html
import pathlib
from typing import Any

from repro.core.errors import InvalidParameterError
from repro.obs.collector import TelemetryCollector, TimeSeriesStore

__all__ = ["render_dashboard", "write_dashboard"]

_STYLE = """
body { font-family: ui-monospace, 'SF Mono', Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 72rem; background: #11151c; color: #d8dee9; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
.meta { color: #7b88a1; font-size: 0.85rem; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(21rem, 1fr));
        gap: 0.9rem; }
.panel { border: 1px solid #2e3440; border-radius: 6px; padding: 0.7rem 0.9rem;
         background: #161b24; }
.panel .name { font-size: 0.8rem; color: #88c0d0; word-break: break-all; }
.panel .stats { font-size: 0.75rem; color: #7b88a1; margin-top: 0.35rem; }
.panel svg { width: 100%; height: 3.2rem; margin-top: 0.4rem; }
polyline { fill: none; stroke: #88c0d0; stroke-width: 1.5; }
"""


def _coerce_store(source: "TelemetryCollector | TimeSeriesStore") -> TimeSeriesStore:
    if isinstance(source, TelemetryCollector):
        return source.store
    if isinstance(source, TimeSeriesStore):
        return source
    raise InvalidParameterError(
        "dashboard source must be a TelemetryCollector or TimeSeriesStore, "
        f"got {type(source).__name__}"
    )


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}"


def _sparkline(values: list[float], width: int = 320, height: int = 48) -> str:
    """Inline SVG polyline over ``values`` (autoscaled, newest rightmost)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    pad = 3.0
    step = (width - 2 * pad) / max(len(values) - 1, 1)
    coords = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (value - low) / span * (height - 2 * pad):.1f}"
        for i, value in enumerate(values)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" preserveAspectRatio="none" '
        f'role="img"><polyline points="{coords}"/></svg>'
    )


def _panel(store: TimeSeriesStore, key: str, window: float | None) -> str:
    points = store.points(key)
    kind = points[-1].kind
    values = [p.value if kind == "gauge" else p.rate for p in points]
    rollup = store.rollup(key, window)
    stats: list[str] = [f"kind={kind}", f"points={len(points)}"]
    if kind == "gauge":
        stats.append(f"last={_fmt(points[-1].value)}")
        if rollup is not None and rollup.mean is not None:
            stats.append(f"mean={_fmt(rollup.mean)}")
    else:
        stats.append(f"rate={_fmt(rollup.rate if rollup else None)}/s")
        stats.append(f"total={_fmt(sum(p.delta for p in points))}")
    if kind == "histogram" and rollup is not None:
        stats += [
            f"mean={_fmt(rollup.mean)}s",
            f"p50={_fmt(rollup.p50)}s",
            f"p95={_fmt(rollup.p95)}s",
            f"p99={_fmt(rollup.p99)}s",
        ]
    return (
        '<div class="panel">'
        f'<div class="name">{html.escape(key)}</div>'
        f"{_sparkline(values)}"
        f'<div class="stats">{html.escape(" · ".join(stats))}</div>'
        "</div>"
    )


def render_dashboard(
    source: "TelemetryCollector | TimeSeriesStore",
    *,
    title: str = "repro telemetry",
    window: float | None = None,
) -> str:
    """Render a telemetry source as a self-contained HTML dashboard string.

    ``window`` restricts the rollup readouts to the trailing window in
    seconds, default all retained points.
    """
    store = _coerce_store(source)
    keys = store.keys()
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<div class="meta">{len(keys)} series · {len(store)} points'
        + (f" · trailing window {window:g}s" if window else "")
        + "</div>",
    ]
    parts.append("<h2>Series</h2>")
    if keys:
        parts.append('<div class="grid">')
        parts.extend(_panel(store, key, window) for key in keys)
        parts.append("</div>")
    else:
        parts.append('<div class="meta">no series recorded</div>')
    parts.append("</body></html>")
    return "".join(parts)


def write_dashboard(
    source: "TelemetryCollector | TimeSeriesStore",
    path: "str | pathlib.Path",
    **kwargs: Any,
) -> pathlib.Path:
    """Render :func:`render_dashboard` to ``path`` (parents created)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_dashboard(source, **kwargs))
    return path
