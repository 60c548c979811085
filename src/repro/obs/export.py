"""Serialisation of metrics snapshots, picked by file suffix.

A :class:`MetricsExporter` turns the JSON-native payload produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (or any dict built on top
of it, e.g. a traffic-simulator report or a collector series) into bytes on
disk and back, **losslessly**: ``exporter.load(exporter.export(payload,
path))`` equals the original payload, which the exporter test suite pins for
every format.

Three formats ship, one per file suffix, and :func:`exporter_for_path` picks
one from a path:

* ``.json`` — :class:`JSONExporter`, one indented, sorted document;
* ``.jsonl`` — :class:`JSONLExporter`, line-delimited records, one metric per
  line, streaming/append-friendly;
* ``.csv`` — :class:`CSVExporter`, stdlib CSV with JSON-encoded cells, one
  row per series point (or per metric for a snapshot).
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from abc import ABC, abstractmethod
from typing import Any, Mapping

from repro.core.errors import InvalidParameterError

__all__ = [
    "MetricsExporter",
    "JSONExporter",
    "JSONLExporter",
    "CSVExporter",
    "POINT_COLUMNS",
    "exporter_for_path",
]


class MetricsExporter(ABC):
    """Serialise a JSON-native metrics payload to disk and back, losslessly."""

    #: File suffix this format claims (used by :func:`exporter_for_path`).
    suffix = ".json"

    @abstractmethod
    def dumps(self, payload: Mapping[str, Any]) -> str:
        """Render ``payload`` as text."""

    @abstractmethod
    def loads(self, text: str) -> dict[str, Any]:
        """Parse text produced by :meth:`dumps` back into the payload."""

    def export(self, payload: Mapping[str, Any], path: "str | pathlib.Path") -> pathlib.Path:
        """Write ``payload`` to ``path`` (parent directories created)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps(payload))
        return path

    def load(self, path: "str | pathlib.Path") -> dict[str, Any]:
        """Read a payload previously written by :meth:`export`."""
        return self.loads(pathlib.Path(path).read_text())


#: Metric-table sections a registry snapshot may carry; JSONL splits these
#: into one record per metric and reassembles them on load.
_SECTIONS = ("counters", "gauges", "histograms")


class JSONExporter(MetricsExporter):
    """One indented, sorted JSON document — the human-diffable archive format."""

    suffix = ".json"

    def dumps(self, payload: Mapping[str, Any]) -> str:
        return json.dumps(dict(payload), indent=2, sort_keys=True) + "\n"

    def loads(self, text: str) -> dict[str, Any]:
        return json.loads(text)


class JSONLExporter(MetricsExporter):
    """Line-delimited records: one ``meta`` line, then one line per metric.

    Streaming/append-friendly (each line is a self-contained JSON object) and
    still a lossless round-trip: the ``meta`` record carries every
    non-metric key plus the list of metric sections present, each metric
    record carries its section, key and data, and :meth:`loads` reassembles
    the exact original payload.
    """

    suffix = ".jsonl"

    def dumps(self, payload: Mapping[str, Any]) -> str:
        payload = dict(payload)
        sections = [s for s in _SECTIONS if s in payload]
        meta = {k: v for k, v in payload.items() if k not in _SECTIONS}
        lines = [json.dumps({"record": "meta", "sections": sections, "data": meta},
                            sort_keys=True)]
        for section in sections:
            for key, data in payload[section].items():
                lines.append(
                    json.dumps(
                        {"record": section, "key": key, "data": data}, sort_keys=True
                    )
                )
        return "\n".join(lines) + "\n"

    def loads(self, text: str) -> dict[str, Any]:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise InvalidParameterError("empty JSONL metrics file")
        head = json.loads(lines[0])
        if head.get("record") != "meta":
            raise InvalidParameterError("JSONL metrics file must start with a meta record")
        payload: dict[str, Any] = dict(head["data"])
        for section in head.get("sections", []):
            payload[section] = {}
        for line in lines[1:]:
            record = json.loads(line)
            section = record.get("record")
            if section not in _SECTIONS:
                raise InvalidParameterError(f"unknown JSONL record kind {section!r}")
            payload.setdefault(section, {})[record["key"]] = record["data"]
        return payload


#: Column order of a series-payload row (matches ``SeriesPoint.to_record``).
POINT_COLUMNS = (
    "time",
    "metric",
    "labels",
    "kind",
    "value",
    "delta",
    "rate",
    "total",
    "mean",
    "p50",
    "p95",
    "p99",
    "buckets",
)

#: Fallback column order for non-series payloads (one row per metric).
_SECTION_COLUMNS = ("section", "key", "data")


def _split_meta(payload: Mapping[str, Any]) -> tuple[dict[str, Any], bool]:
    """Non-row keys of ``payload`` plus whether it is a series payload."""
    is_series = "points" in payload
    drop = ("points",) if is_series else _SECTIONS
    return {k: v for k, v in payload.items() if k not in drop}, is_series


def _rows(payload: Mapping[str, Any], is_series: bool) -> list[dict[str, Any]]:
    if is_series:
        return [dict(record) for record in payload["points"]]
    return [
        {"section": section, "key": key, "data": data}
        for section in _SECTIONS
        if section in payload
        for key, data in payload[section].items()
    ]


#: Columns only histogram points carry (``SeriesPoint.to_record`` omits them
#: on counter/gauge records, so the columnar null stands for "absent").
_HISTOGRAM_ONLY = ("total", "mean", "p50", "p95", "p99", "buckets")


def _strip_absent(row: dict[str, Any]) -> dict[str, Any]:
    """Drop columnar nulls that encode keys the point kind never carries."""
    if row.get("kind") != "histogram":
        for column in _HISTOGRAM_ONLY:
            row.pop(column, None)
    return row


def _reassemble(
    meta: dict[str, Any], rows: list[dict[str, Any]], is_series: bool
) -> dict[str, Any]:
    payload = dict(meta)
    if is_series:
        payload["points"] = rows
        return payload
    for section in meta.get("sections", ()):  # preserve empty sections
        payload.setdefault(section, {})
    payload.pop("sections", None)
    for row in rows:
        payload.setdefault(row["section"], {})[row["key"]] = row["data"]
    return payload


class CSVExporter(MetricsExporter):
    """Stdlib CSV with JSON-encoded cells — columnar yet lossless.

    Line 1 is a ``#meta {json}`` comment carrying every non-row payload key
    (sampling interval, store capacity, run metadata) plus the payload
    shape; line 2 is the header; every further line is one point (series
    payloads) or one metric (snapshot payloads).  JSON-encoding each cell
    keeps types exact — ``null`` ≠ ``0.0``, labels and sparse histogram
    buckets stay structured — while the file still opens in any spreadsheet
    or dataframe tool.
    """

    suffix = ".csv"

    def dumps(self, payload: Mapping[str, Any]) -> str:
        meta, is_series = _split_meta(payload)
        if not is_series:
            meta = dict(meta)
            meta["sections"] = [s for s in _SECTIONS if s in payload]
        columns = POINT_COLUMNS if is_series else _SECTION_COLUMNS
        buffer = io.StringIO()
        buffer.write(
            "#meta "
            + json.dumps({"series": is_series, "data": meta}, sort_keys=True)
            + "\n"
        )
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in _rows(payload, is_series):
            writer.writerow(
                [json.dumps(row.get(column), sort_keys=True) for column in columns]
            )
        return buffer.getvalue()

    def loads(self, text: str) -> dict[str, Any]:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("#meta "):
            raise InvalidParameterError(
                "CSV metrics file must start with a '#meta' line"
            )
        head = json.loads(lines[0][len("#meta "):])
        is_series = bool(head.get("series"))
        reader = csv.reader(lines[1:])
        try:
            columns = next(reader)
        except StopIteration:
            raise InvalidParameterError("CSV metrics file has no header row") from None
        rows = []
        for cells in reader:
            row = {
                column: json.loads(cell) for column, cell in zip(columns, cells)
            }
            if is_series:
                row = _strip_absent(row)
            rows.append(row)
        return _reassemble(dict(head.get("data", {})), rows, is_series)


#: The one suffix → format table :func:`exporter_for_path` reads.
_EXPORTERS: dict[str, type[MetricsExporter]] = {
    cls.suffix: cls for cls in (JSONExporter, JSONLExporter, CSVExporter)
}


def exporter_for_path(path: "str | pathlib.Path") -> MetricsExporter:
    """Pick an exporter from a file suffix (``.csv`` → csv, ``.jsonl`` → jsonl, ...).

    The suffix match ignores case.  Raises :class:`InvalidParameterError`
    naming every supported format and its suffix when none matches, so a
    typo'd ``--telemetry`` path fails loudly instead of silently writing JSON.
    """
    suffix = pathlib.Path(path).suffix.lower()
    try:
        return _EXPORTERS[suffix]()
    except KeyError:
        formats = ", ".join(f"{known[1:]} ({known})" for known in _EXPORTERS)
        raise InvalidParameterError(
            f"no exporter for suffix {suffix!r} of {str(path)!r}; "
            f"supported: {formats}"
        ) from None
