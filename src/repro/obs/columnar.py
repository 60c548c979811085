"""Columnar exporter: stdlib CSV with JSON-encoded cells.

The exporter emits **one row per (timestamp, metric, labels) point** when the
payload is a collector series (:func:`repro.obs.collector.series_payload`,
recognised by its ``"points"`` list); any other metrics payload — e.g. a raw
registry snapshot — falls back to one row per metric keyed by section, the
same decomposition the JSONL exporter uses.  Either way the round-trip is
lossless: every cell is JSON-encoded, so ``None`` vs ``0.0``, nested label
mappings and sparse bucket dicts all survive ``export`` → ``load`` exactly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Mapping

from repro.core.errors import InvalidParameterError
from repro.obs.export import _SECTIONS, MetricsExporter, register_exporter

__all__ = ["CSVExporter", "POINT_COLUMNS"]

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


@register_exporter("csv")
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
