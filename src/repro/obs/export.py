"""Pluggable serialisation of metrics snapshots.

A :class:`MetricsExporter` turns the JSON-native payload produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (or any dict built on top
of it, e.g. a traffic-simulator report) into bytes on disk and back,
**losslessly**: ``exporter.load(exporter.export(payload, path))`` equals the
original payload, which the exporter test suite pins for every registered
format.

Exporters live in a registry keyed by format name — ``"json"`` (one
indented document), ``"jsonl"`` (line-delimited records, one metric per
line, streaming/append-friendly) and the columnar ``"csv"``
(:mod:`repro.obs.columnar`).
Specs resolve through :func:`repro.core.resolve.resolve_component` — the
same instance / registry-name / config-mapping convention estimators use —
so an exporter choice round-trips through configs exactly like every other
pluggable component in the repo.
"""

from __future__ import annotations

import json
import pathlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping

from repro.core.errors import InvalidParameterError
from repro.core.resolve import resolve_component

__all__ = [
    "MetricsExporter",
    "JSONExporter",
    "JSONLExporter",
    "register_exporter",
    "create_exporter",
    "exporter_from_config",
    "available_exporters",
    "resolve_exporter",
    "exporter_for_path",
    "exporter_suffixes",
]

_EXPORTERS: dict[str, Callable[..., "MetricsExporter"]] = {}


def register_exporter(name: str, factory: Callable[..., "MetricsExporter"] | None = None):
    """Register an exporter class/factory under ``name`` (decorator form too)."""

    def _register(target: Callable[..., "MetricsExporter"]):
        _EXPORTERS[name] = target
        target.name = name
        return target

    if factory is not None:
        return _register(factory)
    return _register


def create_exporter(name: str, **kwargs: Any) -> "MetricsExporter":
    """Instantiate a registered exporter by name."""
    try:
        factory = _EXPORTERS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown exporter {name!r}; available: {available_exporters()}"
        ) from None
    return factory(**kwargs)


def exporter_from_config(config: Mapping[str, Any]) -> "MetricsExporter":
    """Instantiate an exporter from a ``{"name": ..., **params}`` mapping."""
    params = dict(config)
    try:
        name = params.pop("name")
    except KeyError:
        raise InvalidParameterError("exporter config requires a 'name' key") from None
    return create_exporter(str(name), **params)


def available_exporters() -> list[str]:
    """Registered exporter names, sorted."""
    return sorted(_EXPORTERS)


def resolve_exporter(
    spec: "MetricsExporter | Mapping[str, Any] | str | None",
    default: Callable[[], "MetricsExporter"] | None = None,
    *,
    what: str = "exporter",
) -> "MetricsExporter":
    """Resolve an exporter spec (instance / registry name / config mapping).

    The exporter binding of :func:`repro.core.resolve.resolve_component` —
    the shared resolution convention, not a third idiom.
    """
    return resolve_component(
        spec,
        base_type=MetricsExporter,
        create=create_exporter,
        from_config=exporter_from_config,
        default=default,
        what=what,
        kind="exporter",
    )


def exporter_suffixes() -> dict[str, str]:
    """Mapping of registered exporter name → preferred file suffix."""
    return {
        name: str(getattr(_EXPORTERS[name], "suffix", ""))
        for name in available_exporters()
    }


def exporter_for_path(path: "str | pathlib.Path") -> "MetricsExporter":
    """Pick an exporter from a file suffix (``.csv`` → csv, ``.jsonl`` → jsonl, ...).

    Raises :class:`InvalidParameterError` naming every registered format and
    its suffix when no exporter claims the suffix, so a typo'd ``--telemetry``
    path fails loudly instead of silently writing JSON.
    """
    suffix = pathlib.Path(path).suffix.lower()
    for name, known in exporter_suffixes().items():
        if known == suffix:
            return create_exporter(name)
    formats = ", ".join(
        f"{name} ({known})" for name, known in exporter_suffixes().items()
    )
    raise InvalidParameterError(
        f"no exporter registered for suffix {suffix!r} of {str(path)!r}; "
        f"available: {formats}"
    )


class MetricsExporter(ABC):
    """Serialise a JSON-native metrics payload to disk and back, losslessly."""

    name = "abstract"
    #: Preferred file suffix (used by :func:`exporter_for_path`).
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

    def _config_params(self) -> dict[str, Any]:
        return {}

    def config(self) -> dict[str, Any]:
        """Reconstruction recipe (``resolve_exporter``-compatible mapping)."""
        return {"name": self.name, **self._config_params()}


#: Metric-table sections a registry snapshot may carry; JSONL splits these
#: into one record per metric and reassembles them on load.
_SECTIONS = ("counters", "gauges", "histograms")


@register_exporter("json")
class JSONExporter(MetricsExporter):
    """One indented, sorted JSON document — the human-diffable archive format."""

    suffix = ".json"

    def __init__(self, indent: int = 2) -> None:
        if indent < 0:
            raise InvalidParameterError("indent must be non-negative")
        self.indent = int(indent)

    def dumps(self, payload: Mapping[str, Any]) -> str:
        return json.dumps(dict(payload), indent=self.indent, sort_keys=True) + "\n"

    def loads(self, text: str) -> dict[str, Any]:
        return json.loads(text)

    def _config_params(self) -> dict[str, Any]:
        return {"indent": self.indent}


@register_exporter("jsonl")
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
