"""The benchmark report envelope (``benchmarks/report.py``).

One ``BENCH_SMOKE`` knob decides both the ``smoke`` stamp of every
``BENCH_*.json`` and whether a gate is enforced by default, so no bench can
label a run differently from how its gates were judged.  Every envelope also
says what hardware produced it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest

_REPORT = Path(__file__).resolve().parents[1] / "benchmarks" / "report.py"


def _load(monkeypatch, tmp_path, smoke: str | None):
    """Import a fresh ``report`` module under ``BENCH_SMOKE=smoke`` that
    writes its envelopes under ``tmp_path``."""
    if smoke is None:
        monkeypatch.delenv("BENCH_SMOKE", raising=False)
    else:
        monkeypatch.setenv("BENCH_SMOKE", smoke)
    spec = importlib.util.spec_from_file_location("bench_report_under_test", _REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.RESULTS_DIR = tmp_path
    return module


def _run(monkeypatch, tmp_path, smoke: str | None, **enforced: bool | None) -> dict:
    """Record one failing gate per keyword (``None`` keeps the default
    enforcement) through a fresh module's ``bench_report`` and return the
    written envelope."""
    module = _load(monkeypatch, tmp_path, smoke)
    with module.bench_report("demo") as report:
        for key, value in enforced.items():
            if value is None:
                report.gate(key, False)
            else:
                report.gate(key, False, enforced=value)
    return json.loads((tmp_path / "BENCH_demo.json").read_text())


def test_smoke_run_is_stamped_and_only_records_default_gates(
    monkeypatch, tmp_path
) -> None:
    payload = _run(monkeypatch, tmp_path, "1", speedup=None)
    assert payload["smoke"] is True
    assert payload["gates"]["speedup"]["enforced"] is False
    assert payload["passed"] is True


def test_explicitly_enforced_gate_fails_a_smoke_run(monkeypatch, tmp_path) -> None:
    payload = _run(monkeypatch, tmp_path, "1", speedup=None, bitwise=True)
    assert payload["smoke"] is True
    assert payload["gates"]["bitwise"]["enforced"] is True
    assert payload["passed"] is False


@pytest.mark.parametrize("smoke", [None, "0"])
def test_full_run_enforces_gates_by_default(monkeypatch, tmp_path, smoke) -> None:
    payload = _run(monkeypatch, tmp_path, smoke, speedup=None)
    assert payload["smoke"] is False
    assert payload["gates"]["speedup"]["enforced"] is True
    assert payload["passed"] is False


@pytest.mark.parametrize(
    "cpuinfo, expected",
    [
        ("processor\t: 0\nmodel name\t: Test CPU @ 2.00GHz\n", "Test CPU @ 2.00GHz"),
        (None, "fallback-cpu"),  # no /proc/cpuinfo: platform.processor()
    ],
    ids=["cpuinfo", "fallback"],
)
def test_envelope_records_the_hardware(monkeypatch, tmp_path, cpuinfo, expected) -> None:
    read_text = Path.read_text

    def fake_read_text(self, *args, **kwargs):
        if str(self) != "/proc/cpuinfo":
            return read_text(self, *args, **kwargs)
        if cpuinfo is None:
            raise OSError("no procfs")
        return cpuinfo

    monkeypatch.setattr(Path, "read_text", fake_read_text)
    monkeypatch.setattr(platform, "processor", lambda: "fallback-cpu")
    payload = _run(monkeypatch, tmp_path, None)
    assert payload["cpu_count"] == os.cpu_count()
    assert payload["cpu_model"] == expected


def test_registry_snapshot_rides_in_the_envelope(monkeypatch, tmp_path) -> None:
    from repro.obs.metrics import MetricsRegistry

    module = _load(monkeypatch, tmp_path, None)
    registry = MetricsRegistry()
    registry.counter("ops", tenant="a").inc(3)
    registry.histogram("latency").record(1e-3)
    with module.bench_report("demo") as report:
        report.telemetry(registry)
        report.metric("speedup", np.float64(2.5))
        report.metric("sizes", (np.int64(1), 2))
    payload = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert payload["telemetry"] == json.loads(json.dumps(registry.snapshot()))
    assert payload["metrics"] == {"speedup": 2.5, "sizes": [1, 2]}


def test_envelope_is_written_when_the_block_raises(monkeypatch, tmp_path) -> None:
    module = _load(monkeypatch, tmp_path, None)
    with pytest.raises(AssertionError, match="red gate"):
        with module.bench_report("demo") as report:
            assert report.gate("speedup", False), "red gate"
    payload = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert payload["passed"] is False
    assert payload["gates"]["speedup"] == {"passed": False, "enforced": True, "detail": None}
    assert "telemetry" not in payload


def test_every_committed_report_has_a_bench_that_writes_it() -> None:
    """No orphaned ``BENCH_<name>.json``: some ``benchmarks/bench_*.py``
    must still write each committed report through ``bench_report``."""
    benchmarks = _REPORT.parent
    written = {
        name
        for path in benchmarks.glob("bench_*.py")
        for name in re.findall(r"bench_report\(\s*[\"']([^\"']+)[\"']", path.read_text())
    }
    committed = {
        path.name[len("BENCH_") : -len(".json")]
        for path in (benchmarks / "results").glob("BENCH_*.json")
    }
    assert committed, "no committed BENCH_*.json reports found"
    assert committed <= written, f"orphaned reports: {sorted(committed - written)}"
