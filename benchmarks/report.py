"""Machine-readable benchmark reporting.

Every ``bench_*.py`` harness emits, alongside its rendered text table, one
``benchmarks/results/BENCH_<name>.json`` file holding the metrics it
measured and the pass/fail state of its acceptance gates — the
machine-readable perf trajectory that CI archives per run.  Usage::

    from report import bench_report

    def test_something(report):
        with bench_report("something") as rep:
            result = report(experiment)
            rep.metric("speedup", speedup)
            assert rep.gate("speedup_ge_5x", speedup >= 5.0), speedup

``gate`` records the outcome and returns it, so the test can still ``assert``
on it; the JSON file is written when the ``with`` block exits *even when the
assertion fails*, so a red gate is visible in the artifact, not just in the
pytest output.

``BENCH_SMOKE=1`` selects every bench's reduced smoke configuration.  Only
this module reads it: benches import :data:`SMOKE` to size their runs, every
report is stamped with it, and a gate is enforced only outside smoke mode
unless it passes ``enforced=True`` (gates that hold on any hardware, such as
numeric fidelity), so the trajectory distinguishes "passed" from "not run".
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from contextlib import contextmanager
from datetime import datetime, timezone
from time import perf_counter
from typing import Any, Iterator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Whether this run uses the reduced smoke configuration (``BENCH_SMOKE=1``).
SMOKE = os.environ.get("BENCH_SMOKE") == "1"

__all__ = ["BenchReport", "bench_report", "RESULTS_DIR", "SMOKE"]


def _numpy_version() -> str | None:
    """numpy's version string, or ``None`` when numpy is unavailable.

    Recorded in every report envelope: numeric drift between two archived
    runs is uninterpretable without knowing whether the kernel library
    changed underneath the benchmark.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep of the repo
        return None
    return numpy.__version__


def _git_sha() -> str | None:
    """The repo HEAD commit, or ``None`` outside a git checkout.

    Recorded in every envelope so an archived ``BENCH_*.json`` can be tied
    back to the exact code that produced it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _cpu_model() -> str | None:
    """The CPU model name from ``/proc/cpuinfo``, else ``platform.processor()``.

    Recorded with ``cpu_count`` in every envelope: two archived timings are
    comparable only when they say what hardware produced them.
    """
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other numerics into plain JSON values."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class BenchReport:
    """Collects metrics and gate outcomes for one benchmark run."""

    def __init__(self, name: str) -> None:
        self.name = str(name)
        self.metrics: dict[str, Any] = {}
        self.gates: dict[str, dict[str, Any]] = {}
        self.notes: list[str] = []
        self.telemetry_snapshot: dict[str, Any] | None = None
        self._started = perf_counter()

    def telemetry(self, registry: Any) -> None:
        """Attach a metrics-registry snapshot to the report envelope.

        ``registry`` is anything with a ``snapshot()`` method — a
        :class:`repro.obs.metrics.MetricsRegistry` — so a benchmark that
        instrumented its run ships the raw counter/histogram payload next to
        its derived metrics.
        """
        self.telemetry_snapshot = registry.snapshot()

    def metric(self, key: str, value: Any) -> None:
        """Record one measured value (numbers, strings, flat lists/dicts)."""
        self.metrics[str(key)] = _jsonable(value)

    def note(self, text: str) -> None:
        """Attach a free-form annotation (configuration, caveats, ...)."""
        self.notes.append(str(text))

    def gate(
        self, key: str, passed: bool, *, detail: Any = None, enforced: bool = not SMOKE
    ) -> bool:
        """Record an acceptance-gate outcome and return ``passed``.

        A non-enforced gate — by default, every gate of a smoke run on shared
        CI hardware — is recorded but ignored by the report's overall
        ``passed`` flag.
        """
        self.gates[str(key)] = {
            "passed": bool(passed),
            "enforced": bool(enforced),
            "detail": _jsonable(detail),
        }
        return bool(passed)

    @property
    def passed(self) -> bool:
        """Whether every enforced gate passed (vacuously true without gates)."""
        return all(g["passed"] for g in self.gates.values() if g["enforced"])

    def write(self, directory: pathlib.Path | None = None) -> pathlib.Path:
        """Write ``BENCH_<name>.json`` under ``benchmarks/results/``."""
        directory = directory or RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        payload = {
            "name": self.name,
            "passed": self.passed,
            "smoke": SMOKE,
            "metrics": self.metrics,
            "gates": self.gates,
            "notes": self.notes,
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "git_sha": _git_sha(),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "duration_seconds": round(perf_counter() - self._started, 6),
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        if self.telemetry_snapshot is not None:
            payload["telemetry"] = self.telemetry_snapshot
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


@contextmanager
def bench_report(name: str) -> Iterator[BenchReport]:
    """Context manager: yield a :class:`BenchReport`, write it on exit.

    The file is written even when the block raises (a failed gate assertion
    must still leave its red record in the artifact).  The envelope's
    ``smoke`` stamp comes from :data:`SMOKE`, so archived trajectories can
    filter out non-gating runs on shared CI hardware.
    """
    rep = BenchReport(name)
    try:
        yield rep
    finally:
        rep.write()
