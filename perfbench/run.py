"""Run the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-plans --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

The benchmark builds nothing: it imports ``repro`` from ``src/`` of the
checkout it lives in, and exits with code 2 when that is missing.  A single
process drives the public API as a closed loop (one caller, which waits for
every answer) with at most two threads, the shard executor's.  Inputs come
from ``--seed`` only (:mod:`perfbench.inputs`); the workloads are described
in :mod:`perfbench.workloads`.

``--trace 0`` measures one untraced run and reports the end-to-end metrics.
Latency and throughput are listed in reference-kernel units (``ref``): each
request's latency over a fixed kernel's time sampled every quarter second of
the run (:mod:`perfbench.reference`), which keeps the host's load swings out
of them; the microsecond figures are in the full report.
``--trace 1`` measures an untraced run, then a traced one whose spans wrap
the layer boundaries (:mod:`perfbench.tracing`), and reports the per-layer
metrics, the tracing overhead (traced minus untraced, per end-to-end
metric) and each span's unaccounted share (self time over duration).

Output, per workload: a table of every metric with its unit, sample count
and percentile; one line ``report {...}`` with the full report (environment,
input properties, every metric); and, last, one JSON line with ``correct``,
``attempted``, ``failed`` and the ``metrics`` that ``BENCHMARK.json`` lists.
The full report and the spans are also written to ``.perfbench_out/``.

Per-layer metrics (traced run; medians of span times unless noted):

==========================================  =====================================================
``workload.compile_us``                     ``compile_queries`` as ``repro.serve.server`` resolves it
``serve.self_us``                           request span minus its compile and model spans
``serve.hit_rate``, ``serve.cache_invalidations``  from ``EstimatorServer.stats()``
``serve.publish_us``                        ``EstimatorServer.publish`` self time
``serve.breaker_trips``                     ``CircuitBreaker.trips`` (point-plans)
``core.estimate_us``                        the served model's ``estimate_batch``, per miss
``core.fastpath.route_us``                  ``estimate_boxes`` minus ``weighted_box_masses``
``core.fastpath.microkernel_us_per_query``  ``weighted_box_masses`` time over boxes (sum)
``core.fastpath.culled_share``              ``set_route_metrics`` counters
``core.fastpath.candidates_per_query``      mean ``box_candidates`` ids over kernel count
``core.fastpath.index_builds``, ``_us``     ``KernelSupportIndex`` constructions
``core.streaming.insert_us_per_krow``       ``StreamingADE.insert`` time over rows (sum)
``core.streaming.flush_us``                 ``StreamingADE.flush`` outside reads (mean)
``shard.insert_route_us``                   ``ShardedEstimator.insert`` self time
``shard.estimate_fanout_us``                sharded ``estimate_batch`` minus fast-path spans
``shard.task_retries``                      ``ShardExecutor`` retry counter
``persist.journal.append_us``, ``bytes_per_row``  ``IngestJournal.append_rows``, file growth
``persist.snapshot.serialize_us``, ``verify_us``  as ``repro.persist.store`` resolves them
``persist.store.publish_us``                ``ModelStore.publish``
``persist.store.fsyncs_per_publish``        ``os.fsync`` calls inside ``ModelStore.publish``
``persist.store.load_us``                   ``ModelStore.load_latest`` during recovery
``persist.journal.replay_us``               ``IngestJournal.replay`` plus re-insert, per recovery
==========================================  =====================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("point-plans", "bulk-plans", "ingest-publish")


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment(numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _table(workload: str, title: str, metrics: dict[str, dict]) -> str:
    lines = [f"== {workload}: {title}"]
    for name, metric in metrics.items():
        tail = f" (p{metric['percentile']:g})" if "percentile" in metric else ""
        lines.append(
            f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<7} "
            f"n={metric['samples']}{tail}"
        )
    return "\n".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool, environment: dict) -> dict:
    """One workload: the full report, plus the result line under ``"result"``."""
    from perfbench import metrics, workloads
    from perfbench.tracing import Tracer, instrument

    runner, sizes = {
        "point-plans": (workloads.run_point, workloads.PointSizes()),
        "bulk-plans": (workloads.run_bulk, workloads.BulkSizes()),
        "ingest-publish": (partial(workloads.run_ingest, root=OUT), workloads.IngestSizes()),
    }[name]
    untraced = runner(seed, seconds, sizes=sizes)
    end_to_end = metrics.end_to_end(untraced)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": trace,
        "environment": environment,
        "input_properties": {
            "hit_share": metrics.hit_share(untraced),
            "culled_share": untraced.culled_share,
        },
        "end_to_end": end_to_end,
    }
    runs = [untraced]
    listed_names = metrics.LISTED_END_TO_END
    listed_metrics = end_to_end
    if trace:
        tracer = Tracer()
        with instrument(tracer):
            traced = runner(seed, seconds, tracer, sizes=dataclasses.replace(sizes, setup_repeats=1))
        runs.append(traced)
        traced_end_to_end = metrics.end_to_end(traced)
        layers = metrics.per_layer(tracer, traced)
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(str(spans))
        report.update({
            "per_layer": layers,
            "traced_end_to_end": traced_end_to_end,
            "tracing_overhead": {
                key: traced_end_to_end[key]["value"] - metric["value"]
                for key, metric in end_to_end.items() if key in traced_end_to_end
            },
            "unaccounted_share": tracer.unaccounted_shares(),
            "spans": {"recorded": tracer.span_count, "written": len(tracer.raw), "file": spans.name},
        })
        listed_names = metrics.LISTED_PER_LAYER
        listed_metrics = layers
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    report["errors"] = [error for run in runs for error in run.errors]
    report["result"] = {
        "correct": failed == 0 and all(key in listed_metrics for key in listed_names),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": listed_metrics[key]["value"], "unit": listed_metrics[key]["unit"]}
            for key in listed_names if key in listed_metrics
        },
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(NAMES)}, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = NAMES if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [name for name in names if name not in NAMES]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown}" if unknown else "--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    # One compute thread for numpy's BLAS: with the shard executor's two
    # threads that keeps the process within the machine's two cores.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    # Import the package under test from this checkout only, and keep this
    # directory's module names from shadowing top-level imports.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    import numpy
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    environment = _environment(numpy.__version__)
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), environment)
        result = report["result"]
        tag = "trace" if args.trace else "run"
        (OUT / f"report-{name}-{args.seed}-{tag}.json").write_text(json.dumps(report, indent=1))
        print(_table(name, "end to end" + (" (untraced)" if args.trace else ""), report["end_to_end"]))
        if args.trace:
            print(_table(name, "per layer (traced)", report["per_layer"]))
        for error in report["errors"]:
            print(f"  FAILED {error}")
        print("report " + json.dumps(report))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
