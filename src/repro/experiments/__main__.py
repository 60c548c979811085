"""Command-line entry point for the experiment suite.

Run one experiment (or all of them) from the shell::

    python -m repro.experiments table1
    python -m repro.experiments fig5 --batches 60 --batch_size 500
    python -m repro.experiments all

Unknown ``--name value`` pairs are forwarded to the experiment function as
keyword arguments; values are parsed as int, then float, then left as strings,
and comma-separated values become tuples (e.g. ``--budgets 1024,4096``).

Model persistence: ``--save-models DIR`` publishes every estimator fitted by
the accuracy experiments into a versioned model store under ``DIR``, and
``--from-store DIR`` restores published models instead of refitting (models
missing from the store are fitted fresh).  Models fitted under ``--shards``
are stored under their own names, so a restore only serves models fitted
with the same ``--shards`` and ``--partitioner``.  Both flags must precede
the experiment name::

    python -m repro.experiments --save-models models/ table1
    python -m repro.experiments --from-store models/ table1

Sharded estimation: ``--shards N`` (optionally with ``--partitioner``)
runs every accuracy-experiment estimator as an ``N``-shard partition-wise
front end (experiments that exercise streaming/feedback-specific paths keep
their monolithic estimators)::

    python -m repro.experiments --shards 4 --partitioner range table1

Telemetry: ``--telemetry PATH`` installs a process-default metrics registry
for the run (every model store, shard executor and estimator server built by
the experiments records into it, and the query fast path counts its
culled-vs-dense routing), times each experiment into
``experiments.run_seconds{experiment=...}``, and exports the final snapshot
to ``PATH`` through the exporter matching its suffix (``.json``,
``.jsonl`` or ``.csv``; any other suffix is rejected before anything
runs)::

    python -m repro.experiments --telemetry runs/table1.jsonl table1

``--collect-interval SECONDS`` (with ``--telemetry``) additionally runs a
background :class:`~repro.obs.collector.TelemetryCollector` over the run's
registry, turning the snapshot into delta/rate time series; the series is
exported next to the snapshot as ``<PATH stem>.series<PATH suffix>``.
``--dashboard HTML_PATH`` renders the collected series (or, without a
collector, a single end-of-run sample) as a self-contained HTML dashboard::

    python -m repro.experiments --telemetry runs/t1.csv \
        --collect-interval 0.5 --dashboard runs/t1.html table1
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Sequence

from repro.core.errors import InvalidParameterError
from repro.experiments.runner import use_estimators, use_model_store, use_sharding
from repro.experiments.suite import EXPERIMENTS, run_experiment
from repro.persist.store import ModelStore


def _parse_scalar(text: str) -> object:
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _parse_value(text: str) -> object:
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(",") if part)
    return _parse_scalar(text)


def _parse_overrides(pairs: Sequence[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    key: str | None = None
    for token in pairs:
        if token.startswith("--"):
            if key is not None:
                raise SystemExit(f"missing value for --{key}")
            key = token[2:]
        else:
            if key is None:
                raise SystemExit(f"unexpected argument {token!r}")
            overrides[key] = _parse_value(token)
            key = None
    if key is not None:
        raise SystemExit(f"missing value for --{key}")
    return overrides


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one table/figure of the evaluation (or 'all').",
    )
    parser.add_argument(
        "--save-models",
        metavar="DIR",
        help="publish every fitted estimator into a model store under DIR",
    )
    parser.add_argument(
        "--from-store",
        metavar="DIR",
        help="restore published models from the store under DIR instead of refitting",
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="run every accuracy-experiment estimator as an N-shard sharded "
        "front end (partition-wise fit and estimation)",
    )
    parser.add_argument(
        "--partitioner",
        choices=["hash", "range", "round_robin"],
        default="hash",
        help="row-routing policy used with --shards (default: hash)",
    )
    parser.add_argument(
        "--estimator",
        action="append",
        metavar="NAME",
        default=[],
        help="append a registry estimator (default configuration) to every "
        "accuracy-experiment line-up, e.g. --estimator ensemble; repeatable",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        help="record run telemetry into a metrics registry and export the "
        "snapshot to PATH (exporter chosen by suffix: .json / .jsonl / .csv)",
    )
    parser.add_argument(
        "--collect-interval",
        type=float,
        metavar="SECONDS",
        help="with --telemetry: sample the registry every SECONDS on a "
        "background collector and export the delta/rate series next to the "
        "snapshot (as '<stem>.series<suffix>')",
    )
    parser.add_argument(
        "--dashboard",
        metavar="HTML_PATH",
        help="with --telemetry: render the collected series as a "
        "self-contained HTML dashboard at HTML_PATH",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (table1..table4, fig1..fig8) or 'all'",
    )
    parser.add_argument(
        "overrides",
        nargs=argparse.REMAINDER,
        help="optional --parameter value overrides forwarded to the experiment",
    )
    args = parser.parse_args(argv)
    overrides = _parse_overrides(args.overrides)

    store_dir = args.save_models or args.from_store
    if args.save_models and args.from_store and args.save_models != args.from_store:
        raise SystemExit("--save-models and --from-store must name the same directory")
    context = (
        use_model_store(
            ModelStore(store_dir),
            save=bool(args.save_models),
            load=bool(args.from_store),
        )
        if store_dir
        else nullcontext()
    )

    sharding = (
        use_sharding(args.shards, args.partitioner) if args.shards else nullcontext()
    )

    try:
        extra = use_estimators(args.estimator)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None

    if (args.collect_interval or args.dashboard) and not args.telemetry:
        raise SystemExit("--collect-interval and --dashboard require --telemetry")
    if args.collect_interval is not None and args.collect_interval <= 0:
        raise SystemExit("--collect-interval must be positive")

    if args.telemetry:
        from repro.core.fastpath import set_route_metrics
        from repro.obs.collector import TelemetryCollector
        from repro.obs.export import exporter_for_path
        from repro.obs.metrics import MetricsRegistry, use_default_metrics

        try:
            exporter = exporter_for_path(args.telemetry)
        except InvalidParameterError as error:
            raise SystemExit(str(error)) from None

        registry = MetricsRegistry()
        telemetry = use_default_metrics(registry)
        collector = TelemetryCollector(
            registry, interval=args.collect_interval or 1.0
        )
    else:
        registry = None
        collector = None
        telemetry = nullcontext()

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with context, sharding, extra, telemetry:
        if registry is not None:
            set_route_metrics(registry)
        if collector is not None and args.collect_interval:
            collector.start()
        elif collector is not None and args.dashboard:
            collector.tick()  # baseline: the end-of-run tick diffs against this
        try:
            for name in names:
                timer = (
                    registry.timer("experiments.run_seconds", experiment=name)
                    if registry is not None
                    else nullcontext()
                )
                with timer:
                    result = run_experiment(
                        name, **(overrides if args.experiment != "all" else {})
                    )
                print(result.render())
                print()
        finally:
            if collector is not None and args.collect_interval:
                collector.stop()
            elif collector is not None and args.dashboard:
                collector.tick()  # one end-of-run sample for the dashboard
            if registry is not None:
                set_route_metrics(None)
    if registry is not None:
        import pathlib

        path = exporter.export(registry.snapshot(), args.telemetry)
        print(f"telemetry snapshot written to {path}")
        if args.collect_interval:
            target = pathlib.Path(args.telemetry)
            series_path = target.with_name(f"{target.stem}.series{target.suffix}")
            exporter.export(collector.series_payload(), series_path)
            print(f"telemetry series written to {series_path}")
        if args.dashboard:
            from repro.obs.dashboard import write_dashboard

            html = write_dashboard(collector, args.dashboard)
            print(f"telemetry dashboard written to {html}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the shell
    sys.exit(main())
