"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the evaluation by
calling the corresponding function in :mod:`repro.experiments.suite` through
pytest-benchmark.  Each experiment executes once per run (``rounds=1``) — the
interesting output is the experiment's table/series, not a timing
distribution of the whole experiment — and the rendered result is printed and
written to ``benchmarks/results/`` so that
``pytest benchmarks/ --benchmark-only`` leaves a complete, human-readable
record of every reproduced table and figure.

Scale note: the benchmark configurations are reduced relative to the
full-scale evaluation (see ARCHITECTURE.md for the layers each experiment
exercises) so the whole harness finishes in a few minutes on a laptop; pass
larger parameters to the suite functions directly to reproduce a full-scale
run.  Recorded runs are kept under ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib
from typing import Callable

import pytest

from repro.experiments.runner import SeriesResult, TableResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report(benchmark, request) -> Callable[..., TableResult | SeriesResult]:
    """Run an experiment once under pytest-benchmark, print and persist its output."""

    def _run(experiment: Callable[..., TableResult | SeriesResult], **kwargs):
        result = benchmark.pedantic(lambda: experiment(**kwargs), rounds=1, iterations=1)
        rendered = result.render()
        print()
        print(rendered)
        RESULTS_DIR.mkdir(exist_ok=True)
        output_path = RESULTS_DIR / f"{request.node.name}.txt"
        output_path.write_text(rendered + "\n")
        return result

    return _run
