"""Shared experiment machinery.

Every experiment in :mod:`repro.experiments.suite` is a composition of the
same few steps: build a dataset, build a workload, fit a set of estimators,
evaluate them against exact answers, and aggregate errors.  This module holds
those steps so each experiment reads as configuration plus a loop.

Results are returned as :class:`TableResult` / :class:`SeriesResult`, plain
data structures that the benchmark harness renders with
:func:`repro.metrics.report.render_table` / ``render_series`` and that tests
can assert against directly.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import PersistenceError
from repro.core.estimator import SelectivityEstimator
from repro.core.slot import Slot
from repro.engine.executor import EvaluationResult, evaluate_estimator
from repro.engine.table import Table
from repro.metrics.report import render_series, render_table
from repro.persist.store import ModelStore
from repro.workload.queries import RangeQuery

__all__ = [
    "EstimatorSpec",
    "TableResult",
    "SeriesResult",
    "extra_estimator_specs",
    "fit_timed",
    "fit_or_restore",
    "run_accuracy_comparison",
    "use_estimators",
    "use_model_store",
    "use_sharding",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator configuration used by an experiment.

    ``factory`` builds a fresh, unfitted estimator; experiments never reuse a
    fitted estimator across datasets.
    """

    label: str
    factory: Callable[[], SelectivityEstimator]

    def build(self) -> SelectivityEstimator:
        """Instantiate a fresh estimator."""
        return self.factory()


@dataclass
class TableResult:
    """A table of the evaluation: headers plus one row per configuration."""

    experiment: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def render(self, precision: int = 4) -> str:
        """Plain-text rendering of the table."""
        text = render_table(self.headers, self.rows, title=self.experiment, precision=precision)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def column(self, name: str) -> list[object]:
        """Values of one column by header name."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_by(self, key_column: str, key_value: object) -> list[object] | None:
        """First row whose ``key_column`` equals ``key_value``."""
        index = self.headers.index(key_column)
        for row in self.rows:
            if row[index] == key_value:
                return list(row)
        return None


@dataclass
class SeriesResult:
    """A figure of the evaluation: x values plus one named series per line."""

    experiment: str
    x_label: str
    x_values: list[object]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""

    def render(self, precision: int = 4) -> str:
        """Plain-text rendering of the figure data."""
        text = render_series(
            self.x_label, self.x_values, self.series, title=self.experiment, precision=precision
        )
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def add_point(self, series_name: str, value: float) -> None:
        """Append one y value to a named series (created on first use)."""
        self.series.setdefault(series_name, []).append(float(value))


# ---------------------------------------------------------------------------
# Model-store integration (the CLI's --save-models / --from-store flags)
# ---------------------------------------------------------------------------

#: Active (store, save, load) triple set by :func:`use_model_store`.
_ACTIVE_STORE: Slot[tuple[ModelStore | None, bool, bool]] = Slot((None, False, False))

#: Active sharding overlay set by :func:`use_sharding` (None = monolithic).
_ACTIVE_SHARDING: Slot[tuple[int, str] | None] = Slot(None)

#: Extra registry estimators appended to the standard line-up (CLI --estimator).
_ACTIVE_EXTRA_ESTIMATORS: Slot[tuple[str, ...]] = Slot(())


@contextmanager
def use_model_store(
    store: ModelStore, *, save: bool = False, load: bool = False
) -> Iterator[ModelStore]:
    """Route experiment estimators through a model store for this context.

    With ``save=True`` every estimator fitted by
    :func:`run_accuracy_comparison` is published to ``store`` after fitting;
    with ``load=True`` a published model of that name is restored *instead
    of* fitting (falling back to a fresh fit when the store has no such
    model).  :func:`fit_or_restore` documents the model names.  This is what
    the experiment CLI's ``--save-models`` / ``--from-store`` flags activate.
    """
    with _ACTIVE_STORE.use((store, bool(save), bool(load))):
        yield store


def use_sharding(shards: int, partitioner: str = "hash") -> ContextManager[None]:
    """Run every experiment estimator as a sharded front end in this context.

    Inside the context, :func:`fit_or_restore` wraps each spec's estimator in
    a :class:`~repro.shard.sharded.ShardedEstimator` with the given shard
    count and routing policy before fitting — this is what the experiment
    CLI's ``--shards N --partitioner {hash,range}`` flags activate, so every
    table/figure of the evaluation can be reproduced against the sharded
    engine without touching the experiment code.
    """
    return _ACTIVE_SHARDING.use((int(shards), partitioner))


def use_estimators(names: Sequence[str]) -> ContextManager[None]:
    """Append registry estimators to every accuracy-experiment line-up.

    Inside the context, :func:`extra_estimator_specs` yields one
    default-configuration spec per name, and the experiment suite appends
    them to its budget-matched line-up — this is what the experiment CLI's
    ``--estimator NAME`` flag activates (e.g. ``--estimator ensemble`` to
    score the expert ensemble against every table/figure).  The default
    line-up is untouched outside the context, so pinned row counts in the
    experiment tests stay stable.  An unknown name raises :class:`KeyError`
    here, before the context is entered.
    """
    from repro.core.estimator import available_estimators

    unknown = [n for n in names if n not in available_estimators()]
    if unknown:
        raise KeyError(
            f"unknown estimator(s) {unknown}; available: {available_estimators()}"
        )
    return _ACTIVE_EXTRA_ESTIMATORS.use(tuple(names))


def extra_estimator_specs() -> list[EstimatorSpec]:
    """Specs of the estimators added by :func:`use_estimators` (default none)."""
    from repro.core.estimator import create_estimator

    return [
        EstimatorSpec(name, lambda n=name: create_estimator(n))
        for name in _ACTIVE_EXTRA_ESTIMATORS.value
    ]


def _apply_sharding(estimator: SelectivityEstimator) -> SelectivityEstimator:
    """Wrap an estimator per the active sharding overlay (identity outside)."""
    overlay = _ACTIVE_SHARDING.value
    if overlay is None:
        return estimator
    from repro.shard.sharded import ShardedEstimator  # lazy: avoids a cycle

    if isinstance(estimator, ShardedEstimator):
        return estimator
    shards, partitioner = overlay
    return ShardedEstimator(estimator, shards=shards, partitioner=partitioner)


def _store_model_name(table_name: str, label: str, scope: str) -> str:
    overlay = _ACTIVE_SHARDING.value
    sharding = f"shards{overlay[0]}-{overlay[1]}" if overlay is not None else ""
    raw = ".".join(part for part in (table_name, scope, label, sharding) if part)
    return re.sub(r"[^A-Za-z0-9._-]", "_", raw).lstrip("._-") or "model"


def fit_or_restore(
    table: Table, spec: EstimatorSpec, scope: str = ""
) -> SelectivityEstimator:
    """Fit a spec's estimator, or restore it from the active model store.

    Outside a :func:`use_model_store` context this is exactly
    ``spec.build().fit(table)``.  Inside one, the estimator is published
    under ``<table>.<scope>.<label>`` after fitting (``save=True``) or
    restored from the latest published version instead of fitting
    (``load=True``; estimators whose columns do not match the table, or that
    were never published, are fitted fresh).  ``scope`` disambiguates
    experiment loops that reuse one table name with different parameters
    (budgets, dimensionalities, skew levels).  Under a :func:`use_sharding`
    overlay the name gains a ``.shards<N>-<partitioner>`` suffix, so sharded
    and monolithic models of one spec never restore in place of each other.
    """
    store, save, load = _ACTIVE_STORE.value
    name = _store_model_name(table.name, spec.label, scope) if store is not None else ""
    if store is not None and load:
        try:
            restored = store.load(name)
        except PersistenceError:
            pass  # not published yet: fall through to a fresh fit
        else:
            if all(column in table for column in restored.columns):
                return restored
    estimator = _apply_sharding(spec.build())
    estimator.fit(table)
    if store is not None and save:
        store.publish(name, estimator)
    return estimator


def fit_timed(estimator: SelectivityEstimator, table: Table) -> float:
    """Fit an estimator and return the wall-clock build time in seconds."""
    start = time.perf_counter()
    estimator.fit(table)
    return time.perf_counter() - start


def run_accuracy_comparison(
    table: Table,
    specs: Sequence[EstimatorSpec],
    queries: Sequence[RangeQuery],
    floor: float = 1e-4,
) -> Mapping[str, EvaluationResult]:
    """Fit every spec on ``table`` and evaluate it on ``queries``.

    Returns a mapping from spec label to its :class:`EvaluationResult`; the
    caller extracts whichever error statistics the experiment reports.

    Inside a :func:`use_model_store` context the fitted estimators are
    published to (or restored from) the active model store.
    """
    results: dict[str, EvaluationResult] = {}
    for spec in specs:
        estimator = fit_or_restore(table, spec)
        results[spec.label] = evaluate_estimator(table, estimator, queries, name=spec.label)
    return results


def true_selectivities(table: Table, queries: Sequence[RangeQuery]) -> np.ndarray:
    """Exact selectivity of every query (vectorized convenience wrapper)."""
    return table.true_selectivities(queries)
