"""Catalog of tables and their statistics synopses.

The :class:`Catalog` plays the role the system catalog plays in a DBMS: it
owns the tables, remembers which synopsis (estimator) is attached to which
table, and serves selectivity estimates to the executor and the optimizer.
Attaching an estimator fits it immediately; estimates for tables without a
synopsis fall back to the exact answer (a full scan), which is what a test
harness wants when the synopsis under study only covers some tables.

The catalog also fronts the persistence layer: :meth:`Catalog.save`
publishes every attached synopsis into a
:class:`~repro.persist.store.ModelStore` (one named, versioned model per
table) and :meth:`Catalog.restore` re-attaches the latest published versions
without refitting — the statistics of a whole database survive a restart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import CatalogError
from repro.core.estimator import SelectivityEstimator, StreamingEstimator
from repro.engine.table import Table, TableSchema
from repro.workload.queries import (
    CompiledQueries,
    LoweredQueries,
    RangeQuery,
    TypedQuery,
    compile_queries,
)

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.persist.store import ModelStore

__all__ = ["Catalog"]


class Catalog:
    """Registry of tables and per-table statistics synopses."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._estimators: dict[str, SelectivityEstimator] = {}

    # -- tables -----------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register a table (replacing any previous table of the same name)."""
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        """Names of all registered tables."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    # -- statistics -----------------------------------------------------------
    def attach_estimator(
        self,
        table_name: str,
        estimator: SelectivityEstimator,
        columns: Sequence[str] | None = None,
    ) -> SelectivityEstimator:
        """Fit ``estimator`` on the named table and attach it as its synopsis."""
        table = self.table(table_name)
        estimator.fit(table, columns)
        self._estimators[table_name] = estimator
        return estimator

    def attach_fitted(
        self, table_name: str, estimator: SelectivityEstimator
    ) -> SelectivityEstimator:
        """Attach an already-fitted synopsis (e.g. restored from a store).

        The estimator's columns must exist on the table; it is attached as-is,
        without refitting.
        """
        table = self.table(table_name)
        if not estimator.is_fitted:
            raise CatalogError(
                f"cannot attach unfitted {type(estimator).__name__} to {table_name!r}"
            )
        missing = [c for c in estimator.columns if c not in table]
        if missing:
            raise CatalogError(
                f"estimator covers columns {missing} that table {table_name!r} lacks"
            )
        self._estimators[table_name] = estimator
        return estimator

    def estimator(self, table_name: str) -> SelectivityEstimator | None:
        """The synopsis attached to ``table_name``, if any."""
        self.table(table_name)
        return self._estimators.get(table_name)

    def detach_estimator(self, table_name: str) -> None:
        """Remove the synopsis of a table (estimates fall back to exact scans)."""
        self._estimators.pop(table_name, None)

    # -- estimation -----------------------------------------------------------
    def estimate_selectivity(
        self, table_name: str, query: "RangeQuery | TypedQuery"
    ) -> float:
        """Selectivity estimate from the attached synopsis (exact if none)."""
        table = self.table(table_name)
        estimator = self._estimators.get(table_name)
        if estimator is None:
            return table.true_selectivity(query)
        if isinstance(query, TypedQuery):
            return float(self.estimate_batch(table_name, [query])[0])
        return estimator.estimate(query)

    def estimate_batch(
        self,
        table_name: str,
        queries: "Sequence[RangeQuery | TypedQuery] | CompiledQueries | LoweredQueries",
    ) -> np.ndarray:
        """Vector of selectivity estimates for a workload (exact if no synopsis).

        Typed predicates are lowered against the table's schema onto disjoint
        numeric boxes here — estimators only ever see ordinary compiled
        plans, so no synopsis implementation knows about dictionaries.
        """
        table = self.table(table_name)
        estimator = self._estimators.get(table_name)
        if estimator is None:
            return table.true_selectivities(queries)
        lowered: LoweredQueries | None = None
        if isinstance(queries, LoweredQueries):
            lowered = queries
        elif not isinstance(queries, CompiledQueries):
            query_list = list(queries)
            if any(isinstance(q, TypedQuery) for q in query_list):
                lowered = compile_queries(
                    query_list, estimator.columns, schema=table._effective_schema()
                )
            else:
                queries = query_list
        if lowered is not None:
            per_box = estimator.estimate_batch(lowered.plan)
            return np.clip(lowered.reduce(per_box), 0.0, 1.0)
        return estimator.estimate_batch(queries)

    def estimate_cardinality(self, table_name: str, query: RangeQuery) -> float:
        """Cardinality estimate: selectivity times the table's true row count."""
        table = self.table(table_name)
        return self.estimate_selectivity(table_name, query) * table.row_count

    def estimate_cardinality_batch(
        self, table_name: str, queries: Sequence[RangeQuery] | CompiledQueries
    ) -> np.ndarray:
        """Vector of cardinality estimates for a workload."""
        table = self.table(table_name)
        return self.estimate_batch(table_name, queries) * table.row_count

    def true_selectivity(self, table_name: str, query: RangeQuery) -> float:
        """Exact selectivity (full scan) for evaluation purposes."""
        return self.table(table_name).true_selectivity(query)

    def true_selectivities(
        self, table_name: str, queries: Sequence[RangeQuery] | CompiledQueries
    ) -> np.ndarray:
        """Exact selectivities (vectorized full scans) for evaluation purposes."""
        return self.table(table_name).true_selectivities(queries)

    def refresh(self, table_name: str, shard: int | None = None) -> None:
        """Refit the attached synopsis after the table changed.

        With ``shard=None`` the whole synopsis is rebuilt.  For a sharded
        synopsis, passing a shard id refits only that partition's synopsis
        (the frozen routing selects its rows) — the cheap path when only one
        partition's data changed.
        """
        estimator = self._estimators.get(table_name)
        if estimator is None:
            if shard is not None:
                raise CatalogError(
                    f"table {table_name!r} has no synopsis to refresh a shard of"
                )
            return
        if shard is not None:
            from repro.shard.sharded import ShardedEstimator  # lazy: avoids a cycle

            if not isinstance(estimator, ShardedEstimator):
                raise CatalogError(
                    f"synopsis of {table_name!r} is not sharded; refresh() "
                    "without a shard id rebuilds it"
                )
            estimator.refit_shard(shard, self.table(table_name))
            return
        if isinstance(estimator, StreamingEstimator):
            # Apply any buffered inserts before refitting.  The streaming
            # contract does not require fit() to rebuild from scratch
            # (incremental implementations are legal), so half-applied
            # inserts must never be left in the buffer across a refresh;
            # and if fit() raises, the estimator is left in a fully
            # flushed state rather than with silently pending rows.
            estimator.flush()
        estimator.fit(self.table(table_name), list(estimator.columns) or None)

    # -- persistence -----------------------------------------------------------
    def save(self, store: "ModelStore", prefix: str = "") -> dict[str, int]:
        """Publish every attached synopsis into ``store``.

        Each synopsis becomes one named model (``prefix + table name``); the
        snapshot path flushes streaming estimators, so buffered stream rows
        are part of the persisted model.  Returns ``{table name: version}``.
        """
        published: dict[str, int] = {}
        for table_name in sorted(self._estimators):
            table = self._tables.get(table_name)
            schema = table.schema if table is not None else None
            version = store.publish(
                prefix + table_name,
                self._estimators[table_name],
                schema=schema.to_json() if schema is not None else None,
            )
            published[table_name] = version.version
        return published

    def restore(
        self,
        store: "ModelStore",
        tables: Sequence[str] | None = None,
        prefix: str = "",
        version: int | None = None,
    ) -> list[str]:
        """Re-attach synopses published by :meth:`save`, without refitting.

        Restores the latest (or a pinned) published version for each named
        table (default: every registered table with a model in the store).
        Returns the table names that were restored.
        """
        names = list(tables) if tables is not None else self.table_names()
        available = set(store.model_names())
        restored: list[str] = []
        for table_name in names:
            if prefix + table_name not in available:
                if tables is not None:
                    raise CatalogError(
                        f"store has no model {prefix + table_name!r} to restore"
                    )
                continue
            header = store.describe(prefix + table_name, version)
            payload = header.get("schema")
            if payload is not None:
                saved_schema = TableSchema.from_json(payload)
                table_schema = self.table(table_name).schema
                if table_schema != saved_schema:
                    raise CatalogError(
                        f"snapshot of {table_name!r} was built against a "
                        "different schema (dictionary drift); refit instead "
                        "of restoring"
                    )
            estimator = store.load(prefix + table_name, version)
            self.attach_fitted(table_name, estimator)
            restored.append(table_name)
        return restored

    def describe(self) -> Mapping[str, dict]:
        """Structured description of every table and its synopsis."""
        result = {}
        for name, table in sorted(self._tables.items()):
            estimator = self._estimators.get(name)
            result[name] = {
                "rows": table.row_count,
                "columns": list(table.column_names),
                "schema": table.schema.to_json() if table.schema is not None else None,
                "estimator": estimator.describe() if estimator else None,
            }
        return result
