"""Estimator interface, registry and space-budget accounting.

Every synopsis in this library — the adaptive KDE models as well as the
baseline histograms, samples and wavelet synopses — implements the
:class:`SelectivityEstimator` contract.  The contract is **batch first**: a
workload compiled into a :class:`~repro.workload.queries.CompiledQueries`
plan (a ``(lows, highs)`` bound-matrix pair aligned with the fitted columns)
is the primary unit of estimation, so throughput scales with numpy rather
than with the Python interpreter:

* ``fit(table, columns)`` builds the synopsis from a table,
* ``estimate_batch(queries)`` — the public estimation entry point — accepts a
  sequence of :class:`~repro.workload.queries.RangeQuery` objects *or* an
  already-compiled plan and returns one selectivity in ``[0, 1]`` per query
  as a numpy vector,
* ``estimate(query)`` is sugar over a one-row batch,
* ``estimate_cardinality(query)`` / ``estimate_cardinality_batch(queries)``
  scale selectivities by the (tracked) row count,
* ``memory_bytes()`` reports the synopsis footprint so comparisons between
  estimators can be made at equal space budget,
* streaming estimators additionally implement ``insert(rows)``,
* self-tuning estimators additionally implement ``feedback(query, truth)``.

Subclasses implement the private hook ``_estimate_batch(lows, highs)``, which
receives validated ``(n, d)`` bound matrices aligned with the fitted columns
and returns ``n`` raw estimates (clipping to ``[0, 1]`` is applied by the
base class).  Every built-in synopsis implements this hook natively
vectorised.  Third-party estimators that only override the scalar
``estimate(query)`` keep working: the base hook falls back to a per-query
loop.

A simple name-based registry (:func:`register_estimator`,
:func:`create_estimator`, :func:`estimator_from_config`) lets the experiment
harness instantiate estimators from configuration dictionaries.

Persistence contract
--------------------

Every estimator is snapshotable:

* ``config()`` returns ``{"name": <registry name>, **constructor_params}``
  such that ``estimator_from_config(est.config())`` builds an equivalent
  *unfitted* estimator.  ``describe()`` is a superset of ``config()`` (it adds
  runtime metadata under the reserved keys in :data:`DESCRIBE_METADATA_KEYS`,
  which ``estimator_from_config`` ignores), so a describe dictionary also
  round-trips through ``estimator_from_config``.
* ``state_dict()`` returns the complete fitted state as numpy arrays plus a
  JSON-serialisable header; ``load_state()`` restores it on a compatible
  instance.  Streaming estimators are flushed first so rows sitting in a
  pending ingestion buffer are never dropped from a snapshot.
* ``save(path)`` / ``SelectivityEstimator.load(path)`` persist a snapshot to
  a single CRC-32-framed file (see :mod:`repro.persist` for the on-disk
  format and its versioning policy); the round-trip reproduces
  ``estimate_batch`` output bitwise.

Subclasses implement the paired hooks ``_state()`` (returning
``(arrays, meta)``) and ``_restore_state(arrays, meta)``; the base class
handles the envelope (registry name, config, columns, row count).

Mergeable-synopsis protocol
---------------------------

The sharded estimation engine (:mod:`repro.shard`) partitions a table and
fits one synopsis per partition.  Every estimator participates in sharding
through one of two paths:

* **True state-merge** — estimators with :attr:`supports_merge` set override
  :meth:`merge_state` to fold the fitted states of per-shard synopses into a
  single combined synopsis.  Synopses whose layout is decided by global data
  properties (bucket edges, grid boundaries) additionally implement
  :meth:`shard_frame`, which the shard coordinator evaluates once on the
  *full* table; every per-shard :meth:`fit_shard` then builds against that
  shared frame so the shard states are aligned and the merge is exact.
  The histogram family (``equiwidth``, ``equidepth``, ``grid``) sums
  integer bucket counts over aligned frames, so its merged synopsis
  reproduces a monolithic fit *bitwise*; sample-based merges (reservoir
  subsampling) are statistically equivalent but not bit-identical.
* **Weighted estimate combination** — every estimator inherits
  :meth:`combine_estimates`, a row-count-weighted average of per-shard
  estimate vectors.  This is the universal fallback: a sharded front end can
  serve any registered estimator by running one vectorized ``estimate_batch``
  per shard and reducing with this method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table
from repro.workload.queries import CompiledQueries, RangeQuery, compile_queries

__all__ = [
    "SelectivityEstimator",
    "StreamingEstimator",
    "FeedbackEstimator",
    "register_estimator",
    "create_estimator",
    "available_estimators",
    "estimator_from_config",
    "FLOAT_BYTES",
    "DESCRIBE_METADATA_KEYS",
]

#: Size in bytes charged per stored floating-point value in space budgets.
FLOAT_BYTES = 8

#: Runtime-metadata keys ``describe()`` adds on top of ``config()``.  They are
#: never constructor parameters, and :func:`estimator_from_config` ignores
#: them so a describe dictionary round-trips into an equivalent estimator.
DESCRIBE_METADATA_KEYS = frozenset(
    {
        "class",
        "fitted",
        "columns",
        "rows_modelled",
        "memory_bytes",
        # degraded-mode surface of the sharded front end (see repro.shard)
        "degraded",
        "lost_shards",
    }
)


def _workload_is_empty(queries: object) -> bool:
    """Whether a workload is a sized, empty container (plan or sequence).

    Unsized iterables return ``False`` and are materialised by compilation —
    only provably empty workloads take the pre-compilation short-circuit.
    """
    try:
        return len(queries) == 0  # type: ignore[arg-type]
    except TypeError:
        return False


class SelectivityEstimator(ABC):
    """Abstract base class of every synopsis.

    Subclasses must call :meth:`_mark_fitted` at the end of ``fit`` and use
    :meth:`_require_fitted` in methods that need a built synopsis.
    """

    #: registry name; subclasses override.
    name: str = "estimator"

    #: Whether :meth:`merge_state` can fold per-shard synopses into one.
    supports_merge: bool = False

    #: Whether :meth:`merge_state` is a deterministic recombination of
    #: sufficient statistics (exact up to float rounding).  Sample-based
    #: merges resample and are only statistically equivalent.
    merge_lossless: bool = False

    def __init__(self) -> None:
        self._fitted = False
        self._columns: tuple[str, ...] = ()
        self._row_count = 0

    # -- lifecycle ---------------------------------------------------------
    @abstractmethod
    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "SelectivityEstimator":
        """Build the synopsis from ``table`` over ``columns`` (default: all)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the synopsis in bytes."""

    # -- estimation ----------------------------------------------------------
    def estimate(self, query: RangeQuery) -> float:
        """Estimated fraction of rows satisfying ``query``, in ``[0, 1]``.

        Sugar over a one-row :meth:`estimate_batch`.
        """
        return float(self.estimate_batch((query,))[0])

    def estimate_batch(
        self, queries: Sequence[RangeQuery] | CompiledQueries
    ) -> np.ndarray:
        """Vector of estimates in ``[0, 1]`` for a whole workload.

        ``queries`` is either a sequence of
        :class:`~repro.workload.queries.RangeQuery` objects (compiled against
        the fitted columns on the fly) or a pre-built
        :class:`~repro.workload.queries.CompiledQueries` plan, which skips all
        per-query Python work.  Queries constraining attributes the synopsis
        does not cover raise
        :class:`~repro.core.errors.DimensionMismatchError`.  An empty
        workload short-circuits to an empty float64 vector before any plan is
        compiled — the model is never touched.
        """
        self._require_fitted()
        if _workload_is_empty(queries):
            if isinstance(queries, CompiledQueries):
                # Keep the column-compatibility check: a zero-row plan built
                # for a different synopsis is still a caller bug worth raising
                # on, and validating an empty plan costs nothing.
                compile_queries(queries, self._columns)
            return np.zeros(0)
        compiled = compile_queries(queries, self._columns)
        if len(compiled) == 0:
            return np.zeros(0)
        estimates = np.asarray(
            self._estimate_batch(compiled.lows, compiled.highs), dtype=float
        )
        return self._clip_fractions(estimates)

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Raw estimates for validated ``(n, d)`` bound matrices.

        Built-in synopses override this with a natively vectorised
        implementation; the base version is a per-query loop so estimators
        that only implement the scalar :meth:`estimate` keep working.
        """
        if type(self).estimate is SelectivityEstimator.estimate:
            raise NotImplementedError(
                f"{type(self).__name__} must implement _estimate_batch() "
                "(or the scalar estimate())"
            )
        plan = CompiledQueries(self._columns, lows, highs)
        return np.array([self.estimate(q) for q in plan.to_queries()], dtype=float)

    # -- shared helpers ------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether ``fit`` has completed."""
        return self._fitted

    @property
    def columns(self) -> tuple[str, ...]:
        """Attributes covered by the synopsis (set during ``fit``)."""
        return self._columns

    @property
    def row_count(self) -> int:
        """Number of rows the synopsis currently models."""
        return self._row_count

    def estimate_cardinality(self, query: RangeQuery) -> float:
        """Estimated number of qualifying rows (selectivity × row count)."""
        return self.estimate(query) * self._row_count

    def estimate_cardinality_batch(
        self, queries: Sequence[RangeQuery] | CompiledQueries
    ) -> np.ndarray:
        """Vector of cardinality estimates (selectivity × row count)."""
        return self.estimate_batch(queries) * self._row_count

    def _mark_fitted(self, columns: Sequence[str], row_count: int) -> None:
        self._columns = tuple(columns)
        self._row_count = int(row_count)
        self._fitted = True

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def _resolve_columns(self, table: Table, columns: Sequence[str] | None) -> list[str]:
        resolved = list(columns) if columns is not None else list(table.column_names)
        if not resolved:
            raise InvalidParameterError("at least one column is required")
        for column in resolved:
            if column not in table:
                raise DimensionMismatchError(
                    f"table {table.name!r} has no column {column!r}"
                )
        return resolved

    def _query_bounds(self, query: RangeQuery) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of ``query`` aligned with the fitted columns.

        Raises if the query constrains an attribute the synopsis does not
        cover — that estimate would silently ignore a predicate otherwise.
        """
        self._require_fitted()
        unknown = set(query.attributes) - set(self._columns)
        if unknown:
            raise DimensionMismatchError(
                f"query constrains {sorted(unknown)} which are not covered by this synopsis "
                f"(covered: {list(self._columns)})"
            )
        return query.bounds(self._columns)

    @staticmethod
    def _clip_fraction(value: float) -> float:
        """Clip an estimate into the legal selectivity range ``[0, 1]``."""
        if np.isnan(value):
            return 0.0
        return float(min(max(value, 0.0), 1.0))

    @staticmethod
    def _clip_fractions(values: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`_clip_fraction` (NaN collapses to 0)."""
        values = np.fmax(values, 0.0)
        return np.minimum(values, 1.0, out=values)

    # -- mergeable-synopsis protocol (sharded estimation) ----------------------
    def shard_frame(
        self, table: Table, columns: Sequence[str]
    ) -> dict[str, np.ndarray]:
        """Global fit frame evaluated once on the *full* table by a sharder.

        Estimators whose synopsis layout depends on global data properties
        (bucket edges from min/max or quantiles, grid boundaries) return those
        properties here; every per-shard :meth:`fit_shard` then builds against
        the same frame, which is what makes :meth:`merge_state` exact.  The
        default frame is empty — correct for estimators without global layout
        decisions (samples) and for the weighted-combine fallback, which
        never calls it.
        """
        return {}

    def fit_shard(
        self,
        table: Table,
        columns: Sequence[str] | None = None,
        frame: Mapping[str, np.ndarray] | None = None,
    ) -> "SelectivityEstimator":
        """Fit on one shard's sub-table, honouring a coordinator ``frame``.

        The default ignores the frame and delegates to :meth:`fit`; estimators
        with :attr:`supports_merge` override it (or :meth:`fit`) so the frame
        pins their layout.
        """
        return self.fit(table, columns)

    def merge_state(
        self, shards: Sequence["SelectivityEstimator"]
    ) -> "SelectivityEstimator":
        """Fold the fitted states of per-shard synopses into this instance.

        ``self`` is a configuration-compatible (typically fresh) instance that
        becomes the combined synopsis; ``shards`` are estimators of the same
        registry name fitted on disjoint partitions (against a common
        :meth:`shard_frame` where the estimator defines one).  Only available
        when :attr:`supports_merge` is set.
        """
        raise InvalidParameterError(
            f"{type(self).__name__} does not support state-merge; combine "
            "per-shard estimates with combine_estimates() instead"
        )

    @classmethod
    def combine_estimates(
        cls, estimates: np.ndarray, row_counts: np.ndarray
    ) -> np.ndarray:
        """Row-count-weighted reduction of per-shard estimate vectors.

        ``estimates`` is ``(shards, n)`` — one ``estimate_batch`` result per
        shard — and ``row_counts`` the rows each shard models.  The default is
        the weighted average, which is the exact global selectivity when each
        per-shard estimate were exact (``sum_s n_s * p_s / sum_s n_s``).
        Empty shards carry zero weight; an entirely empty table estimates 0.
        """
        estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
        weights = np.asarray(row_counts, dtype=float)
        if estimates.shape[0] != weights.shape[0]:
            raise InvalidParameterError(
                f"{estimates.shape[0]} shard estimate vectors for "
                f"{weights.shape[0]} shard row counts"
            )
        total = weights.sum()
        if total <= 0:
            return np.zeros(estimates.shape[1])
        return (weights[:, None] * estimates).sum(axis=0) / total

    def _require_merge_peers(
        self, shards: Sequence["SelectivityEstimator"]
    ) -> list["SelectivityEstimator"]:
        """Validate a merge input: same registry name, every shard fitted."""
        if not shards:
            raise InvalidParameterError("merge_state needs at least one shard")
        peers = list(shards)
        for shard in peers:
            if shard.name != self.name:
                raise InvalidParameterError(
                    f"cannot merge {shard.name!r} state into {self.name!r}"
                )
            if not shard.is_fitted:
                raise NotFittedError("every merged shard must be fitted")
            if shard.columns != peers[0].columns:
                raise DimensionMismatchError(
                    "merged shards must cover the same columns"
                )
        return peers

    # -- configuration & persistence -----------------------------------------
    def _config_params(self) -> dict[str, Any]:
        """Constructor parameters (JSON-serialisable), overridden per subclass."""
        return {}

    def config(self) -> dict[str, Any]:
        """Reconstruction recipe: ``{"name": ..., **constructor_params}``.

        ``estimator_from_config(est.config())`` builds an equivalent unfitted
        estimator.
        """
        return {"name": self.name, **self._config_params()}

    def describe(self) -> dict[str, Any]:
        """Structured description used in experiment reports.

        A superset of :meth:`config`: the extra runtime-metadata keys are the
        reserved :data:`DESCRIBE_METADATA_KEYS`, which
        :func:`estimator_from_config` strips, so the description itself
        round-trips into an equivalent unfitted estimator.
        """
        return {
            **self.config(),
            "class": type(self).__name__,
            "fitted": self._fitted,
            "columns": list(self._columns),
            "rows_modelled": self._row_count,
            "memory_bytes": self.memory_bytes() if self._fitted else 0,
        }

    def _state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Fitted state as ``(arrays, meta)``.

        ``arrays`` maps snapshot keys to numpy arrays (persisted losslessly);
        ``meta`` holds JSON-serialisable scalars.  The base implementation is
        empty, which is correct only for estimators whose entire state is
        ``config() + columns + row_count`` — everything else overrides.
        """
        return {}, {}

    def _restore_state(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        """Inverse of :meth:`_state`; called after the envelope is applied."""

    def state_dict(self) -> dict[str, Any]:
        """Complete snapshot of the estimator (config + fitted state).

        Streaming estimators are flushed first so rows sitting in a pending
        ingestion buffer are folded into the model rather than silently
        dropped from the snapshot.  Everything except the ``"arrays"`` entry
        is JSON-serialisable.
        """
        if isinstance(self, StreamingEstimator):
            self.flush()
        arrays, meta = self._state()
        return {
            "estimator": self.name,
            "config": self._config_params(),
            "fitted": bool(self._fitted),
            "columns": list(self._columns),
            "row_count": int(self._row_count),
            "meta": meta,
            "arrays": {key: np.asarray(value) for key, value in arrays.items()},
        }

    def load_state(self, state: Mapping[str, Any]) -> "SelectivityEstimator":
        """Restore a :meth:`state_dict` snapshot onto this instance.

        The snapshot must come from the same registry name; constructor
        parameters are *not* re-applied here — build the instance via
        :func:`estimator_from_config` on the snapshot's config first (which is
        what :func:`repro.persist.load_estimator` does).
        """
        name = state.get("estimator")
        if name != self.name:
            raise InvalidParameterError(
                f"snapshot of estimator {name!r} cannot be loaded into {self.name!r}"
            )
        self._columns = tuple(state.get("columns", ()))
        self._row_count = int(state.get("row_count", 0))
        self._fitted = bool(state.get("fitted", False))
        arrays = {
            key: np.asarray(value) for key, value in state.get("arrays", {}).items()
        }
        self._restore_state(arrays, state.get("meta", {}))
        return self

    def save(self, path: "str | Any") -> None:
        """Write a single-file format-2 snapshot (see :mod:`repro.persist`)."""
        from repro.persist.snapshot import save_estimator  # lazy: avoids a cycle

        save_estimator(self, path)

    @staticmethod
    def load(path: "str | Any") -> "SelectivityEstimator":
        """Load a snapshot written by :meth:`save` (any registered estimator)."""
        from repro.persist.snapshot import load_estimator  # lazy: avoids a cycle

        return load_estimator(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}({status}, columns={list(self._columns)})"


class StreamingEstimator(SelectivityEstimator):
    """A synopsis that can be maintained incrementally over an insert stream.

    The maintenance contract is batch first, mirroring the estimation side:

    * ``insert(rows)`` accepts a ``(batch, len(columns))`` matrix of any
      batch size (a single row may be passed 1-D); **empty batches are a
      no-op**, never an error.
    * Implementations may buffer rows internally and fold them in chunked,
      vectorized maintenance steps, as long as the resulting synopsis does
      not depend on how the caller sliced the stream into ``insert`` calls.
    * ``flush()`` applies any internally buffered rows; estimators without
      an ingestion buffer inherit the default no-op.  Harness code calls it
      before timing estimation so buffered maintenance work is not billed
      to the query path.
    """

    @abstractmethod
    def insert(self, rows: np.ndarray) -> None:
        """Fold a batch of new rows (``(batch, len(columns))`` matrix) into the synopsis."""

    def flush(self) -> None:
        """Apply any internally buffered rows to the synopsis (default: no-op)."""

    def insert_row(self, row: Sequence[float]) -> None:
        """Convenience wrapper to insert a single row."""
        self.insert(np.asarray(row, dtype=float).reshape(1, -1))


class FeedbackEstimator(SelectivityEstimator):
    """A synopsis that self-tunes from observed true selectivities."""

    @abstractmethod
    def feedback(self, query: RangeQuery, true_fraction: float) -> None:
        """Incorporate the observed true selectivity of an executed query."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., SelectivityEstimator]] = {}


def register_estimator(name: str, factory: Callable[..., SelectivityEstimator] | None = None):
    """Register an estimator factory under ``name``.

    Can be used as a decorator on the estimator class::

        @register_estimator("equiwidth")
        class EquiWidthHistogram(SelectivityEstimator): ...
    """

    def _register(target: Callable[..., SelectivityEstimator]):
        if name in _REGISTRY:
            raise InvalidParameterError(f"estimator name {name!r} is already registered")
        _REGISTRY[name] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def create_estimator(name: str, **kwargs: Any) -> SelectivityEstimator:
    """Instantiate a registered estimator by name with keyword arguments."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown estimator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_estimators() -> list[str]:
    """Names of all registered estimators."""
    return sorted(_REGISTRY)


def estimator_from_config(config: Mapping[str, Any]) -> SelectivityEstimator:
    """Build an estimator from ``{"name": ..., **params}`` configuration.

    The reserved runtime-metadata keys in :data:`DESCRIBE_METADATA_KEYS` are
    ignored, so the output of :meth:`SelectivityEstimator.describe` (and the
    ``config`` entry of a snapshot header) round-trips directly.
    """
    if "name" not in config:
        raise InvalidParameterError("estimator config requires a 'name' key")
    params = {
        k: v
        for k, v in config.items()
        if k != "name" and k not in DESCRIBE_METADATA_KEYS
    }
    return create_estimator(str(config["name"]), **params)
