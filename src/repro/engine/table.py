"""In-memory column-oriented table with an optional typed schema.

The execution engine substrate: a minimal column store that holds attributes
as numpy float arrays, supports appends (for streaming experiments), row
filtering by :class:`~repro.workload.queries.RangeQuery` /
:class:`~repro.workload.queries.TypedQuery`, and exact selectivity
computation.  Estimators are always evaluated against the exact answers
produced here.

Non-numeric columns are handled by *dictionary encoding*: a
:class:`TableSchema` declares categorical/string columns, whose values are
stored as integer codes into a **sorted** per-column dictionary.  Sorting the
dictionary makes lexicographic order coincide with code order, so string
prefixes and IN sets lower onto the same numeric interval machinery every
estimator already speaks — the whole numeric core (histograms, kernels,
sharding, persistence) operates on codes without knowing they are codes.
The schema is optional: tables built without one behave exactly as before
(every column numeric).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    CatalogError,
    DimensionMismatchError,
    InvalidParameterError,
    SchemaError,
)
from repro.workload.queries import (
    CompiledQueries,
    Interval,
    LoweredQueries,
    RangeQuery,
    SetMembership,
    StringPrefix,
    TypedQuery,
    compile_queries,
)

__all__ = ["ColumnKind", "ColumnStats", "Table", "TableSchema"]


class ColumnStats:
    """Summary statistics of a single numeric column.

    These are the statistics a catalog would keep for every column: min, max,
    mean, standard deviation, row count and an approximate distinct count.
    """

    __slots__ = ("name", "count", "minimum", "maximum", "mean", "std", "distinct")

    def __init__(self, name: str, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self.name = name
        self.count = int(values.size)
        if values.size == 0:
            self.minimum = float("nan")
            self.maximum = float("nan")
            self.mean = float("nan")
            self.std = float("nan")
            self.distinct = 0
        else:
            self.minimum = float(np.min(values))
            self.maximum = float(np.max(values))
            self.mean = float(np.mean(values))
            self.std = float(np.std(values))
            self.distinct = int(np.unique(values).size)

    @property
    def width(self) -> float:
        """Domain width ``max - min`` (0.0 for empty/constant columns)."""
        if self.count == 0:
            return 0.0
        return self.maximum - self.minimum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStats({self.name!r}, n={self.count}, min={self.minimum:g}, "
            f"max={self.maximum:g}, distinct={self.distinct})"
        )


class ColumnKind(str, Enum):
    """Declared kind of a table column.

    ``NUMERIC`` columns store their values directly.  ``CATEGORICAL`` and
    ``STRING`` columns are dictionary-encoded: values live in a sorted
    per-column dictionary and the column stores integer codes.  The only
    behavioural difference between the two encoded kinds is that prefix
    predicates are accepted on ``STRING`` columns only.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    STRING = "string"

    @classmethod
    def coerce(cls, value: "ColumnKind | str") -> "ColumnKind":
        if isinstance(value, ColumnKind):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise SchemaError(
                f"unknown column kind {value!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


#: Version stamp of the JSON schema payload carried by snapshots.
SCHEMA_FORMAT_VERSION = 1


class TableSchema:
    """Column kinds plus sorted dictionaries for the encoded columns.

    Undeclared columns default to :attr:`ColumnKind.NUMERIC`, so an empty
    schema is equivalent to no schema at all.  Dictionaries are **sorted and
    duplicate-free**; the invariant the whole lowering layer rests on is that
    lexicographic order of the dictionary equals numeric order of the codes.
    Appending values absent from a dictionary extends (re-sorts) it and
    returns a code remap — the owning :class:`Table` applies that remap to
    its stored codes, and any fitted synopsis over the column must be
    refreshed (codes shifted underneath it).
    """

    __slots__ = ("_kinds", "_dicts", "_runs_cache")

    def __init__(
        self,
        kinds: Mapping[str, "ColumnKind | str"] | None = None,
        dictionaries: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        self._runs_cache: dict = {}
        self._kinds: dict[str, ColumnKind] = {}
        for name, kind in (kinds or {}).items():
            kind = ColumnKind.coerce(kind)
            if kind is not ColumnKind.NUMERIC:
                self._kinds[str(name)] = kind
        self._dicts: dict[str, np.ndarray] = {}
        for name, words in (dictionaries or {}).items():
            if name not in self._kinds:
                raise SchemaError(
                    f"dictionary given for column {name!r}, which is not "
                    "declared categorical/string"
                )
            self._dicts[name] = self._normalised_dictionary(name, words)

    @staticmethod
    def _normalised_dictionary(name: str, words: Sequence[str]) -> np.ndarray:
        array = np.asarray(list(words), dtype=str)
        if array.ndim != 1:
            raise SchemaError(f"dictionary of column {name!r} must be one-dimensional")
        if array.size and not np.all(array[:-1] < array[1:]):
            raise SchemaError(
                f"dictionary of column {name!r} must be sorted and duplicate-free"
            )
        array.setflags(write=False)
        return array

    # -- kinds -------------------------------------------------------------
    @property
    def encoded_columns(self) -> tuple[str, ...]:
        """Names of the declared categorical/string columns, sorted."""
        return tuple(sorted(self._kinds))

    def kind(self, column: str) -> ColumnKind:
        """Kind of ``column`` (undeclared columns are numeric)."""
        return self._kinds.get(column, ColumnKind.NUMERIC)

    def is_encoded(self, column: str) -> bool:
        """Whether ``column`` is dictionary-encoded (categorical or string)."""
        return column in self._kinds

    # -- dictionaries ------------------------------------------------------
    def _require_dictionary(self, column: str) -> np.ndarray:
        if column not in self._kinds:
            raise SchemaError(f"column {column!r} is not dictionary-encoded")
        dictionary = self._dicts.get(column)
        if dictionary is None:
            raise SchemaError(f"column {column!r} has no dictionary yet")
        return dictionary

    def has_dictionary(self, column: str) -> bool:
        """Whether an encoded column's dictionary has been built."""
        return column in self._dicts

    def dictionary(self, column: str) -> tuple[str, ...]:
        """The sorted value dictionary of an encoded column."""
        return tuple(self._require_dictionary(column))

    def cardinality(self, column: str) -> int:
        """Number of distinct dictionary entries of an encoded column."""
        return int(self._require_dictionary(column).size)

    def extend_dictionary(
        self, column: str, values: Sequence[str] | np.ndarray
    ) -> np.ndarray | None:
        """Add unseen ``values`` to a column's dictionary (building it if absent).

        Returns ``None`` when no existing code changed meaning, otherwise the
        ``old code -> new code`` remap array the caller must apply to every
        stored code of the column (the dictionary re-sorts on extension).
        """
        if column not in self._kinds:
            raise SchemaError(f"column {column!r} is not dictionary-encoded")
        incoming = np.unique(np.asarray(values, dtype=str).ravel())
        current = self._dicts.get(column)
        if current is None:
            incoming.setflags(write=False)
            self._dicts[column] = incoming
            self._runs_cache.clear()
            return None
        merged = np.union1d(current, incoming)
        if merged.size == current.size:
            return None
        remap = np.searchsorted(merged, current)
        merged.setflags(write=False)
        self._dicts[column] = merged
        self._runs_cache.clear()
        return remap

    def encode(self, column: str, values: Sequence[str] | np.ndarray) -> np.ndarray:
        """Map string values to float codes; unknown values raise SchemaError."""
        dictionary = self._require_dictionary(column)
        array = np.asarray(values, dtype=str).ravel()
        if dictionary.size == 0:
            if array.size:
                raise SchemaError(f"column {column!r} has an empty dictionary")
            return np.empty(0)
        positions = np.searchsorted(dictionary, array)
        clipped = np.minimum(positions, dictionary.size - 1)
        bad = (positions >= dictionary.size) | (dictionary[clipped] != array)
        if bad.any():
            unknown = sorted(set(array[bad].tolist()))[:5]
            raise SchemaError(
                f"column {column!r}: values not in the dictionary: {unknown}"
            )
        return positions.astype(float)

    def decode(self, column: str, codes: np.ndarray) -> np.ndarray:
        """Map float codes back to their dictionary strings."""
        dictionary = self._require_dictionary(column)
        self.validate_codes(column, codes)
        return dictionary[np.asarray(codes, dtype=float).astype(np.int64)]

    def validate_codes(self, column: str, values: np.ndarray) -> None:
        """Check that ``values`` are integral codes within the dictionary."""
        dictionary = self._require_dictionary(column)
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        if (
            not np.all(np.isfinite(array))
            or np.any(array != np.floor(array))
            or array.min() < 0
            or array.max() >= dictionary.size
        ):
            raise SchemaError(
                f"column {column!r}: values are not dictionary codes in "
                f"[0, {dictionary.size})"
            )

    # -- predicate lowering ------------------------------------------------
    def predicate_runs(self, column: str, predicate) -> np.ndarray:
        """Lower one predicate to an ``(r, 2)`` array of closed value runs.

        This is the per-predicate half of the lowering contract consumed by
        :func:`~repro.workload.queries.compile_queries`: intervals pass
        through (code-space on encoded columns), IN sets become runs of
        consecutive dictionary codes, prefixes become one code interval.  An
        empty result (``r == 0``) means the predicate matches no rows.
        """
        kind = self.kind(column)
        if isinstance(predicate, Interval):
            return np.array([[predicate.low, predicate.high]])
        if isinstance(predicate, SetMembership):
            if kind is ColumnKind.NUMERIC:
                try:
                    points = np.unique(
                        np.asarray([float(v) for v in predicate.values], dtype=float)
                    )
                except (TypeError, ValueError):
                    raise SchemaError(
                        "IN values on a numeric column must be numeric"
                    ) from None
                if np.any(np.isnan(points)):
                    raise SchemaError("IN values must not be NaN")
                return np.column_stack([points, points])
            dictionary = self._require_dictionary(column)
            wanted = np.unique(
                np.asarray([str(v) for v in predicate.values], dtype=str)
            )
            if dictionary.size == 0:
                return np.empty((0, 2))
            positions = np.searchsorted(dictionary, wanted)
            clipped = np.minimum(positions, dictionary.size - 1)
            codes = positions[
                (positions < dictionary.size) & (dictionary[clipped] == wanted)
            ]
            if codes.size == 0:
                return np.empty((0, 2))
            breaks = np.flatnonzero(np.diff(codes) > 1)
            starts = np.concatenate([[0], breaks + 1])
            ends = np.concatenate([breaks, [codes.size - 1]])
            return np.column_stack([codes[starts], codes[ends]]).astype(float)
        if isinstance(predicate, StringPrefix):
            if kind is not ColumnKind.STRING:
                raise SchemaError(
                    f"prefix predicates require a string column; {column!r} "
                    f"is {kind.value}"
                )
            dictionary = self._require_dictionary(column)
            if dictionary.size == 0:
                return np.empty((0, 2))
            matches = np.flatnonzero(np.char.startswith(dictionary, predicate.prefix))
            if matches.size == 0:
                return np.empty((0, 2))
            # The dictionary is sorted, so prefix matches are contiguous.
            return np.array([[float(matches[0]), float(matches[-1])]])
        raise SchemaError(f"unsupported predicate {predicate!r}")

    def predicate_runs_cached(self, column: str, predicate) -> tuple:
        """Memoised :meth:`predicate_runs`, as a tuple of ``(low, high)`` pairs.

        Lowering is pure in the dictionary, so runs are cached per
        ``(column, predicate)`` until the dictionary changes
        (:meth:`extend_dictionary` clears the cache).  The tuple form lets
        the hot lowering loop fill plan rows with scalar assignments.
        """
        key = (column, predicate)
        runs = self._runs_cache.get(key)
        if runs is None:
            array = np.asarray(self.predicate_runs(column, predicate), dtype=float)
            runs = tuple((float(lo), float(hi)) for lo, hi in array.reshape(-1, 2))
            if len(self._runs_cache) >= 65536:
                self._runs_cache.clear()
            self._runs_cache[key] = runs
        return runs

    # -- copying / comparison / serialisation ------------------------------
    def copy(self) -> "TableSchema":
        """Independent copy (dictionaries are immutable arrays, safely shared)."""
        clone = TableSchema.__new__(TableSchema)
        clone._runs_cache = {}
        clone._kinds = dict(self._kinds)
        clone._dicts = dict(self._dicts)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        if self._kinds != other._kinds or self._dicts.keys() != other._dicts.keys():
            return False
        return all(
            np.array_equal(self._dicts[name], other._dicts[name]) for name in self._dicts
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted((n, k.value) for n, k in self._kinds.items())),
                tuple(sorted((n, tuple(d)) for n, d in self._dicts.items())),
            )
        )

    def to_json(self) -> dict:
        """JSON-serialisable payload (travels in snapshot headers)."""
        return {
            "schema_version": SCHEMA_FORMAT_VERSION,
            "kinds": {name: kind.value for name, kind in sorted(self._kinds.items())},
            "dictionaries": {
                name: self._dicts[name].tolist() for name in sorted(self._dicts)
            },
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "TableSchema":
        """Rebuild a schema from :meth:`to_json` output (forward-version safe)."""
        try:
            version = int(payload.get("schema_version", 1))
        except (TypeError, ValueError, AttributeError):
            raise SchemaError(f"malformed schema payload: {payload!r}") from None
        if version > SCHEMA_FORMAT_VERSION:
            raise SchemaError(
                f"schema payload version {version} is newer than supported "
                f"version {SCHEMA_FORMAT_VERSION}"
            )
        return cls(payload.get("kinds") or {}, payload.get("dictionaries") or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}:{kind.value}"
            + (f"[{self._dicts[name].size}]" if name in self._dicts else "")
            for name, kind in sorted(self._kinds.items())
        )
        return f"TableSchema({parts})"


class Table:
    """A named, append-only, column-oriented table of numeric attributes.

    Parameters
    ----------
    name:
        Table name used by the catalog and the optimizer.
    columns:
        Mapping from column name to a 1-D array-like.  All columns must have
        equal length.  Columns the schema declares categorical/string accept
        string values (dictionary-encoded on ingest) or pre-encoded float
        codes; every other column must be numeric.
    schema:
        Optional :class:`TableSchema`.  Omitted, every column is numeric and
        the table behaves exactly as before the typed surface existed.  The
        schema is copied, so the table owns its dictionaries.

    Notes
    -----
    The table is deliberately simple: float column storage, no indexes, no
    deletes.  That is all the selectivity-estimation experiments need, and
    exact answers are computed by full scans (`true_count`).
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Sequence[float] | np.ndarray],
        schema: TableSchema | None = None,
    ):
        if not columns:
            raise InvalidParameterError("a table needs at least one column")
        self.name = name
        self._schema = schema.copy() if schema is not None else None
        self._columns: dict[str, np.ndarray] = {}
        self._stats: dict[str, ColumnStats] = {}
        length: int | None = None
        for column_name, values in columns.items():
            array = self._ingest_column(column_name, values)
            if length is None:
                length = array.size
            elif array.size != length:
                raise InvalidParameterError(
                    f"column {column_name!r} has {array.size} rows, expected {length}"
                )
            self._columns[column_name] = array
        self._row_count = int(length or 0)

    def _ingest_column(
        self, column_name: str, values: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Coerce one incoming column to float storage, encoding if declared."""
        array = np.asarray(values)
        if self._schema is not None and self._schema.is_encoded(column_name):
            if array.dtype.kind in "USO":
                words = np.asarray(array, dtype=str).ravel()
                self._schema.extend_dictionary(column_name, words)
                return self._schema.encode(column_name, words)
            codes = np.asarray(values, dtype=float).ravel()
            self._schema.validate_codes(column_name, codes)
            return codes
        if array.dtype.kind in "US":
            raise InvalidParameterError(
                f"column {column_name!r} holds string values; declare it "
                "categorical/string in a TableSchema to dictionary-encode it"
            )
        try:
            return np.asarray(values, dtype=float).ravel()
        except (TypeError, ValueError) as err:
            raise InvalidParameterError(
                f"column {column_name!r} is not numeric ({err}); non-numeric "
                "columns need a TableSchema declaring their kind"
            ) from None

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_array(
        cls, name: str, data: np.ndarray, column_names: Sequence[str] | None = None
    ) -> "Table":
        """Build a table from a 2-D array of shape ``(rows, attributes)``."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.ndim != 2:
            raise InvalidParameterError("data must be a 2-D array of shape (rows, attributes)")
        if column_names is None:
            column_names = [f"x{i}" for i in range(data.shape[1])]
        if len(column_names) != data.shape[1]:
            raise InvalidParameterError(
                f"{len(column_names)} column names for {data.shape[1]} attributes"
            )
        return cls(name, {c: data[:, i] for i, c in enumerate(column_names)})

    # -- basic accessors -----------------------------------------------------
    @property
    def row_count(self) -> int:
        """Number of rows currently in the table."""
        return self._row_count

    @property
    def schema(self) -> TableSchema | None:
        """The table's :class:`TableSchema`, or ``None`` for all-numeric tables."""
        return self._schema

    def _effective_schema(self) -> TableSchema:
        """The declared schema, or an empty (all-numeric) one."""
        return self._schema if self._schema is not None else TableSchema()

    def decoded(self, name: str) -> np.ndarray:
        """An encoded column's values decoded back to their strings."""
        schema = self._schema
        if schema is None or not schema.is_encoded(name):
            raise SchemaError(
                f"column {name!r} of table {self.name!r} is not dictionary-encoded"
            )
        return schema.decode(name, self.column(name))

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in insertion order."""
        return tuple(self._columns)

    def __len__(self) -> int:
        return self._row_count

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def column(self, name: str) -> np.ndarray:
        """Return the (read-only view of the) values of a column."""
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def columns(self, names: Sequence[str]) -> np.ndarray:
        """Return a ``(rows, len(names))`` matrix of the requested columns."""
        arrays = [self.column(n) for n in names]
        if not arrays:
            return np.empty((self._row_count, 0))
        return np.column_stack(arrays)

    def as_matrix(self) -> np.ndarray:
        """Return all columns as a ``(rows, attributes)`` matrix."""
        return self.columns(self.column_names)

    def stats(self, column: str) -> ColumnStats:
        """:class:`ColumnStats` for one column (cached until the next append).

        Computing distinct counts sorts the column, so results are memoised
        per column and invalidated by :meth:`append_rows` — streaming callers
        that interleave appends and stats lookups pay the sort once per
        append batch instead of once per lookup.
        """
        cached = self._stats.get(column)
        if cached is None:
            cached = ColumnStats(column, self.column(column))
            self._stats[column] = cached
        return cached

    def domain(self, columns: Sequence[str] | None = None) -> dict[str, tuple[float, float]]:
        """Return ``{column: (min, max)}`` for the requested columns."""
        names = list(columns) if columns is not None else list(self.column_names)
        result: dict[str, tuple[float, float]] = {}
        for name in names:
            stats = self.stats(name)
            if stats.count == 0:
                result[name] = (0.0, 0.0)
            else:
                result[name] = (stats.minimum, stats.maximum)
        return result

    # -- mutation -------------------------------------------------------------
    def append_rows(self, rows: Mapping[str, Sequence[float] | np.ndarray]) -> int:
        """Append a batch of rows given as ``{column: values}``.

        Every existing column must be present in ``rows``.  Encoded columns
        accept strings (novel values extend the dictionary, which re-sorts it
        and vectorised-recodes the stored column — any fitted synopsis over
        that column must then be refreshed) or pre-encoded codes.  Returns
        the number of rows appended.
        """
        missing = set(self._columns) - set(rows)
        if missing:
            raise DimensionMismatchError(f"append is missing columns: {sorted(missing)}")
        raw = {name: np.asarray(rows[name]) for name in self._columns}
        sizes = {a.ravel().size for a in raw.values()}
        if len(sizes) != 1:
            raise DimensionMismatchError("all appended columns must have the same length")
        added = sizes.pop()
        arrays: dict[str, np.ndarray] = {}
        for name, array in raw.items():
            if self._schema is not None and self._schema.is_encoded(name):
                if array.dtype.kind in "USO":
                    words = np.asarray(array, dtype=str).ravel()
                    remap = self._schema.extend_dictionary(name, words)
                    if remap is not None:
                        stored = self._columns[name].astype(np.int64)
                        self._columns[name] = remap[stored].astype(float)
                    arrays[name] = self._schema.encode(name, words)
                else:
                    codes = np.asarray(array, dtype=float).ravel()
                    self._schema.validate_codes(name, codes)
                    arrays[name] = codes
            else:
                arrays[name] = np.asarray(array, dtype=float).ravel()
        for name, values in arrays.items():
            self._columns[name] = np.concatenate([self._columns[name], values])
        self._row_count += int(added)
        self._stats.clear()
        return int(added)

    def append_matrix(self, data: np.ndarray, column_names: Sequence[str] | None = None) -> int:
        """Append rows given as a ``(rows, attributes)`` matrix."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        names = list(column_names) if column_names is not None else list(self.column_names)
        if data.shape[1] != len(names):
            raise DimensionMismatchError(
                f"matrix has {data.shape[1]} columns but {len(names)} names were given"
            )
        return self.append_rows({name: data[:, i] for i, name in enumerate(names)})

    # -- exact query evaluation -----------------------------------------------
    def selection_mask(self, query: "RangeQuery | TypedQuery") -> np.ndarray:
        """Boolean mask of rows satisfying ``query`` (full scan).

        Typed predicates are evaluated *brute force* on decoded values
        (``np.isin`` over strings, ``startswith`` per row) — deliberately
        independent of the dictionary-code lowering path, so the two can be
        tested against each other.
        """
        mask = np.ones(self._row_count, dtype=bool)
        for attribute in query.attributes:
            predicate = query[attribute]
            values = self.column(attribute)
            if isinstance(predicate, Interval):
                mask &= (values >= predicate.low) & (values <= predicate.high)
            elif isinstance(predicate, SetMembership):
                if self._schema is not None and self._schema.is_encoded(attribute):
                    wanted = np.asarray(
                        [str(v) for v in predicate.values], dtype=str
                    )
                    mask &= np.isin(self.decoded(attribute), wanted)
                else:
                    wanted = np.asarray(
                        [float(v) for v in predicate.values], dtype=float
                    )
                    mask &= np.isin(values, wanted)
            elif isinstance(predicate, StringPrefix):
                schema = self._effective_schema()
                if schema.kind(attribute) is not ColumnKind.STRING:
                    raise SchemaError(
                        f"prefix predicates require a string column; "
                        f"{attribute!r} is {schema.kind(attribute).value}"
                    )
                mask &= np.char.startswith(self.decoded(attribute), predicate.prefix)
            else:
                raise SchemaError(
                    f"unsupported predicate {predicate!r} on {attribute!r}"
                )
        return mask

    def true_count(self, query: "RangeQuery | TypedQuery") -> int:
        """Exact number of rows satisfying ``query``."""
        return int(np.count_nonzero(self.selection_mask(query)))

    def true_selectivity(self, query: "RangeQuery | TypedQuery") -> float:
        """Exact fraction of rows satisfying ``query`` (0.0 for empty tables)."""
        if self._row_count == 0:
            return 0.0
        return self.true_count(query) / self._row_count

    def true_counts(
        self,
        queries: "Sequence[RangeQuery | TypedQuery] | CompiledQueries | LoweredQueries",
    ) -> np.ndarray:
        """Exact row counts for a whole workload (vectorized full scans).

        Accepts a sequence of queries (typed queries are lowered against the
        table's schema), a pre-compiled plan whose columns are a subset of
        the table's columns, or an already-lowered plan.  The
        ``(block, rows)`` containment mask is chunked over queries so memory
        stays bounded.
        """
        if isinstance(queries, LoweredQueries):
            per_box = self._plan_counts(queries.plan).astype(float)
            return np.round(queries.reduce(per_box)).astype(np.int64)
        if isinstance(queries, CompiledQueries):
            compiled = queries
        else:
            query_list = list(queries)
            if any(isinstance(q, TypedQuery) for q in query_list):
                lowered = compile_queries(
                    query_list, self.column_names, schema=self._effective_schema()
                )
                return self.true_counts(lowered)
            compiled = compile_queries(query_list, self.column_names)
        return self._plan_counts(compiled)

    def _plan_counts(self, compiled: CompiledQueries) -> np.ndarray:
        """Chunked containment counts of one compiled (box) plan."""
        missing = [c for c in compiled.columns if c not in self._columns]
        if missing:
            raise CatalogError(
                f"table {self.name!r} has no columns {missing}"
            )
        n = len(compiled)
        out = np.zeros(n, dtype=np.int64)
        if n == 0 or self._row_count == 0:
            return out
        # Columns no query constrains are all (-inf, +inf) and filter nothing.
        active = [
            d
            for d in range(len(compiled.columns))
            if not (
                np.isneginf(compiled.lows[:, d]).all()
                and np.isposinf(compiled.highs[:, d]).all()
            )
        ]
        if not active:
            out[:] = self._row_count
            return out
        values = {d: self.column(compiled.columns[d]) for d in active}
        block = max((1 << 22) // self._row_count, 1)
        for start in range(0, n, block):
            stop = min(start + block, n)
            mask = np.ones((stop - start, self._row_count), dtype=bool)
            for d, column_values in values.items():
                mask &= (column_values[None, :] >= compiled.lows[start:stop, d, None]) & (
                    column_values[None, :] <= compiled.highs[start:stop, d, None]
                )
            out[start:stop] = np.count_nonzero(mask, axis=1)
        return out

    def true_selectivities(
        self,
        queries: "Sequence[RangeQuery | TypedQuery] | CompiledQueries | LoweredQueries",
    ) -> np.ndarray:
        """Exact selectivity of every query (zeros for empty tables)."""
        counts = self.true_counts(queries)
        if self._row_count == 0:
            return np.zeros(counts.shape[0])
        return counts / self._row_count

    def select(self, query: "RangeQuery | TypedQuery") -> "Table":
        """Return a new table containing only the rows matching ``query``."""
        mask = self.selection_mask(query)
        return Table(
            self.name,
            {name: values[mask] for name, values in self._columns.items()},
            schema=self._schema,
        )

    def sample(self, size: int, rng: np.random.Generator | None = None) -> "Table":
        """Return a uniform random sample (without replacement) of ``size`` rows."""
        rng = rng or np.random.default_rng()
        if size >= self._row_count:
            return Table(self.name, dict(self._columns), schema=self._schema)
        index = rng.choice(self._row_count, size=size, replace=False)
        return Table(
            self.name,
            {name: values[index] for name, values in self._columns.items()},
            schema=self._schema,
        )

    def iter_rows(self, columns: Sequence[str] | None = None) -> Iterator[tuple[float, ...]]:
        """Iterate rows as tuples over the requested columns."""
        names = list(columns) if columns is not None else list(self.column_names)
        matrix = self.columns(names)
        for row in matrix:
            yield tuple(float(v) for v in row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._row_count}, columns={list(self._columns)})"
