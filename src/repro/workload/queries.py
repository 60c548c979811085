"""Query model for selectivity estimation.

Selectivity estimation work is expressed over *conjunctive range predicates*:
a query constrains a subset of numeric attributes, each to a closed interval
``[low, high]``.  Point predicates are intervals with ``low == high`` and
one-sided predicates use ``-inf`` / ``+inf`` bounds.  This is the canonical
query class used by histogram, sampling, wavelet and kernel-based estimators.

The central type is :class:`RangeQuery`.  It is immutable, hashable and keeps
its constraints in a normalised, sorted form so that two queries expressing
the same predicate compare equal regardless of construction order.

For high-throughput estimation a workload is *compiled* once into a
:class:`CompiledQueries` plan (via :func:`compile_queries`): a pair of
``(n, d)`` bound matrices aligned with a fixed column tuple, the unit every
estimator's ``estimate_batch`` consumes without touching per-query Python
objects again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import DimensionMismatchError, InvalidQueryError, SchemaError

__all__ = [
    "Interval",
    "SetMembership",
    "StringPrefix",
    "RangeQuery",
    "TypedQuery",
    "QueryRegion",
    "CompiledQueries",
    "LoweredQueries",
    "compile_queries",
]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed numeric interval ``[low, high]``.

    ``low`` may be ``-inf`` and ``high`` may be ``+inf`` to express one-sided
    predicates such as ``x <= 10``.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        low = float(self.low)
        high = float(self.high)
        if math.isnan(low) or math.isnan(high):
            raise InvalidQueryError("interval bounds must not be NaN")
        if low > high:
            raise InvalidQueryError(f"interval lower bound {low} exceeds upper bound {high}")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def width(self) -> float:
        """Length of the interval (may be ``inf`` for one-sided intervals)."""
        return self.high - self.low

    @property
    def is_point(self) -> bool:
        """True when the interval contains a single value."""
        return self.low == self.high

    @property
    def is_bounded(self) -> bool:
        """True when both endpoints are finite."""
        return math.isfinite(self.low) and math.isfinite(self.high)

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the closed interval."""
        return self.low <= value <= self.high

    def intersect(self, other: "Interval") -> "Interval | None":
        """Return the intersection with ``other`` or ``None`` if disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return Interval(low, high)

    def clip(self, low: float, high: float) -> "Interval":
        """Clip the interval to ``[low, high]``; empty results collapse to a point at ``low``."""
        new_low = min(max(self.low, low), high)
        new_high = max(min(self.high, high), low)
        if new_low > new_high:
            new_low = new_high
        return Interval(new_low, new_high)

    def overlap_fraction(self, low: float, high: float) -> float:
        """Fraction of ``[low, high]`` covered by this interval.

        Used by histogram estimators under the uniform-spread assumption.
        Returns 0.0 when ``[low, high]`` is degenerate and not contained.
        """
        if high <= low:
            return 1.0 if self.contains(low) else 0.0
        covered = min(self.high, high) - max(self.low, low)
        if covered <= 0:
            return 0.0
        return covered / (high - low)


class SetMembership:
    """An IN predicate: the attribute takes one of a finite set of values.

    Values may be strings (for dictionary-encoded categorical/string columns)
    or numbers (for numeric columns).  The set is normalised to a frozenset so
    two predicates over the same values compare equal.
    """

    __slots__ = ("values", "_hash")

    def __init__(self, values: Iterable[object]):
        if isinstance(values, (str, bytes)):
            raise InvalidQueryError(
                "SetMembership takes an iterable of values; wrap a single "
                "value in a list (or use SetMembership.equals)"
            )
        normalised = frozenset(values)
        if not normalised:
            raise InvalidQueryError("SetMembership needs at least one value")
        object.__setattr__(self, "values", normalised)
        object.__setattr__(self, "_hash", hash(("SetMembership", normalised)))

    @classmethod
    def equals(cls, value: object) -> "SetMembership":
        """Equality predicate sugar: ``column = value``."""
        return cls([value])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SetMembership is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetMembership):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(map(repr, self.values))
        return f"SetMembership({{{', '.join(shown)}}})"


class StringPrefix:
    """A string-prefix predicate: the attribute starts with ``prefix``.

    Valid only on string-kind columns, whose sorted dictionary makes every
    prefix a single contiguous code range.  The empty prefix matches all rows.
    """

    __slots__ = ("prefix", "_hash")

    def __init__(self, prefix: str):
        if not isinstance(prefix, str):
            raise InvalidQueryError(
                f"StringPrefix needs a str prefix, got {type(prefix).__name__}"
            )
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "_hash", hash(("StringPrefix", prefix)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StringPrefix is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringPrefix):
            return NotImplemented
        return self.prefix == other.prefix

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StringPrefix({self.prefix!r})"


#: Predicate node types a TypedQuery may hold per attribute.
Predicate = Interval | SetMembership | StringPrefix


class RangeQuery(Mapping[str, Interval]):
    """A conjunctive range predicate over named numeric attributes.

    Parameters
    ----------
    constraints:
        Mapping from attribute name to :class:`Interval` (or a ``(low, high)``
        pair, which is converted).

    Examples
    --------
    >>> q = RangeQuery({"age": (30, 40), "salary": (50_000, math.inf)})
    >>> q.attributes
    ('age', 'salary')
    >>> q["age"].low
    30.0
    """

    __slots__ = ("_constraints", "_hash")

    def __init__(self, constraints: Mapping[str, Interval | tuple[float, float]]):
        if not constraints:
            raise InvalidQueryError("a RangeQuery needs at least one attribute constraint")
        normalised: dict[str, Interval] = {}
        for name in sorted(constraints):
            value = constraints[name]
            if isinstance(value, Interval):
                normalised[name] = value
            else:
                low, high = value
                normalised[name] = Interval(float(low), float(high))
        self._constraints: dict[str, Interval] = normalised
        self._hash: int | None = None

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, attribute: str) -> Interval:
        return self._constraints[attribute]

    def __iter__(self) -> Iterator[str]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._constraints.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeQuery):
            return NotImplemented
        return self._constraints == other._constraints

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}∈[{iv.low:g}, {iv.high:g}]" for name, iv in self._constraints.items()
        )
        return f"RangeQuery({parts})"

    # -- accessors ---------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """Constrained attribute names, in sorted order."""
        return tuple(self._constraints)

    @property
    def dimensionality(self) -> int:
        """Number of constrained attributes."""
        return len(self._constraints)

    def interval(self, attribute: str) -> Interval:
        """Return the interval for ``attribute`` (``KeyError`` if unconstrained)."""
        return self._constraints[attribute]

    def bounds(self, attributes: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(lows, highs)`` arrays aligned with ``attributes``.

        Attributes not constrained by the query get ``(-inf, +inf)``.
        """
        lows = np.full(len(attributes), -np.inf)
        highs = np.full(len(attributes), np.inf)
        for i, name in enumerate(attributes):
            interval = self._constraints.get(name)
            if interval is not None:
                lows[i] = interval.low
                highs[i] = interval.high
        return lows, highs

    def restrict(self, attributes: Iterable[str]) -> "RangeQuery | None":
        """Project the query onto ``attributes``; ``None`` if nothing remains."""
        keep = {name: iv for name, iv in self._constraints.items() if name in set(attributes)}
        if not keep:
            return None
        return RangeQuery(keep)

    def volume(self, domain: Mapping[str, tuple[float, float]]) -> float:
        """Fraction of the (axis-aligned) domain covered by the query box.

        ``domain`` maps attribute name to ``(low, high)`` bounds of the data
        domain.  Attributes of the domain not constrained by the query
        contribute a factor of 1.
        """
        fraction = 1.0
        for name, (dlow, dhigh) in domain.items():
            interval = self._constraints.get(name)
            if interval is None:
                continue
            width = dhigh - dlow
            if width <= 0:
                continue
            clipped = interval.clip(dlow, dhigh)
            fraction *= clipped.width / width
        return fraction

    def intersect(self, other: "RangeQuery") -> "RangeQuery | None":
        """Conjunction of two queries; ``None`` if the result is empty."""
        merged: dict[str, Interval] = dict(self._constraints)
        for name, interval in other.items():
            if name in merged:
                joint = merged[name].intersect(interval)
                if joint is None:
                    return None
                merged[name] = joint
            else:
                merged[name] = interval
        return RangeQuery(merged)

    def contains_point(self, point: Mapping[str, float]) -> bool:
        """True when ``point`` (attribute → value) satisfies every constraint."""
        for name, interval in self._constraints.items():
            value = point.get(name)
            if value is None or not interval.contains(float(value)):
                return False
        return True


class TypedQuery(Mapping[str, object]):
    """A conjunctive predicate mixing typed nodes over named attributes.

    The schema-aware sibling of :class:`RangeQuery`: each attribute is
    constrained by an :class:`Interval` (numeric range), a
    :class:`SetMembership` (IN over categorical/string/numeric values) or a
    :class:`StringPrefix` (prefix over a string column).  Convenience
    conversions mirror :class:`RangeQuery`: a ``(low, high)`` tuple becomes
    an :class:`Interval`, and a ``list``/``set``/``frozenset`` becomes a
    :class:`SetMembership`.

    A TypedQuery cannot be evaluated against bare numeric columns — it is
    *lowered* onto the numeric plan layer via :func:`compile_queries` with a
    schema (see :class:`~repro.engine.table.TableSchema`), producing a
    :class:`LoweredQueries` of disjoint numeric boxes.
    """

    __slots__ = ("_constraints", "_hash")

    def __init__(self, constraints: Mapping[str, object]):
        if not constraints:
            raise InvalidQueryError("a TypedQuery needs at least one attribute constraint")
        normalised: dict[str, object] = {}
        for name in sorted(constraints):
            value = constraints[name]
            if isinstance(value, (Interval, SetMembership, StringPrefix)):
                normalised[name] = value
            elif isinstance(value, tuple) and len(value) == 2:
                normalised[name] = Interval(float(value[0]), float(value[1]))
            elif isinstance(value, (list, set, frozenset)):
                normalised[name] = SetMembership(value)
            else:
                raise InvalidQueryError(
                    f"attribute {name!r}: unsupported predicate {value!r}; use "
                    "Interval, SetMembership, StringPrefix, a (low, high) tuple "
                    "or a list/set of values"
                )
        self._constraints: dict[str, object] = normalised
        self._hash: int | None = None

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, attribute: str) -> object:
        return self._constraints[attribute]

    def __iter__(self) -> Iterator[str]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._constraints.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypedQuery):
            return NotImplemented
        return self._constraints == other._constraints

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}: {pred!r}" for name, pred in self._constraints.items())
        return f"TypedQuery({parts})"

    # -- accessors ---------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """Constrained attribute names, in sorted order."""
        return tuple(self._constraints)

    @property
    def dimensionality(self) -> int:
        """Number of constrained attributes."""
        return len(self._constraints)

    def restrict(self, attributes: Iterable[str]) -> "TypedQuery | None":
        """Project the query onto ``attributes``; ``None`` if nothing remains."""
        keep = {n: p for n, p in self._constraints.items() if n in set(attributes)}
        if not keep:
            return None
        return TypedQuery(keep)


class CompiledQueries:
    """A workload compiled into bound matrices aligned with a column tuple.

    This is the *query plan* of the estimation layer: ``lows`` and ``highs``
    are ``(n, d)`` float matrices whose column ``j`` holds the bounds each of
    the ``n`` queries places on ``columns[j]`` (``-inf`` / ``+inf`` where a
    query leaves the attribute unconstrained).  Estimators consume these
    matrices directly, so a workload is translated from Python objects into
    numpy exactly once per (workload, column tuple) pair.

    Instances are immutable: the bound matrices are marked read-only.
    """

    __slots__ = ("columns", "lows", "highs")

    def __init__(
        self,
        columns: Sequence[str],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        columns = tuple(columns)
        lows = np.array(lows, dtype=float, order="C")
        highs = np.array(highs, dtype=float, order="C")
        if lows.ndim != 2 or highs.ndim != 2:
            raise InvalidQueryError("compiled bounds must be (n, d) matrices")
        if lows.shape != highs.shape:
            raise InvalidQueryError(
                f"lows shape {lows.shape} does not match highs shape {highs.shape}"
            )
        if lows.shape[1] != len(columns):
            raise InvalidQueryError(
                f"bound matrices have {lows.shape[1]} columns for {len(columns)} attributes"
            )
        # One comparison pass covers both checks (NaN compares false); which
        # one failed is only worked out on the error path.
        if not (lows <= highs).all():
            if np.isnan(lows).any() or np.isnan(highs).any():
                raise InvalidQueryError("compiled bounds must not contain NaN")
            raise InvalidQueryError("compiled lower bounds must not exceed upper bounds")
        lows.setflags(write=False)
        highs.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CompiledQueries is immutable")

    def __len__(self) -> int:
        return int(self.lows.shape[0])

    @property
    def query_count(self) -> int:
        """Number of compiled queries."""
        return int(self.lows.shape[0])

    @property
    def dimensionality(self) -> int:
        """Number of attributes in the plan's column tuple."""
        return len(self.columns)

    def restrict(self, columns: Sequence[str]) -> "CompiledQueries":
        """Project the plan onto a subset (or reordering) of its columns.

        Dropping a column is only allowed when no query constrains it —
        otherwise the projected plan would silently ignore a predicate.
        """
        columns = tuple(columns)
        missing = [c for c in columns if c not in self.columns]
        if missing:
            raise DimensionMismatchError(
                f"compiled plan over {list(self.columns)} has no columns {missing}"
            )
        dropped = [d for d, c in enumerate(self.columns) if c not in columns]
        for d in dropped:
            if np.any(np.isfinite(self.lows[:, d])) or np.any(np.isfinite(self.highs[:, d])):
                raise DimensionMismatchError(
                    f"cannot drop constrained column {self.columns[d]!r} from a compiled plan"
                )
        index = [self.columns.index(c) for c in columns]
        return CompiledQueries(columns, self.lows[:, index], self.highs[:, index])

    def to_queries(self) -> list[RangeQuery]:
        """Reconstruct one :class:`RangeQuery` per row (loop fallbacks only)."""
        return [
            RangeQuery(
                {
                    column: Interval(self.lows[i, d], self.highs[i, d])
                    for d, column in enumerate(self.columns)
                }
            )
            for i in range(self.lows.shape[0])
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledQueries(n={len(self)}, columns={list(self.columns)})"


class LoweredQueries:
    """A typed workload lowered into disjoint numeric boxes plus a grouping.

    ``plan`` is an ordinary :class:`CompiledQueries` whose rows are the
    disjoint boxes produced by predicate lowering (an IN over k runs of codes
    times a second IN over m runs expands into ``k*m`` boxes).  ``group[b]``
    names the source query of box ``b``; because the boxes of one query are
    pairwise disjoint, the query's selectivity is the plain *sum* of its box
    selectivities — no inclusion–exclusion is ever needed.  :meth:`reduce`
    performs that sum for a whole per-box result vector.

    A query whose predicate matches nothing (e.g. an IN over values absent
    from the dictionary) contributes zero boxes and reduces to 0.
    """

    __slots__ = ("plan", "group", "query_count")

    def __init__(self, plan: CompiledQueries, group: np.ndarray, query_count: int) -> None:
        group = np.asarray(group, dtype=np.int64)
        if group.ndim != 1 or group.size != len(plan):
            raise InvalidQueryError("group must assign one source query per plan row")
        if group.size and (group.min() < 0 or group.max() >= int(query_count)):
            raise InvalidQueryError("group indices must lie in [0, query_count)")
        group.setflags(write=False)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "query_count", int(query_count))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LoweredQueries is immutable")

    def __len__(self) -> int:
        return self.query_count

    @property
    def box_count(self) -> int:
        """Number of disjoint boxes in the lowered plan."""
        return len(self.plan)

    def reduce(self, per_box: np.ndarray) -> np.ndarray:
        """Sum a per-box result vector back to one value per source query."""
        per_box = np.asarray(per_box, dtype=float).ravel()
        if per_box.size != len(self.plan):
            raise DimensionMismatchError(
                f"expected {len(self.plan)} per-box values, got {per_box.size}"
            )
        if per_box.size == 0:
            return np.zeros(self.query_count)
        return np.bincount(self.group, weights=per_box, minlength=self.query_count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoweredQueries(queries={self.query_count}, boxes={self.box_count}, "
            f"columns={list(self.plan.columns)})"
        )


#: Safety cap on the disjoint-box expansion of one typed query.
MAX_BOXES_PER_QUERY = 4096


def _contains_typed(queries: Sequence[object]) -> bool:
    return any(isinstance(q, TypedQuery) for q in queries)


def _lower_workload(
    query_list: Sequence["RangeQuery | TypedQuery"],
    columns: tuple[str, ...],
    schema,
) -> LoweredQueries:
    """Lower a mixed RangeQuery/TypedQuery workload onto disjoint numeric boxes.

    ``schema`` provides ``predicate_runs(column, predicate) -> (r, 2)`` arrays
    of closed code/value ranges per predicate (duck-typed so this module does
    not import the engine layer).  Each query's per-column runs are expanded
    into their cross product of disjoint boxes.
    """
    index_of = {c: d for d, c in enumerate(columns)}
    # Memoised tuple-of-pairs runs when the schema offers them (TableSchema
    # does); the duck-typed fallback keeps any predicate_runs provider valid.
    # Hits read the memo dict directly — the method call only pays on a miss.
    runs_of = getattr(schema, "predicate_runs_cached", None)
    runs_cache = getattr(schema, "_runs_cache", None) if runs_of is not None else None
    cache_get = runs_cache.get if runs_cache is not None else None
    index_get = index_of.get
    dimensions = len(columns)
    query_count = len(query_list)
    counts: list[int] = []
    base = 0
    # Single-box queries (the dominant case) scatter through one fancy
    # assignment; multi-box queries take the stride fill below.
    flat_rows: list[int] = []
    flat_cols: list[int] = []
    flat_lows: list[float] = []
    flat_highs: list[float] = []
    multi: list[tuple[int, int, list[tuple[int, tuple]]]] = []
    for i, query in enumerate(query_list):
        # Both query classes live in this module; reading the constraint dict
        # directly keeps the hot loop free of Mapping-protocol dispatch.
        constraints = getattr(query, "_constraints", None)
        if constraints is None:
            constraints = dict(query)
        per_column: list[tuple[int, tuple]] = []
        total = 1
        for name, predicate in constraints.items():
            d = index_get(name)
            if d is None:
                unknown = sorted(set(constraints) - set(columns))
                raise DimensionMismatchError(
                    f"query {i} constrains {unknown} which are not covered by "
                    f"the plan columns {list(columns)}"
                )
            if predicate.__class__ is Interval:
                # Intervals lower to themselves; skip the schema round trip.
                runs: tuple = ((predicate.low, predicate.high),)
            else:
                runs = cache_get((name, predicate)) if cache_get is not None else None
                if runs is None:
                    try:
                        if runs_of is not None:
                            runs = runs_of(name, predicate)
                        else:
                            array = np.asarray(
                                schema.predicate_runs(name, predicate), dtype=float
                            ).reshape(-1, 2)
                            runs = tuple((float(lo), float(hi)) for lo, hi in array)
                    except SchemaError as err:
                        raise InvalidQueryError(
                            f"query {i}, column {name!r}: {err}"
                        ) from err
                if not runs:
                    total = 0
                    break
            per_column.append((d, runs))
            total *= len(runs)
        if total > MAX_BOXES_PER_QUERY:
            raise InvalidQueryError(
                f"query {i} expands into {total} disjoint boxes, above the "
                f"per-query cap of {MAX_BOXES_PER_QUERY}; shrink its IN sets"
            )
        counts.append(total)
        if total == 1:
            for d, runs in per_column:
                lo, hi = runs[0]
                flat_rows.append(base)
                flat_cols.append(d)
                flat_lows.append(lo)
                flat_highs.append(hi)
        elif total > 1:
            multi.append((base, total, per_column))
        base += total
    total_boxes = base
    lows = np.full((total_boxes, dimensions), -np.inf)
    highs = np.full((total_boxes, dimensions), np.inf)
    group = np.repeat(
        np.arange(query_count, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    )
    if flat_rows:
        rows_index = np.asarray(flat_rows, dtype=np.int64)
        cols_index = np.asarray(flat_cols, dtype=np.int64)
        lows[rows_index, cols_index] = flat_lows
        highs[rows_index, cols_index] = flat_highs
    for box_base, boxes, per_column in multi:
        # Cross product of runs: column d cycles through its runs with a
        # stride equal to the product of the run counts before it.
        stride = 1
        for d, runs in per_column:
            run_count = len(runs)
            if run_count == 1:
                lows[box_base : box_base + boxes, d] = runs[0][0]
                highs[box_base : box_base + boxes, d] = runs[0][1]
                continue
            pattern = np.asarray(runs, dtype=float)
            choice = (np.arange(boxes) // stride) % run_count
            lows[box_base : box_base + boxes, d] = pattern[choice, 0]
            highs[box_base : box_base + boxes, d] = pattern[choice, 1]
            stride *= run_count
    plan = CompiledQueries(columns, lows, highs)
    return LoweredQueries(plan, group, query_count)


def compile_queries(
    queries: "Sequence[RangeQuery | TypedQuery] | Iterable[RangeQuery] | CompiledQueries",
    columns: Sequence[str],
    schema=None,
) -> "CompiledQueries | LoweredQueries":
    """Compile a workload into a plan over ``columns``.

    Without ``schema`` (the numeric path, unchanged): a sequence of
    :class:`RangeQuery` compiles into a :class:`CompiledQueries`; an
    already-compiled plan is passed through when its column tuple matches
    (and re-projected via :meth:`CompiledQueries.restrict` when ``columns``
    is a subset), so callers can compile once and hand the same plan to every
    layer.

    With ``schema`` (a :class:`~repro.engine.table.TableSchema` or anything
    providing ``predicate_runs``): typed predicates are *lowered* — IN sets
    become runs of dictionary-code ranges, prefixes become one code interval —
    and the result is a :class:`LoweredQueries` of disjoint boxes whose
    ``.plan`` is consumable by any ``estimate_batch`` unchanged.

    A query constraining an attribute outside ``columns`` raises
    :class:`~repro.core.errors.DimensionMismatchError` naming the query index
    and the offending columns — that estimate would silently ignore a
    predicate otherwise.
    """
    columns = tuple(columns)
    if not columns:
        raise InvalidQueryError("compile_queries needs at least one column")
    if isinstance(queries, LoweredQueries):
        raise InvalidQueryError(
            "pass LoweredQueries.plan to estimators and reduce() the per-box "
            "results, or go through Catalog.estimate_batch / Table.true_counts"
        )
    if isinstance(queries, CompiledQueries):
        if queries.columns == columns:
            return queries
        return queries.restrict(columns)
    query_list = list(queries)
    if schema is not None:
        return _lower_workload(query_list, columns, schema)
    if not query_list:
        empty = np.empty((0, len(columns)))
        return CompiledQueries(columns, empty, empty)
    # One pass over the queries into nested lists; numpy sees the bounds
    # once, in the CompiledQueries constructor.  As in RangeQuery.bounds,
    # every position of a column name gets that attribute's bounds.
    known = set(columns)
    unbounded = Interval(-math.inf, math.inf)
    lows: list[list[float]] = []
    highs: list[list[float]] = []
    for i, query in enumerate(query_list):
        if isinstance(query, TypedQuery):
            raise InvalidQueryError(
                f"query {i} uses typed predicates; compile it with a schema "
                "(compile_queries(..., schema=table.schema))"
            )
        constraints = query._constraints
        if not known.issuperset(constraints):
            raise DimensionMismatchError(
                f"query {i} constrains {sorted(set(constraints) - known)} which are "
                f"not covered by the plan columns {list(columns)}"
            )
        intervals = [constraints.get(name, unbounded) for name in columns]
        lows.append([interval.low for interval in intervals])
        highs.append([interval.high for interval in intervals])
    return CompiledQueries(columns, lows, highs)


@dataclass(frozen=True)
class QueryRegion:
    """A query together with bookkeeping used by feedback-driven estimators.

    Attributes
    ----------
    query:
        The range predicate.
    true_fraction:
        Observed true selectivity in ``[0, 1]`` (from executing the query).
    estimated_fraction:
        The estimate the synopsis produced at observation time, if recorded.
    """

    query: RangeQuery
    true_fraction: float
    estimated_fraction: float | None = None
    weight: float = field(default=1.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.true_fraction <= 1.0:
            raise InvalidQueryError(
                f"true_fraction must be in [0, 1], got {self.true_fraction}"
            )
        if self.weight <= 0:
            raise InvalidQueryError("feedback weight must be positive")
