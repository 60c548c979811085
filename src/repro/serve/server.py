"""Thread-safe estimator serving with caching and copy-on-write updates.

The server holds ``(generation, model)`` as one immutable pair that is
replaced atomically on publish, so a reader either sees the old model or the
new one — never a half-swapped mixture.  Results are memoised in a bounded
LRU cache keyed on the request, with the generation as ``key[0]``:
repeated workloads (the common case for dashboard / optimizer traffic) are
answered without touching the model at all, and a publish invalidates every
cached result of previous generations simply by moving to a new generation
tag (stale entries are also evicted eagerly).

Cache keys (:meth:`EstimatorServer._cache_key`):

* a request made only of :class:`~repro.workload.queries.RangeQuery`
  objects is keyed by ``(generation, model columns, tuple of the queries)``
  and looked up *before* it is compiled, so a hit neither compiles nor
  digests it.  ``RangeQuery`` is immutable and hashes by value (with a
  cached hash), so equal requests — the same objects or fresh equal ones —
  compile to the same plan.  The key holds references to the request's
  queries for as long as the entry lives, so the cache keeps up to
  ``cache_size`` requests' queries alive (a fresh 2-attribute ``RangeQuery``
  takes about 490 bytes on 64-bit CPython 3.11);
* a :class:`~repro.workload.queries.CompiledQueries` plan, or a request
  holding anything else, is compiled first and keyed by
  ``(generation, row count, SHA-256 of the plan's columns and bounds)``.

The two forms never share an entry: a ``RangeQuery`` list and its compiled
plan are cached as two entries, each answered bitwise alike.

Update protocol (ingest-while-serve)::

    server = EstimatorServer(estimator)
    ...
    model = server.checkout()      # private deep copy (copy-on-write)
    model.insert(batch)            # ingestion mutates only the copy
    model.flush()
    server.publish(model)          # atomic swap + cache invalidation

Readers call ``estimate_batch`` concurrently throughout; the served model is
never mutated in place (``publish`` flushes streaming models up front so the
read path's lazy ``flush()`` is a no-op on the served copy).
"""

from __future__ import annotations

import copy
import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.errors import (
    CircuitOpenError,
    InvalidParameterError,
    NotFittedError,
)
from repro.core.estimator import SelectivityEstimator, StreamingEstimator
from repro.fault.plan import inject
from repro.obs.metrics import default_metrics, hit_rate
from repro.serve.breaker import CircuitBreaker
from repro.workload.queries import (
    CompiledQueries,
    LoweredQueries,
    RangeQuery,
    compile_queries,
)

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.persist.store import ModelStore
    from repro.shard.sharded import ShardedEstimator

__all__ = ["EstimatorServer", "ServerCacheInfo"]

#: Cache-outcome labels of the per-tenant request counters.  ``stale`` and
#: ``fallback`` are the degraded-path outcomes served while the circuit
#: breaker refuses (or the model fails) fresh computation.
_OUTCOMES = ("hit", "miss", "empty", "uncached", "stale", "fallback")


@dataclass(frozen=True)
class ServerCacheInfo:
    """Cache counters of an :class:`EstimatorServer` (one consistent read)."""

    hits: int
    misses: int
    size: int
    max_size: int
    generation: int

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the cache.

        Defers to :func:`repro.obs.metrics.hit_rate` — the one shared
        definition, also used by :meth:`EstimatorServer.stats`.
        """
        return hit_rate(self.hits, self.misses)


class EstimatorServer:
    """Serve ``estimate_batch`` traffic over swappable model versions.

    Parameters
    ----------
    estimator:
        The initially served (fitted) estimator.  The server takes ownership:
        after construction the model must only be evolved through
        :meth:`checkout` / :meth:`publish`.
    cache_size:
        Maximum number of cached batch results (``0`` disables caching).
    store:
        Optional :class:`~repro.persist.store.ModelStore`; when given,
        every :meth:`publish` also persists the new version under
        ``model_name``.
    model_name:
        Store name used with ``store`` (required when ``store`` is given).
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`.  When enabled,
        the server records per-request latency (``serve.request_seconds``,
        plus a per-tenant series when callers pass ``tenant=``), per-tenant
        hit/miss request counters, publish latency
        (``serve.publish_seconds``), and exports its cache/generation
        counters as snapshot-time callback gauges — so the uninstrumented
        request path pays a single branch.  Defaults to the process-default
        registry (no-op unless installed).
    breaker:
        Optional :class:`~repro.serve.breaker.CircuitBreaker`.  When given,
        model faults during estimation are caught and counted instead of
        propagating: enough consecutive faults trip the breaker, and while
        it refuses calls the server answers from the degraded path —
        last-good results for requests answered before (any generation), then
        the ``fallback`` estimator, then a
        :class:`~repro.core.errors.CircuitOpenError`.  Publishing a new
        model resets the breaker.
    fallback:
        Optional fitted estimator over the same columns, served while the
        breaker is open for requests with no last-good result (typically a
        cheap histogram next to an expensive KDE).  Requires ``breaker``.
    """

    def __init__(
        self,
        estimator: SelectivityEstimator,
        cache_size: int = 256,
        store: "ModelStore | None" = None,
        model_name: str | None = None,
        metrics=None,
        breaker: "CircuitBreaker | None" = None,
        fallback: SelectivityEstimator | None = None,
    ) -> None:
        if not estimator.is_fitted:
            raise NotFittedError("EstimatorServer requires a fitted estimator")
        if cache_size < 0:
            raise InvalidParameterError("cache_size must be non-negative")
        if store is not None and not model_name:
            raise InvalidParameterError("model_name is required when a store is given")
        if fallback is not None:
            if breaker is None:
                raise InvalidParameterError(
                    "a fallback estimator requires a circuit breaker"
                )
            if not fallback.is_fitted:
                raise NotFittedError("the fallback estimator must be fitted")
            if fallback.columns != estimator.columns:
                raise InvalidParameterError(
                    f"fallback covers {list(fallback.columns)}, expected "
                    f"{list(estimator.columns)}"
                )
        if isinstance(estimator, StreamingEstimator):
            estimator.flush()
        self.cache_size = int(cache_size)
        self.store = store
        self.model_name = model_name
        self.breaker = breaker
        self.fallback = fallback
        # Last-good results keyed by the cache key without its generation
        # (``key[1:]``): the stale-serving store the degraded path answers
        # from while the breaker is open.  Bounded LRU, maintained on every
        # fresh result.
        self._last_good: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._last_good_size = max(self.cache_size, 64) if breaker is not None else 0
        # (generation, model) is swapped as one tuple: readers grab both with
        # a single attribute load, so a concurrent publish can never pair the
        # old model with the new generation (or vice versa).
        self._current: tuple[int, SelectivityEstimator] = (1, estimator)
        self._lock = threading.Lock()
        # Serialises per-shard read-modify-write publishers (publish_shard):
        # two writers refreshing *different* shards must not lose each
        # other's swap.  Whole-model checkout()/publish() keeps the original
        # single-logical-writer protocol.
        self._swap_lock = threading.Lock()
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._generation_swaps = 0
        self._cache_invalidations = 0
        self.metrics = metrics if metrics is not None else default_metrics()
        self._instrumented = self.metrics.enabled
        if self._instrumented:
            self._request_seconds = self.metrics.histogram("serve.request_seconds")
            self._record_request = self._request_seconds.record  # prebound: hot path
            # Per-tenant series are get-or-created once and memoised here:
            # label rendering costs ~µs, far too much for the warm-hit path.
            self._tenant_series: dict[str, tuple] = {}
            # The cache/generation counters already exist on the server;
            # exporting them as snapshot-time callbacks keeps the request
            # path free of duplicate bookkeeping.  They read the server
            # through a weak reference, so the registry keeps no dropped
            # server alive, and read 0.0 once it is gone.
            metrics, server = self.metrics, weakref.ref(self)

            def gauge(name: str, read: Callable[[EstimatorServer], float]) -> None:
                metrics.gauge_fn(
                    name, lambda: 0.0 if (live := server()) is None else read(live)
                )

            gauge("serve.cache_hits", lambda s: s._hits)
            gauge("serve.cache_misses", lambda s: s._misses)
            gauge("serve.hit_rate", lambda s: hit_rate(s._hits, s._misses))
            gauge("serve.generation", lambda s: s._current[0])
            gauge("serve.generation_swaps", lambda s: s._generation_swaps)
            gauge("serve.cache_invalidations", lambda s: s._cache_invalidations)
            gauge("serve.cached_plans", lambda s: len(s._cache))
            if breaker is not None:
                gauge("serve.breaker_state", lambda s: s.breaker.state_code)
                gauge("serve.breaker_trips", lambda s: s.breaker.trips)

    # -- introspection ---------------------------------------------------------
    @property
    def generation(self) -> int:
        """Generation of the currently served model (bumped on publish)."""
        return self._current[0]

    @property
    def model(self) -> SelectivityEstimator:
        """The currently served model (treat as immutable)."""
        return self._current[1]

    @property
    def columns(self) -> tuple[str, ...]:
        """Attributes covered by the served model."""
        return self._current[1].columns

    def cache_info(self) -> ServerCacheInfo:
        """Consistent snapshot of the cache counters."""
        with self._lock:
            return ServerCacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._cache),
                max_size=self.cache_size,
                generation=self._current[0],
            )

    def stats(self) -> dict:
        """Serving introspection as one consistent, JSON-serialisable dict.

        Returns the cache counters (``hits`` / ``misses`` / ``hit_rate``),
        the number of cached plans and the cache capacity, the current
        generation, the served model's registry name, and — when the served
        model is sharded — the shard count and per-shard row counts.  This is
        the monitoring/benchmark endpoint; :meth:`cache_info` remains the
        typed cache-only view.
        """
        from repro.shard.sharded import ShardedEstimator  # lazy: avoids a cycle

        with self._lock:
            generation, model = self._current
            info = {
                "generation": generation,
                "model": model.name,
                "columns": list(model.columns),
                "rows_modelled": model.row_count,
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "hit_rate": hit_rate(self._hits, self._misses),
                "cached_plans": len(self._cache),
                "cache_capacity": self.cache_size,
                "generation_swaps": self._generation_swaps,
                "cache_invalidations": self._cache_invalidations,
            }
        if self.breaker is not None:
            info["breaker"] = self.breaker.describe()
        if isinstance(model, ShardedEstimator):
            info["shards"] = model.shard_count
            info["shard_rows"] = [int(n) for n in model.shard_row_counts()]
        return info

    def reset_stats(self) -> None:
        """Zero the cache hit/miss/invalidation counters.

        ``generation_swaps`` is deliberately *not* reset: the invariant
        ``generation == 1 + generation_swaps`` (relied on by the concurrency
        tests and version-aware clients) must survive a counter reset.  The
        cached results themselves are also kept — this resets measurement,
        not serving state.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._cache_invalidations = 0

    # -- serving ---------------------------------------------------------------
    @staticmethod
    def _cache_key(
        generation: int,
        columns: tuple[str, ...],
        request: "tuple[RangeQuery, ...] | CompiledQueries",
    ) -> tuple:
        """Cache key of a request: ``(generation, ...)``.

        A tuple of ``RangeQuery`` objects is keyed by value, as
        ``(generation, columns, request)``; a compiled plan by
        ``(generation, row count, SHA-256 digest of its columns and bounds)``.
        ``key[1:]`` keys the breaker's generation-agnostic last-good map.
        """
        if not isinstance(request, CompiledQueries):
            return (generation, columns, request)
        digest = hashlib.sha256()
        digest.update(repr(request.columns).encode())
        digest.update(request.lows.tobytes())
        digest.update(request.highs.tobytes())
        return (generation, len(request), digest.digest())

    def estimate_batch(
        self,
        queries: Sequence[RangeQuery] | CompiledQueries,
        *,
        tenant: str | None = None,
        now: float | None = None,
    ) -> np.ndarray:
        """Vector of selectivity estimates for a workload (cached, thread-safe).

        The returned array is read-only and may be shared between callers
        that submit equal requests — the same compiled plan, or equal
        ``RangeQuery`` sequences, which hit the cache without being compiled
        (see the module docstring for the cache keys) — so treat it as
        immutable.  ``tenant``
        labels the request in the telemetry registry (when one is attached);
        it never influences the answer or the cache key.  ``now`` is the
        timestamp of the circuit breaker's open → half-open transition
        (virtual-time simulators pass their clock; the default is wall
        clock); it is ignored without a breaker.  Raises
        :class:`~repro.core.errors.CircuitOpenError` when the breaker is
        open and no last-good result or fallback covers the plan.
        """
        return self.estimate_batch_tagged(queries, tenant=tenant, now=now)[1]

    def estimate_batch_tagged(
        self,
        queries: Sequence[RangeQuery] | CompiledQueries,
        *,
        tenant: str | None = None,
        now: float | None = None,
    ) -> tuple[int, np.ndarray]:
        """Like :meth:`estimate_batch`, also returning the serving generation.

        The generation identifies the model version that produced (or cached)
        the result — the hook concurrency tests and version-aware clients use
        to attribute an answer to a publish.
        """
        if not self._instrumented:
            generation, result, _ = self._serve(queries, now)
            return generation, result
        perf = perf_counter  # local binding: this wrapper is the hot path
        start = perf()
        generation, result, outcome = self._serve(queries, now)
        elapsed = perf() - start
        self._record_request(elapsed)
        if tenant is not None:
            series = self._tenant_series.get(tenant)
            if series is None:
                # Benign race: get-or-create is idempotent, losers just
                # re-derive the same registry objects.
                series = (
                    self.metrics.histogram("serve.request_seconds", tenant=tenant),
                    {
                        o: self.metrics.counter("serve.requests", tenant=tenant, outcome=o)
                        for o in _OUTCOMES
                    },
                )
                self._tenant_series[tenant] = series
            series[0].record(elapsed)
            series[1][outcome].inc()
        return generation, result

    def _serve(
        self,
        queries: Sequence[RangeQuery] | CompiledQueries,
        now: float | None = None,
    ) -> tuple[int, np.ndarray, str]:
        """The serving core: ``(generation, result, cache outcome)``."""
        generation, model = self._current
        columns = model.columns
        plan = None
        if not isinstance(queries, (CompiledQueries, LoweredQueries)):
            queries = tuple(queries)  # read once: a generator request is consumed here
        if isinstance(queries, tuple) and all(type(query) is RangeQuery for query in queries):
            # Keyed by value: compiled only on a miss, below.
            request = queries
        else:
            plan = request = compile_queries(queries, columns)
        if len(request) == 0:
            # Zero-row requests never touch the model and never enter the
            # cache: caching them would spend LRU slots (and hash work) on
            # answers that are a constant empty vector.
            return generation, np.zeros(0), "empty"
        key = (
            self._cache_key(generation, columns, request)
            if self.cache_size or self._last_good_size
            else None
        )
        outcome = "miss"
        if self.cache_size == 0:
            outcome = "uncached"
        else:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits += 1
                    return generation, cached, "hit"
                self._misses += 1
        if plan is None:
            plan = compile_queries(request, columns)
        breaker = self.breaker
        if breaker is None:
            result = model.estimate_batch(plan)
        else:
            if breaker.before_call(now) == "shed":
                return self._serve_degraded(generation, plan, key, None)
            try:
                inject("serve.estimate")
                result = model.estimate_batch(plan)
            except Exception as error:  # noqa: BLE001 - fault boundary
                breaker.record_failure(now)
                if self._instrumented:
                    self.metrics.counter("serve.model_faults").inc()
                return self._serve_degraded(generation, plan, key, error)
            breaker.record_success(now)
        result.setflags(write=False)
        with self._lock:
            if self._last_good_size:
                last_good_key = key[1:]
                self._last_good[last_good_key] = result
                self._last_good.move_to_end(last_good_key)
                while len(self._last_good) > self._last_good_size:
                    self._last_good.popitem(last=False)
            # Only results of the *current* generation are admitted: a read
            # that raced a publish may hold a now-superseded model, and its
            # result must not outlive that version in the cache.
            if self.cache_size and key[0] == self._current[0]:
                self._cache[key] = result
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return generation, result, outcome

    def _serve_degraded(
        self,
        generation: int,
        plan: CompiledQueries,
        key: tuple,
        error: Exception | None,
    ) -> tuple[int, np.ndarray, str]:
        """Answer while the model is unavailable (breaker open or faulting).

        Preference order: the last-good result for an equal request (any
        generation — a stale answer beats no answer), then the fallback
        estimator, then :class:`~repro.core.errors.CircuitOpenError`.
        Degraded answers never enter the result cache: they must not outlive
        the outage as fresh results.
        """
        with self._lock:
            stale = self._last_good.get(key[1:])
        if stale is not None:
            if self._instrumented:
                self.metrics.counter("serve.stale_served").inc()
            return generation, stale, "stale"
        if self.fallback is not None:
            try:
                result = self.fallback.estimate_batch(plan)
            except Exception as fallback_error:  # noqa: BLE001 - last resort
                raise CircuitOpenError(
                    self.breaker.state if self.breaker is not None else "open",
                    f"fallback estimator failed too ({fallback_error})",
                ) from (error or fallback_error)
            result.setflags(write=False)
            if self._instrumented:
                self.metrics.counter("serve.fallback_served").inc()
            return generation, result, "fallback"
        if self._instrumented:
            self.metrics.counter("serve.requests_shed").inc()
        raise CircuitOpenError(
            self.breaker.state if self.breaker is not None else "open",
            "no last-good result or fallback for this plan",
        ) from error

    def estimate(self, query: RangeQuery) -> float:
        """Scalar sugar over a one-row batch (mirrors the estimator API)."""
        return float(self.estimate_batch((query,))[0])

    # -- copy-on-write updates -------------------------------------------------
    def checkout(self) -> SelectivityEstimator:
        """Private deep copy of the served model for a writer to mutate.

        The copy shares nothing with the served model, so ``insert`` /
        ``flush`` / ``feedback`` on it never disturb concurrent readers.
        """
        return copy.deepcopy(self._current[1])

    def publish(self, model: SelectivityEstimator) -> int:
        """Atomically swap ``model`` in as the new served version.

        Streaming models are flushed first (the served copy must be
        effectively immutable on the read path), the ``(generation, model)``
        pair is replaced in one assignment, stale cache entries are evicted,
        and — when the server was built over a model store — the new version
        is also persisted.  Returns the new generation.
        """
        if not model.is_fitted:
            raise NotFittedError("cannot publish an unfitted model")
        publish_start = perf_counter() if self._instrumented else 0.0
        if isinstance(model, StreamingEstimator):
            model.flush()
        with self._lock:
            generation = self._current[0] + 1
            self._current = (generation, model)
            self._generation_swaps += 1
            stale = [k for k in self._cache if k[0] != generation]
            self._cache_invalidations += len(stale)
            for key in stale:
                del self._cache[key]
        if self.breaker is not None:
            # A fresh model supersedes whatever was faulting: close the
            # breaker (cumulative trips are kept for monitoring).
            self.breaker.reset()
        if self.store is not None and self.model_name:
            self.store.publish(self.model_name, model)
        if self._instrumented:
            self.metrics.histogram("serve.publish_seconds").record(
                perf_counter() - publish_start
            )
        return generation

    def observe(
        self,
        queries: Sequence[RangeQuery] | CompiledQueries,
        true_fractions: Sequence[float],
    ) -> int:
        """Apply query feedback to the served model and publish the result.

        The copy-on-write analogue of :meth:`publish` for feedback traffic:
        the served model is checked out, told the true selectivities
        (``observe`` on an ensemble, per-query ``feedback`` on any other
        :class:`~repro.core.estimator.FeedbackEstimator`), and published back
        — so a weight/bucket update bumps the generation and invalidates
        every cached plan of the superseded version.  Returns the new
        generation.
        """
        from repro.core.estimator import FeedbackEstimator  # local: narrow import

        with self._swap_lock:
            model = self.checkout()
            if hasattr(model, "observe"):
                model.observe(queries, true_fractions)
            elif isinstance(model, FeedbackEstimator):
                plan = compile_queries(queries, model.columns)
                truths = np.asarray(true_fractions, dtype=float)
                if len(plan) != truths.shape[0]:
                    raise InvalidParameterError(
                        "queries and true_fractions must have equal length"
                    )
                for query, truth in zip(plan.to_queries(), truths):
                    model.feedback(query, float(truth))
            else:
                raise InvalidParameterError(
                    f"served model {model.name!r} does not accept query feedback"
                )
            return self.publish(model)

    # -- per-shard updates (sharded models) ------------------------------------
    def _require_sharded(self) -> "ShardedEstimator":
        from repro.shard.sharded import ShardedEstimator  # lazy: avoids a cycle

        model = self._current[1]
        if not isinstance(model, ShardedEstimator):
            raise InvalidParameterError(
                "the served model is not sharded; use checkout()/publish()"
            )
        return model

    def checkout_shard(self, shard_id: int) -> SelectivityEstimator:
        """Private deep copy of one shard's synopsis of the served model.

        The per-shard analogue of :meth:`checkout`: only the one shard is
        copied, so refreshing a single partition behind a large sharded model
        costs O(shard), not O(model).
        """
        return self._require_sharded().checkout_shard(shard_id)

    def publish_shard(self, shard_id: int, shard_model: SelectivityEstimator) -> int:
        """Swap one shard of the served sharded model (atomic, new generation).

        Builds a copy-on-write front end sharing every other shard with the
        currently served model
        (:meth:`~repro.shard.sharded.ShardedEstimator.with_shard`) and
        publishes it: the generation bumps and stale cache entries are
        evicted exactly as for a whole-model publish, while the untouched
        shard synopses are shared, not copied.  Returns the new generation.
        """
        if isinstance(shard_model, StreamingEstimator):
            shard_model.flush()
        with self._swap_lock:
            sharded = self._require_sharded()
            return self.publish(sharded.with_shard(shard_id, shard_model))
