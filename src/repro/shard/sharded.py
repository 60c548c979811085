"""The sharded estimation front end.

:class:`ShardedEstimator` is itself a :class:`~repro.core.estimator.SelectivityEstimator`
(and a :class:`~repro.core.estimator.StreamingEstimator` when its shard
synopses are): it partitions the fitted table with a
:class:`~repro.shard.partition.Partitioner`, fits one clone of the base
synopsis per shard (in parallel on a thread pool, through a
:class:`~repro.shard.parallel.ShardExecutor`), and serves the whole estimator
contract — ``fit`` / ``insert`` / ``flush`` / ``estimate_batch`` /
``state_dict`` — by routing per shard.  ``insert`` and ``flush`` fold the
shards one after another on the calling thread: the streaming fold holds the
GIL, so folding threads only hand it back and forth
(see :mod:`repro.shard.parallel`).

Estimation modes (the ``combine`` parameter)
--------------------------------------------

``"auto"`` (default)
    Estimators with a lossless state-merge (``merge_lossless``) are served
    through a lazily maintained merged synopsis: for the histogram family
    (``equiwidth``, ``equidepth``, ``grid``) it reproduces the monolithic
    estimator **bitwise**, for ``independence`` up to float rounding.  For
    ``streaming_ade`` it is the union of the shard mixtures, which answers
    what the weighted path answers up to float rounding (not what a
    monolithic fit answers).  Everything else, and every base while a shard
    is lost, is served by the weighted path.
``"weighted"``
    One vectorized ``estimate_batch`` pass per shard, reduced with the base
    estimator's row-count-weighted
    :meth:`~repro.core.estimator.SelectivityEstimator.combine_estimates`.
    Exact when per-shard estimates are exact; for KDE-family synopses over a
    hash partition the deviation from the monolithic model is small
    (≤ 5 % mean relative deviation on the standard workloads — pinned by
    ``tests/shard/test_sharded_estimator.py``).

Any other ``combine`` value raises
:class:`~repro.core.errors.InvalidParameterError`, also when a stored
snapshot config carries it.  The samplers' statistical ``merge_state``
serves no reads: only :meth:`ShardedEstimator.merged_estimator` builds it,
on request.

The memory accounting (``memory_bytes``) charges the shard synopses only —
the merged view is a cache rebuilt from shard state, not independent state.

Query fast path: a sharded ``streaming_ade`` serves from its union, so a
read makes one pass of fast-path routing, candidate culling and the
product-CDF micro-kernel (:mod:`repro.core.fastpath`) over one support index,
built lazily on the union's first read.  The union and its index are one
cache: ``fit``, ``insert``, ``flush``, a shard refit, swap or loss, and
``load_state`` drop it, and a deep copy carries it along.  On the weighted
path, kernel-family shard synopses each carry their own index, invalidated
by that shard's own staleness counter — so a routed ``insert`` only
invalidates the indexes of the shards that actually received rows, and a
copy-on-write shard swap (:meth:`ShardedEstimator.with_shard`) keeps the
untouched shards' indexes warm.

Faults: the ``shard.estimate`` fault point and the estimate strikes sit on
the weighted path only.  A merged read has no per-shard fault boundary and
never reaches them; a lost shard turns merged serving off until it heals.
"""

from __future__ import annotations

import copy
import logging
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
    ReproError,
    StreamError,
)
from repro.obs.metrics import default_metrics
from repro.core.estimator import (
    SelectivityEstimator,
    StreamingEstimator,
    estimator_from_config,
    register_estimator,
)
from repro.core.resolve import resolve_estimator
from repro.engine.table import Table
from repro.fault.plan import inject
from repro.shard.parallel import ShardExecutor
from repro.shard.partition import Partitioner, make_partitioner, partition_table
from repro.stream.batches import normalize_batch

__all__ = ["ShardedEstimator"]

logger = logging.getLogger("repro.shard")

#: Below this many (queries × shards) the per-shard estimate passes run
#: serially — a thread pool costs more than it saves on tiny batches.
_PARALLEL_ESTIMATE_THRESHOLD = 4096


@register_estimator("sharded")
class ShardedEstimator(StreamingEstimator):
    """Partition-wise synopsis: one base-estimator clone per table shard.

    Parameters
    ----------
    base:
        The shard synopsis: an estimator instance (used as a configuration
        template — one fresh clone is fitted per shard), a registry name, or
        a ``{"name": ..., **params}`` config mapping.
    shards:
        Number of partitions.
    partitioner:
        Routing policy: ``"hash"`` / ``"range"`` / ``"round_robin"``, a
        config mapping, or a :class:`~repro.shard.partition.Partitioner`
        instance.
    combine:
        Estimation mode (see module docstring): ``"auto"`` or
        ``"weighted"``.
    parallel:
        Execution backend for per-shard fit and the weighted path's
        estimate fan-out: ``"thread"`` (default) or ``"serial"`` (also
        ``None``).  ``insert`` and ``flush`` run on the calling thread under
        either backend.
    max_workers:
        Pool width (default: ``min(shards, cpu_count)``).
    """

    name = "sharded"

    def __init__(
        self,
        base: "SelectivityEstimator | Mapping[str, Any] | str" = "equiwidth",
        shards: int = 4,
        partitioner: "str | Mapping[str, Any] | Partitioner" = "hash",
        combine: str = "auto",
        parallel: str | None = "thread",
        max_workers: int | None = None,
    ) -> None:
        super().__init__()
        if shards < 1:
            raise InvalidParameterError("shards must be positive")
        if combine not in ("auto", "weighted"):
            raise InvalidParameterError(
                f"combine must be 'auto' or 'weighted', got {combine!r}"
            )
        template = resolve_estimator(base, what="base")
        if isinstance(template, ShardedEstimator):
            raise InvalidParameterError("sharded estimators cannot be nested")
        self.shard_count = int(shards)
        self.combine = combine
        self.parallel = parallel
        self.max_workers = max_workers
        self._template = template
        self._partitioner_spec = partitioner
        self._executor = ShardExecutor(parallel, max_workers)
        self._maintenance = ShardExecutor("serial")
        self._partitioner: Partitioner | None = None
        self._shards: list[SelectivityEstimator] = []
        self._frame: dict[str, np.ndarray] | None = None
        self._merged: SelectivityEstimator | None = None
        self._lost: set[int] = set()
        #: Consecutive estimate failures a shard is allowed before it is
        #: declared lost (mirrors the serving circuit breaker's
        #: consecutive-failure threshold): a one-off transient fault only
        #: excludes the shard from that batch's reduction, and any success
        #: clears its strikes.
        self.estimate_failure_threshold = 3
        self._estimate_strikes: dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------------
    def fit(
        self, table: Table, columns: Sequence[str] | None = None
    ) -> "ShardedEstimator":
        columns = self._resolve_columns(table, columns)
        # A full fit re-derives the routing layout (range boundaries etc.);
        # an explicitly supplied Partitioner instance keeps its frozen state.
        self._partitioner = make_partitioner(self._partitioner_spec, self.shard_count)
        sub_tables = partition_table(table, self._partitioner, columns)
        self._frame = (
            dict(self._template.shard_frame(table, columns))
            if self._template.supports_merge
            else None
        )
        clones = [self._clone_template() for _ in range(self.shard_count)]
        self._shards = self._executor.map(
            lambda clone, sub_table: clone.fit_shard(sub_table, columns, self._frame),
            clones,
            sub_tables,
            op="fit",
        )
        self._merged = None
        self._lost = set()
        self._estimate_strikes = {}
        self._mark_fitted(columns, table.row_count)
        return self

    def _clone_template(self) -> SelectivityEstimator:
        return estimator_from_config(self._template.config())

    # -- introspection ---------------------------------------------------------
    @property
    def shard_estimators(self) -> tuple[SelectivityEstimator, ...]:
        """The per-shard synopses (treat as immutable on the read path)."""
        return tuple(self._shards)

    def shard(self, shard_id: int) -> SelectivityEstimator:
        """The synopsis of one shard."""
        self._require_fitted()
        return self._shards[self._check_shard_id(shard_id)]

    @property
    def partitioner(self) -> Partitioner:
        """The bound row router."""
        self._require_fitted()
        assert self._partitioner is not None
        return self._partitioner

    def shard_row_counts(self) -> np.ndarray:
        """Rows modelled by each shard synopsis."""
        self._require_fitted()
        return np.array([shard.row_count for shard in self._shards], dtype=np.int64)

    def _check_shard_id(self, shard_id: int) -> int:
        if not 0 <= shard_id < len(self._shards):
            raise InvalidParameterError(
                f"shard id {shard_id} out of range [0, {len(self._shards)})"
            )
        return int(shard_id)

    # -- degraded mode (lost shards) -------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether any shard has been marked lost (estimates renormalize)."""
        return bool(self._lost)

    @property
    def lost_shards(self) -> tuple[int, ...]:
        """Shard ids currently marked lost, ascending."""
        return tuple(sorted(self._lost))

    def mark_shard_lost(self, shard_id: int, reason: str = "manual") -> None:
        """Declare one shard's synopsis permanently unavailable.

        The front end keeps serving: estimates renormalize over the
        surviving shards (row-count-weighted ``combine_estimates``, which a
        hash partition makes an unbiased-sample approximation of the full
        ensemble), rows routed to the lost shard are dropped and counted
        (``shard.dropped_rows``), and the loss is surfaced in
        :meth:`describe` plus the ``shard.lost`` obs counter.  Heal by
        swapping a rebuilt synopsis in (:meth:`with_shard` /
        :meth:`refit_shard`) or refitting.
        """
        self._require_fitted()
        shard_id = self._check_shard_id(shard_id)
        if shard_id in self._lost:
            return
        self._lost.add(shard_id)
        self._merged = None
        default_metrics().counter("shard.lost", reason=reason).inc()
        logger.warning(
            "shard %d marked lost (%s); serving degraded estimates over %d/%d shards",
            shard_id,
            reason,
            len(self._shards) - len(self._lost),
            len(self._shards),
        )

    def memory_bytes(self) -> int:
        self._require_fitted()
        return int(sum(shard.memory_bytes() for shard in self._shards))

    # -- streaming maintenance -------------------------------------------------
    def insert(self, rows: np.ndarray) -> None:
        """Route a batch of rows to their shards' streaming synopses.

        Routing is batch-invariant (see :mod:`repro.shard.partition`), so the
        resulting shard synopses are independent of how the caller sliced the
        stream — given the shard synopses themselves honour that contract.
        The batch is validated before routing (a wrong width or a non-finite
        value raises :class:`DimensionMismatchError`), so a rejected batch
        changes no shard.  A shard task that still fails after its retries
        stops the insert at that shard and propagates; the shards before it
        keep their rows, and the row count and later estimates include them.
        """
        self._require_fitted()
        rows = normalize_batch(rows, len(self._columns), DimensionMismatchError)
        if rows is None:
            return
        if not all(isinstance(shard, StreamingEstimator) for shard in self._shards):
            raise StreamError(
                f"base estimator {self._template.name!r} is not a streaming "
                "synopsis; rebuild with fit() instead"
            )
        assert self._partitioner is not None
        assignment = self._partitioner.assign(rows)
        targets = []
        dropped = 0
        for shard_id in range(self.shard_count):
            batch = rows[assignment == shard_id]
            if not batch.shape[0]:
                continue
            if shard_id in self._lost:
                # A lost shard has nowhere durable to put its rows; dropping
                # (counted) keeps the surviving shards' synopses honest
                # rather than silently skewing another shard's partition.
                dropped += batch.shape[0]
                continue
            targets.append((self._shards[shard_id], batch))
        if dropped:
            default_metrics().counter("shard.dropped_rows").inc(dropped)
        folded: list[int] = []

        def fold(shard: StreamingEstimator, batch: np.ndarray) -> None:
            shard.insert(batch)
            folded.append(batch.shape[0])

        try:
            self._maintenance.map(
                fold,
                [shard for shard, _ in targets],
                [batch for _, batch in targets],
                op="insert",
            )
        finally:
            self._row_count += sum(folded)
            self._merged = None

    def flush(self) -> None:
        """Flush every surviving streaming shard's pending ingestion buffer."""
        streaming = [
            s
            for i, s in enumerate(self._shards)
            if isinstance(s, StreamingEstimator) and i not in self._lost
        ]
        if streaming:
            self._maintenance.map(lambda shard: shard.flush(), streaming, op="flush")
            self._merged = None

    # -- estimation ------------------------------------------------------------
    @property
    def merge_mode(self) -> bool:
        """Whether estimates are served through the merged synopsis."""
        if self._lost:
            # Degraded: the merged synopsis would fold lost-shard state back
            # in; only the weighted path can renormalize over survivors.
            return False
        # auto: merge when it is a deterministic statistics recombination
        # (histograms: bitwise; independence and the streaming_ade union:
        # float-rounding exact).  Sample merges *shrink* the pooled evidence
        # back to one sample, so the weighted path serves samplers better.
        return self.combine == "auto" and self._template.merge_lossless

    def merged_estimator(self) -> SelectivityEstimator:
        """The shard states folded into one synopsis (``merge_state``).

        Requires a mergeable base.  For the histogram family the result
        equals a monolithic fit; for ``streaming_ade`` it is the union of the
        shard mixtures, estimate-equivalent to the weighted path rather than
        to a monolithic fit, and read-only.  The result is cached until the
        next ``insert`` / ``flush`` / shard refit, swap or loss; callers must
        treat it as immutable.
        """
        self._require_fitted()
        if not self._template.supports_merge:
            raise InvalidParameterError(
                f"base estimator {self._template.name!r} does not support "
                "state-merge"
            )
        if self._merged is None:
            self._merged = self._clone_template().merge_state(self._shards)
        return self._merged

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        if self.merge_mode:
            merged = self.merged_estimator()
            return np.asarray(merged._estimate_batch(lows, highs), dtype=float)
        live = [i for i in range(len(self._shards)) if i not in self._lost]

        def one(shard_id: int) -> "np.ndarray | Exception":
            # A shard whose synopsis faults mid-estimate is captured and
            # excluded from the reduction — one bad shard degrades the answer
            # instead of failing the whole batch; ``estimate_failure_threshold``
            # consecutive faults mark it lost below.  (The
            # executor's "shard.task" point sits *outside* this boundary and
            # models retryable transport faults instead.)
            try:
                inject("shard.estimate")
                return self._shards[shard_id]._estimate_batch(lows, highs)
            except Exception as error:  # noqa: BLE001 - fault boundary
                return error

        if lows.shape[0] * len(live) >= _PARALLEL_ESTIMATE_THRESHOLD:
            raw = self._executor.map(one, live, op="estimate")
        else:
            raw = [one(shard_id) for shard_id in live]
        survivors: list[int] = []
        results: list[np.ndarray] = []
        last_error: Exception | None = None
        for shard_id, result in zip(live, raw):
            if isinstance(result, Exception):
                last_error = result
                default_metrics().counter("shard.estimate_failures").inc()
                strikes = self._estimate_strikes.get(shard_id, 0) + 1
                self._estimate_strikes[shard_id] = strikes
                if strikes >= self.estimate_failure_threshold:
                    self.mark_shard_lost(shard_id, reason="estimate_failure")
                else:
                    # Probation: a transient fault excludes the shard from
                    # this batch only; it is retried on the next call and a
                    # success clears its strikes.
                    logger.warning(
                        "shard %d estimate failed (%s); strike %d/%d, "
                        "excluded from this batch",
                        shard_id,
                        result,
                        strikes,
                        self.estimate_failure_threshold,
                    )
            else:
                self._estimate_strikes.pop(shard_id, None)
                survivors.append(shard_id)
                results.append(result)
        if not results:
            if last_error is not None:
                raise last_error
            raise ReproError(
                f"all {len(self._shards)} shards are lost; no estimates available"
            )
        weights = np.array(
            [self._shards[shard_id].row_count for shard_id in survivors],
            dtype=np.int64,
        )
        estimates = np.stack(
            [self._clip_fractions(np.asarray(r, dtype=float)) for r in results]
        )
        return type(self._template).combine_estimates(estimates, weights)

    # -- per-shard lifecycle (refresh / copy-on-write swap) ---------------------
    def refit_shard(self, shard_id: int, table: Table) -> SelectivityEstimator:
        """Refit one shard's synopsis from the current table, in place.

        The frozen routing layout selects the shard's rows, so only that
        partition is scanned and only that synopsis is rebuilt — the
        per-shard refresh path.  The fit frame pinned by the original full
        fit is reused so a mergeable base stays merge-compatible; run a full
        :meth:`fit` to re-derive frame and routing.  Returns the new shard
        synopsis.
        """
        self._require_fitted()
        shard_id = self._check_shard_id(shard_id)
        assert self._partitioner is not None
        # Static routing: re-deriving a partition of the current table must
        # not consume the round-robin stream counter (which tracks inserts).
        assignment = self._partitioner.assign_static(
            table.columns(list(self._partitioner.columns))
        )
        mask = assignment == shard_id
        sub_table = Table(
            f"{table.name}::shard{shard_id}",
            {name: table.column(name)[mask] for name in table.column_names},
            schema=table.schema,
        )
        fresh = self._clone_template().fit_shard(sub_table, self._columns, self._frame)
        self._shards[shard_id] = fresh
        self._lost.discard(shard_id)  # a rebuilt synopsis heals a lost shard
        self._estimate_strikes.pop(shard_id, None)
        self._row_count = int(sum(shard.row_count for shard in self._shards))
        self._merged = None
        return fresh

    def checkout_shard(self, shard_id: int) -> SelectivityEstimator:
        """Private deep copy of one shard's synopsis for a writer to mutate."""
        self._require_fitted()
        return copy.deepcopy(self._shards[self._check_shard_id(shard_id)])

    def with_shard(
        self, shard_id: int, estimator: SelectivityEstimator
    ) -> "ShardedEstimator":
        """A new sharded front end with one shard replaced (copy-on-write).

        The other shard synopses are *shared*, not copied — they are
        immutable on the read path — so swapping one shard behind a server
        costs O(1) in the other shards.  The original instance is untouched.
        """
        self._require_fitted()
        shard_id = self._check_shard_id(shard_id)
        if estimator.name != self._template.name:
            raise InvalidParameterError(
                f"cannot swap a {estimator.name!r} synopsis into a sharded "
                f"{self._template.name!r} estimator"
            )
        if not estimator.is_fitted:
            raise NotFittedError("cannot swap in an unfitted shard synopsis")
        if estimator.columns != self._columns:
            raise DimensionMismatchError(
                f"shard covers {list(estimator.columns)}, expected "
                f"{list(self._columns)}"
            )
        clone = copy.copy(self)
        clone._shards = list(self._shards)
        clone._shards[shard_id] = estimator
        clone._partitioner = copy.deepcopy(self._partitioner)
        clone._merged = None
        # Private lost-set: swapping a fresh synopsis into a lost slot heals
        # it on the clone (the original keeps serving degraded).
        clone._lost = set(self._lost) - {shard_id}
        clone._estimate_strikes = {
            sid: n for sid, n in self._estimate_strikes.items() if sid != shard_id
        }
        clone._row_count = int(sum(shard.row_count for shard in clone._shards))
        return clone

    # -- configuration & persistence -------------------------------------------
    def _config_params(self) -> dict[str, Any]:
        if isinstance(self._partitioner_spec, Partitioner):
            partitioner_config: Any = self._partitioner_spec.config()
        else:
            partitioner_config = self._partitioner_spec
        return {
            "base": self._template.config(),
            "shards": self.shard_count,
            "partitioner": partitioner_config,
            "combine": self.combine,
            "parallel": self.parallel,
            "max_workers": self.max_workers,
        }

    def _state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays: dict[str, np.ndarray] = {}
        shard_headers: list[dict[str, Any]] = []
        for i, shard in enumerate(self._shards):
            state = shard.state_dict()
            for key, value in state.pop("arrays").items():
                arrays[f"s{i}::{key}"] = value
            shard_headers.append(state)
        meta: dict[str, Any] = {"shards": shard_headers, "partitioner": None}
        if self._lost:
            meta["lost"] = sorted(self._lost)
        if self._partitioner is not None:
            part_arrays, part_meta = self._partitioner.state()
            for key, value in part_arrays.items():
                arrays[f"part::{key}"] = value
            meta["partitioner"] = {
                "config": self._partitioner.config(),
                "meta": part_meta,
            }
        if self._frame is not None:
            # Sorted, as the reload rebuilds the frame from this key list.
            meta["frame_keys"] = sorted(self._frame)
            for key in meta["frame_keys"]:
                arrays[f"frame::{key}"] = self._frame[key]
        return arrays, meta

    def _restore_state(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        shards: list[SelectivityEstimator] = []
        for i, header in enumerate(meta.get("shards", [])):
            prefix = f"s{i}::"
            shard_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            shard = estimator_from_config(
                {"name": header["estimator"], **header.get("config", {})}
            )
            shard.load_state({**header, "arrays": shard_arrays})
            shards.append(shard)
        self._shards = shards
        self._partitioner = None
        part = meta.get("partitioner")
        if part is not None:
            self._partitioner = make_partitioner(part["config"], self.shard_count)
            part_arrays = {
                key[len("part::"):]: value
                for key, value in arrays.items()
                if key.startswith("part::")
            }
            self._partitioner.load_state(part_arrays, part.get("meta", {}))
        self._frame = None
        if "frame_keys" in meta:  # an empty frame is still a frame
            self._frame = {
                key: np.asarray(arrays[f"frame::{key}"])
                for key in meta["frame_keys"]
            }
        self._lost = {int(i) for i in meta.get("lost", [])}
        self._estimate_strikes = {}
        self._merged = None

    def describe(self) -> dict[str, Any]:
        """Structured description; surfaces degraded mode when shards are lost."""
        info = super().describe()
        if self._lost:
            info["degraded"] = True
            info["lost_shards"] = list(self.lost_shards)
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        if self._lost:
            status += f", degraded (lost {sorted(self._lost)})"
        return (
            f"ShardedEstimator({self._template.name!r} x{self.shard_count}, "
            f"{status}, columns={list(self._columns)})"
        )
