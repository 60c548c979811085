"""The drift-adaptive expert-ensemble estimator.

:class:`EnsembleEstimator` serves a weighted pool of heterogeneous synopses
drawn from the registry behind the full
:class:`~repro.core.estimator.SelectivityEstimator` contract:

* ``estimate_batch`` is the weight-normalised convex combination of each
  expert's vectorized batch — one ``estimate_batch`` pass per expert, so
  every expert keeps its own query fast path;
* ``insert``/``flush`` route to the streaming-capable experts (static
  experts go stale on drift — which is exactly what the weights then
  punish);
* ``observe(queries, truths)`` is the feedback entry point driving the
  AddExp lifecycle (see :mod:`repro.ensemble.experts`): multiplicative
  weight decay on observed relative error, new-expert spawn at ``gamma`` of
  total weight on sustained ensemble error, weakest/oldest pruning to the
  ``max_experts`` budget.  ``feedback(query, truth)`` is one-observation
  sugar, so :class:`~repro.core.feedback.FeedbackAdaptiveEstimator`-style
  execution logs can drive it unchanged;
* snapshots carry the complete lifecycle — weights, per-expert states
  (namespaced ``e{i}::`` in one snapshot file), spawn history and the pool's
  RNG state — so a restored ensemble is bitwise the live one.

Sharding: the ensemble does not state-merge (its experts may not), so
``ShardedEstimator(ensemble_config, ...)`` serves it through the weighted
combine fallback; all merge flags stay ``False``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    StreamError,
)
from repro.core.estimator import (
    FLOAT_BYTES,
    FeedbackEstimator,
    StreamingEstimator,
    estimator_from_config,
    register_estimator,
)
from repro.core.resolve import resolve_estimator
from repro.ensemble.experts import ExpertPool, WeightedExpert
from repro.ensemble.policy import WeightPolicy, create_policy
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table
from repro.workload.queries import CompiledQueries, RangeQuery, compile_queries

__all__ = ["EnsembleEstimator", "DEFAULT_EXPERTS"]

#: Relative-error denominator floor — matches the deviation flooring used by
#: the shard-tolerance suite, so tiny selectivities don't dominate losses.
_LOSS_FLOOR = 0.05

#: Minimum buffered rows before a spawned (non-streaming) expert is fitted.
_SPAWN_MIN_ROWS = 32

#: The default expert pool: complementary synopsis families at a small
#: budget — a smooth density model, a skew-robust histogram, an adaptive
#: streaming kernel model and a decayed sample.
DEFAULT_EXPERTS: tuple[dict[str, Any], ...] = (
    {"name": "kde", "sample_size": 256},
    {"name": "equidepth", "buckets": 64},
    {"name": "streaming_ade", "max_kernels": 128},
    {"name": "reservoir_sampling", "sample_size": 256, "decay": True},
)


@register_estimator("ensemble")
class EnsembleEstimator(StreamingEstimator, FeedbackEstimator):
    """AddExp-weighted pool of registry experts with a spawn/prune lifecycle.

    Parameters
    ----------
    experts:
        Sequence of expert specifications — estimator instances, registry
        names or ``{"name": ..., **params}`` config mappings (resolved
        through :func:`~repro.core.resolve.resolve_estimator`, so nested
        wrappers round-trip).  Defaults to :data:`DEFAULT_EXPERTS`.
    policy:
        Weighting policy name (``"addexp"`` / ``"windowed"`` / ``"pinned"``)
        or a :class:`~repro.ensemble.policy.WeightPolicy` instance.
    beta:
        AddExp decay base in ``(0, 1)``: a weight is multiplied by
        ``beta ** loss`` per feedback round.
    gamma:
        Fraction of the total weight a newly spawned expert receives.
    max_experts:
        Pool budget; a spawn beyond it prunes first.
    spawn_threshold:
        Windowed ensemble loss above which a spawn is requested.
    spawn_cooldown:
        Minimum feedback rounds between spawns.
    prune:
        Eviction rule at the budget: ``"weakest"`` or ``"oldest"``.
    buffer_rows:
        Rows of recent data retained for fitting spawned experts.
    seed:
        Seed of the lifecycle RNG (spawned-expert seeds derive from it).
    """

    name = "ensemble"

    def __init__(
        self,
        experts: Sequence["Any"] | None = None,
        policy: "str | WeightPolicy" = "addexp",
        beta: float = 0.5,
        gamma: float = 0.1,
        max_experts: int = 8,
        spawn_threshold: float = 0.35,
        spawn_cooldown: int = 5,
        prune: str = "weakest",
        buffer_rows: int = 4096,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if buffer_rows < 0:
            raise InvalidParameterError("buffer_rows must be non-negative")
        specs = list(experts) if experts is not None else [dict(s) for s in DEFAULT_EXPERTS]
        if not specs:
            raise InvalidParameterError("the ensemble needs at least one expert")
        resolved = [resolve_estimator(spec, what="expert") for spec in specs]
        for expert in resolved:
            if isinstance(expert, EnsembleEstimator):
                raise InvalidParameterError("ensembles cannot be nested")
        self._expert_specs: list[dict[str, Any]] = [e.config() for e in resolved]
        self._policy = create_policy(policy)
        self.buffer_rows = int(buffer_rows)
        self.seed = seed
        self._pool = ExpertPool(
            self._policy,
            beta=beta,
            gamma=gamma,
            max_experts=max_experts,
            spawn_threshold=spawn_threshold,
            spawn_cooldown=spawn_cooldown,
            prune=prune,
            seed=seed,
        )
        self._pool.reset(resolved)
        self._buffer = np.empty((0, 0))

    # -- introspection -----------------------------------------------------------
    @property
    def experts(self) -> tuple[WeightedExpert, ...]:
        """The weighted pool members (treat as immutable on the read path)."""
        return tuple(self._pool.experts)

    @property
    def weights(self) -> np.ndarray:
        """Current normalised expert weights."""
        return self._pool.weight_vector()

    @property
    def spawn_history(self) -> list[dict[str, Any]]:
        """One record per spawned expert (round and registry name)."""
        return list(self._pool.spawn_history)

    @property
    def feedback_rounds(self) -> int:
        """Number of ``observe`` rounds applied."""
        return self._pool.round

    def expert_summary(self) -> list[dict[str, Any]]:
        """Per-expert weight/age/error introspection (JSON-serialisable).

        Kept separate from :meth:`describe` — describe is pinned to
        ``config() + DESCRIBE_METADATA_KEYS`` by the registry-wide contract.
        """
        return [
            {
                "expert": expert.estimator.name,
                "weight": float(expert.weight),
                "born": int(expert.born),
                "rounds": int(expert.rounds),
                "loss_ewma": float(expert.loss_ewma),
            }
            for expert in self._pool.experts
        ]

    # -- lifecycle ---------------------------------------------------------------
    def fit(
        self, table: "Table", columns: Sequence[str] | None = None
    ) -> "EnsembleEstimator":
        columns = self._resolve_columns(table, columns)
        estimators = [estimator_from_config(spec) for spec in self._expert_specs]
        for estimator in estimators:
            estimator.fit(table, columns)
        self._pool.reset(estimators)
        matrix = np.asarray(table.columns(columns), dtype=float)
        keep = min(self.buffer_rows, matrix.shape[0])
        self._buffer = matrix[matrix.shape[0] - keep :].copy()
        self._mark_fitted(columns, table.row_count)
        return self

    def start(self, columns: Sequence[str]) -> "EnsembleEstimator":
        """Begin streaming from empty state (requires startable experts)."""
        columns = list(columns)
        estimators = [estimator_from_config(spec) for spec in self._expert_specs]
        for estimator in estimators:
            if not hasattr(estimator, "start"):
                raise StreamError(
                    f"expert {estimator.name!r} cannot start from an empty "
                    "stream; use fit() or drop it from the pool"
                )
        for estimator in estimators:
            estimator.start(list(columns))
        self._pool.reset(estimators)
        self._buffer = np.empty((0, len(columns)))
        self._mark_fitted(columns, 0)
        return self

    def memory_bytes(self) -> int:
        self._require_fitted()
        expert_bytes = sum(
            e.estimator.memory_bytes() for e in self._pool.experts
        )
        pool_floats = 4 * len(self._pool.experts)
        return int(expert_bytes + pool_floats * FLOAT_BYTES + self._buffer.nbytes)

    # -- streaming maintenance -----------------------------------------------------
    def insert(self, rows: np.ndarray) -> None:
        """Fold a batch into every streaming-capable expert.

        Static experts keep their fitted state and drift out of date — the
        weight updates then shift mass to the experts that kept up.
        """
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            return
        if rows.shape[1] != len(self._columns):
            raise DimensionMismatchError(
                f"insert rows have {rows.shape[1]} attributes, expected "
                f"{len(self._columns)}"
            )
        streaming = [
            e.estimator
            for e in self._pool.experts
            if isinstance(e.estimator, StreamingEstimator)
        ]
        if not streaming:
            raise StreamError(
                "no expert in the pool is a streaming synopsis; rebuild with "
                "fit() instead"
            )
        for estimator in streaming:
            estimator.insert(rows)
        if self.buffer_rows:
            self._buffer = np.vstack([self._buffer, rows])[-self.buffer_rows :]
        self._row_count += rows.shape[0]

    def flush(self) -> None:
        """Flush every streaming expert's pending ingestion buffer."""
        for expert in self._pool.experts:
            if isinstance(expert.estimator, StreamingEstimator):
                expert.estimator.flush()

    # -- estimation ------------------------------------------------------------------
    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        plan = CompiledQueries(self._columns, lows, highs)
        estimates = np.stack(
            [e.estimator.estimate_batch(plan) for e in self._pool.experts]
        )
        weights = self._pool.weight_vector()
        total = weights.sum()
        if total <= 0.0:
            return estimates.mean(axis=0)
        return (weights[:, None] * estimates).sum(axis=0) / total

    # -- feedback ------------------------------------------------------------------
    def observe(
        self,
        queries: Sequence[RangeQuery] | CompiledQueries,
        true_fractions: Sequence[float] | np.ndarray,
    ) -> None:
        """Apply one feedback round of ``(query, true_selectivity)`` pairs.

        Each expert's loss is its mean relative error over the round (floored
        denominators, clipped at 1); the policy decays weights, and sustained
        ensemble error triggers the spawn/prune lifecycle.
        """
        self._require_fitted()
        plan = compile_queries(queries, self._columns)
        truths = np.asarray(true_fractions, dtype=float).reshape(-1)
        if truths.shape[0] != len(plan):
            raise InvalidParameterError(
                f"{truths.shape[0]} true selectivities for {len(plan)} queries"
            )
        if len(plan) == 0:
            return
        if np.any((truths < 0.0) | (truths > 1.0)):
            raise InvalidParameterError("true fractions must lie in [0, 1]")
        estimates = np.stack(
            [e.estimator.estimate_batch(plan) for e in self._pool.experts]
        )
        weights = self._pool.weight_vector()
        combined = (weights[:, None] * estimates).sum(axis=0) / max(
            weights.sum(), 1e-300
        )
        denom = np.maximum(truths, _LOSS_FLOOR)
        losses = np.clip(np.abs(estimates - truths[None, :]) / denom, 0.0, 1.0)
        ensemble_loss = float(
            np.clip(np.abs(combined - truths) / denom, 0.0, 1.0).mean()
        )
        should_spawn = self._pool.observe(losses.mean(axis=1), ensemble_loss)
        if should_spawn:
            self._spawn_expert()

    def feedback(self, query: RangeQuery, true_fraction: float) -> None:
        """One-observation sugar over :meth:`observe`."""
        if not 0.0 <= true_fraction <= 1.0:
            raise InvalidParameterError("true_fraction must lie in [0, 1]")
        self.observe([query], [true_fraction])

    def _spawn_expert(self) -> None:
        """Fit a fresh expert on the recent-row buffer and admit it."""
        spec = self._pool.next_spawn_spec(self._expert_specs)
        estimator = estimator_from_config(spec)
        if isinstance(estimator, StreamingEstimator) and hasattr(estimator, "start"):
            estimator.start(list(self._columns))
            if self._buffer.shape[0]:
                estimator.insert(self._buffer)
                estimator.flush()
        elif self._buffer.shape[0] >= _SPAWN_MIN_ROWS:
            from repro.engine.table import Table  # lazy: avoids a package cycle

            recent = Table(
                "ensemble::spawn",
                {
                    column: self._buffer[:, i].copy()
                    for i, column in enumerate(self._columns)
                },
            )
            estimator.fit(recent, list(self._columns))
        else:
            return  # not enough recent data to fit a static expert — skip
        self._pool.admit(estimator, spec)

    # -- configuration & persistence ---------------------------------------------------
    def _config_params(self) -> dict[str, Any]:
        return {
            "experts": [dict(spec) for spec in self._expert_specs],
            "policy": self._policy.config(),
            "beta": self._pool.beta,
            "gamma": self._pool.gamma,
            "max_experts": self._pool.max_experts,
            "spawn_threshold": self._pool.spawn_threshold,
            "spawn_cooldown": self._pool.spawn_cooldown,
            "prune": self._pool.prune,
            "buffer_rows": self.buffer_rows,
            "seed": self.seed,
        }

    def _state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Pool lifecycle plus every expert's snapshot, namespaced ``e{i}::``."""
        arrays: dict[str, np.ndarray] = {
            "weights": self._pool.weight_vector(),
            "born": np.array([e.born for e in self._pool.experts], dtype=np.int64),
            "rounds": np.array(
                [e.rounds for e in self._pool.experts], dtype=np.int64
            ),
            "loss_ewma": np.array(
                [e.loss_ewma for e in self._pool.experts], dtype=float
            ),
            "buffer": np.asarray(self._buffer, dtype=float),
        }
        expert_headers: list[dict[str, Any]] = []
        for i, expert in enumerate(self._pool.experts):
            state = expert.estimator.state_dict()
            for key, value in state.pop("arrays").items():
                arrays[f"e{i}::{key}"] = value
            expert_headers.append(state)
        meta = {"experts": expert_headers, "pool": self._pool.meta()}
        return arrays, meta

    def _restore_state(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        weights = np.asarray(arrays["weights"], dtype=float).reshape(-1)
        born = np.asarray(arrays["born"]).reshape(-1)
        rounds = np.asarray(arrays["rounds"]).reshape(-1)
        loss_ewma = np.asarray(arrays["loss_ewma"], dtype=float).reshape(-1)
        experts: list[WeightedExpert] = []
        for i, header in enumerate(meta["experts"]):
            prefix = f"e{i}::"
            expert_arrays = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            estimator = estimator_from_config(
                {"name": header["estimator"], **header.get("config", {})}
            )
            estimator.load_state({**header, "arrays": expert_arrays})
            expert = WeightedExpert(
                estimator, weight=float(weights[i]), born=int(born[i])
            )
            expert.rounds = int(rounds[i])
            expert.loss_ewma = float(loss_ewma[i])
            experts.append(expert)
        self._pool.experts = experts
        self._pool.load_meta(dict(meta["pool"]))
        dims = max(len(self._columns), 1)
        self._buffer = np.asarray(arrays["buffer"], dtype=float).reshape(-1, dims)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "fitted" if self._fitted else "unfitted"
        members = ", ".join(e.estimator.name for e in self._pool.experts)
        return f"EnsembleEstimator([{members}], {status})"
