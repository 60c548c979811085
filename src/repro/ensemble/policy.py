"""Weighting policies for the expert ensemble.

A policy turns one round of observed per-expert losses into new expert
weights.  The policies are *stateless* — the error history they consult
(per-expert loss EWMAs) lives on the :class:`~repro.ensemble.experts.WeightedExpert`
records, so a policy survives snapshot round-trips for free.

Three policies ship with the library:

``"addexp"``
    Kolter & Maloof's AddExp update: each expert's weight is multiplied by
    ``beta ** loss`` per round, so persistent error decays a weight
    geometrically while an accurate expert keeps its mass.  This is the
    policy with the known mistake bound (it requires ``beta + 2*gamma < 1``
    relative to the spawn fraction ``gamma``).
``"windowed"``
    Weights proportional to the inverse of each expert's exponentially
    windowed mean loss — a smoother, loss-magnitude-aware alternative that
    forgets old mistakes at the window rate.
``"pinned"``
    A static baseline that never moves weights: the ensemble collapses to a
    fixed uniform (or hand-set) mixture, useful as the control arm in drift
    experiments.

:func:`create_policy` resolves a policy spec — instance, name or
``{"name": ..., **params}`` mapping — through
:func:`repro.core.resolve.resolve_component`, the convention estimators use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.resolve import resolve_component

if TYPE_CHECKING:  # imported for type annotations only
    from repro.ensemble.experts import WeightedExpert

__all__ = [
    "WeightPolicy",
    "AddExpPolicy",
    "WindowedErrorPolicy",
    "PinnedPolicy",
    "create_policy",
]


class WeightPolicy:
    """Base class: maps one round of losses to updated expert weights."""

    name = "policy"

    def update(
        self, experts: Sequence["WeightedExpert"], losses: np.ndarray, beta: float
    ) -> np.ndarray:
        """New (unnormalised) weights given this round's per-expert losses."""
        raise NotImplementedError

    def config(self) -> dict:
        """Reconstruction recipe (mirrors the estimator convention)."""
        return {"name": self.name}


class AddExpPolicy(WeightPolicy):
    """Multiplicative AddExp update: ``w_i *= beta ** loss_i``.

    ``share`` adds the fixed-share mixing step of Herbster & Warmuth: after
    the multiplicative decay, every expert receives ``share / n`` of the
    total mass back.  With ``share = 0`` (the default, plain AddExp) a
    long-dominant expert drives the others' weights to the floor and the
    ensemble degenerates to its single best member; a small positive share
    keeps each expert warm enough to take over within a few rounds when the
    drift phase changes — the switching-regret fix the mixed-drift benchmark
    relies on.
    """

    name = "addexp"

    def __init__(self, share: float = 0.0) -> None:
        if not 0.0 <= share < 1.0:
            raise InvalidParameterError("share must lie in [0, 1)")
        self.share = float(share)

    def update(self, experts, losses, beta) -> np.ndarray:
        weights = np.array([e.weight for e in experts], dtype=float)
        updated = weights * np.power(beta, np.clip(losses, 0.0, 1.0))
        if self.share > 0.0 and len(updated):
            updated = (1.0 - self.share) * updated + self.share * (
                updated.sum() / len(updated)
            )
        return updated

    def config(self) -> dict:
        return {"name": self.name, "share": self.share}


class WindowedErrorPolicy(WeightPolicy):
    """Weights inversely proportional to the windowed mean loss."""

    name = "windowed"

    def update(self, experts, losses, beta) -> np.ndarray:
        # ``loss_ewma`` is maintained by the pool before the policy runs, so
        # the window already reflects this round.
        ewma = np.array([e.loss_ewma for e in experts], dtype=float)
        return 1.0 / (ewma + 1e-3)


class PinnedPolicy(WeightPolicy):
    """Static control arm: weights never move."""

    name = "pinned"

    def update(self, experts, losses, beta) -> np.ndarray:
        return np.array([e.weight for e in experts], dtype=float)


_POLICIES: dict[str, type[WeightPolicy]] = {
    "addexp": AddExpPolicy,
    "windowed": WindowedErrorPolicy,
    "pinned": PinnedPolicy,
}


def _policy_from_config(config: Mapping) -> WeightPolicy:
    options = dict(config)
    name = options.pop("name", None)
    if not isinstance(name, str) or name not in _POLICIES:
        raise InvalidParameterError(
            f"unknown policy {name!r}; available: {sorted(_POLICIES)}"
        )
    return _POLICIES[name](**options)


def create_policy(spec: "str | Mapping | WeightPolicy") -> WeightPolicy:
    """Instantiate a policy from a name or ``{"name": ..., **kwargs}`` mapping.

    Instances pass through unchanged, so callers can hand-construct a policy
    with non-default parameters; mappings are what :meth:`WeightPolicy.config`
    emits, so ensemble configs round-trip policy parameters faithfully.
    """
    return resolve_component(
        spec,
        base_type=WeightPolicy,
        create=lambda name: _policy_from_config({"name": name}),
        from_config=_policy_from_config,
        what="policy",
        kind="policy",
    )
