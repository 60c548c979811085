"""Drift-adaptive expert-ensemble subsystem (AddExp-weighted estimator pool)."""

from repro.ensemble.ensemble import DEFAULT_EXPERTS, EnsembleEstimator
from repro.ensemble.experts import ExpertPool, WeightedExpert
from repro.ensemble.policy import (
    AddExpPolicy,
    PinnedPolicy,
    WeightPolicy,
    WindowedErrorPolicy,
    create_policy,
)

__all__ = [
    "EnsembleEstimator",
    "DEFAULT_EXPERTS",
    "ExpertPool",
    "WeightedExpert",
    "WeightPolicy",
    "AddExpPolicy",
    "WindowedErrorPolicy",
    "PinnedPolicy",
    "create_policy",
]
