"""Uniform resolution of pluggable-component specifications.

Named components across the repo — estimators and the ensemble's weighting
policies — accept a spec given as any of

* a component **instance**,
* a **name** string (``"kde"``, ``"addexp"``),
* a ``{"name": ..., **params}`` **config mapping** — which is how snapshot
  and describe round-trips reconstruct nested wrappers through
  ``*_from_config`` factories.

:func:`resolve_component` is the one shared implementation of that
convention.  It has two bindings: :func:`resolve_estimator` binds it to the
estimator registry (used by the feedback wrapper, the sharded front end, and
the expert ensemble, so arbitrarily nested wrapper configs round-trip
uniformly), and :func:`repro.ensemble.policy.create_policy` binds it to the
three weighting policies.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, TypeVar

from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    SelectivityEstimator,
    create_estimator,
    estimator_from_config,
)

__all__ = ["resolve_component", "resolve_estimator"]

T = TypeVar("T")


def resolve_component(
    spec: "T | Mapping[str, Any] | str | None",
    *,
    base_type: type,
    create: Callable[[str], T],
    from_config: Callable[[Mapping[str, Any]], T],
    default: Callable[[], T] | None = None,
    what: str = "component",
    kind: str = "component",
) -> T:
    """Resolve a component spec (instance / registry name / config mapping).

    ``base_type`` is the instance type accepted as-is, ``create`` builds from
    a registry name, ``from_config`` from a ``{"name": ..., **params}``
    mapping.  ``default`` is a zero-argument factory used when ``spec`` is
    ``None``; without one, ``None`` is rejected.  ``what`` names the
    parameter and ``kind`` the component family in error messages.
    """
    if spec is None:
        if default is None:
            raise InvalidParameterError(f"{what} specification is required")
        return default()
    if isinstance(spec, base_type):
        return spec
    if isinstance(spec, str):
        return create(spec)
    if isinstance(spec, Mapping):
        return from_config(spec)
    raise InvalidParameterError(
        f"{what} must be {'an' if kind[0] in 'aeiou' else 'a'} {kind} instance, "
        f"registry name or config mapping, got {type(spec).__name__}"
    )


def resolve_estimator(
    spec: "SelectivityEstimator | Mapping[str, Any] | str | None",
    default: Callable[[], SelectivityEstimator] | None = None,
    *,
    what: str = "estimator",
) -> SelectivityEstimator:
    """Resolve an estimator spec (instance / registry name / config mapping).

    ``default`` is a zero-argument factory used when ``spec`` is ``None``;
    without one, ``None`` is rejected.  ``what`` names the parameter in error
    messages (``"base"``, ``"expert"``, ...).
    """
    return resolve_component(
        spec,
        base_type=SelectivityEstimator,
        create=create_estimator,
        from_config=estimator_from_config,
        default=default,
        what=what,
        kind="estimator",
    )
