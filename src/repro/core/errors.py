"""Exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming mistakes such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """An estimator method that requires ``fit()`` was called before fitting."""


class DimensionMismatchError(ReproError):
    """A query or data batch does not match the estimator's attribute set."""


class InvalidQueryError(ReproError):
    """A query is malformed (e.g. lower bound above upper bound)."""


class InvalidParameterError(ReproError):
    """A constructor or method argument is outside its valid domain."""


class BudgetError(ReproError):
    """A space budget is too small to build the requested synopsis."""


class CatalogError(ReproError):
    """A table or column referenced in the catalog does not exist."""


class SchemaError(ReproError):
    """A typed-column operation does not match the table schema (unknown
    dictionary value, predicate kind not valid for the column kind, ...)."""


class StreamError(ReproError):
    """A streaming operation was used incorrectly (e.g. insert before fit)."""


class PersistenceError(ReproError):
    """A model snapshot or store operation failed (bad format, unknown model)."""


class SnapshotCorruptError(PersistenceError):
    """A snapshot file on disk is damaged (torn write, bit rot, truncation).

    Distinct from the plain :class:`PersistenceError` cases (wrong format
    version, foreign file): corruption means the bytes do not match what was
    written, so the store's recovery machinery (quarantine + rollback to the
    newest intact version) applies.  Carries the offending ``path`` and,
    when known, the ``version`` that failed.
    """

    def __init__(self, path: str, detail: str, version: "int | None" = None) -> None:
        at = f" (version {version})" if version is not None else ""
        super().__init__(f"corrupt snapshot {path}{at}: {detail}")
        self.path = str(path)
        self.version = version
        self.detail = detail


class InjectedFault(ReproError):
    """A fault fired by an armed :class:`repro.fault.FaultPlan` rule.

    The stand-in for transient infrastructure failures (a crashed shard
    worker, a failed write) in deterministic fault-injection tests; recovery
    layers treat it as transient and retriable.  Carries the injection
    ``point`` that fired.
    """

    def __init__(self, point: str, message: str = "") -> None:
        super().__init__(
            f"injected fault at {point!r}" + (f": {message}" if message else "")
        )
        self.point = point


class CircuitOpenError(ReproError):
    """A request was shed by an open serving circuit breaker.

    Raised only when the breaker is open (or the served model faulted) *and*
    neither a last-good cached result nor a fallback estimator could answer
    the plan.  Carries the breaker ``state`` at refusal time.
    """

    def __init__(self, state: str, message: str = "") -> None:
        super().__init__(
            f"circuit breaker {state}" + (f": {message}" if message else "")
        )
        self.state = state
