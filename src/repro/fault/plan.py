"""Deterministic fault injection: seedable plans armed at named points.

Production code is sprinkled with *injection points* — cheap, inert-by-default
hooks named like metrics (``"persist.publish.write"``, ``"shard.task"``).
Two hook shapes cover the fault surface:

- :func:`inject` — control-flow faults: raise :class:`InjectedFault` at the
  point.
- :func:`mutate_bytes` — data faults: tear (truncate) or bit-flip a byte
  payload on its way to disk.

A :class:`FaultPlan` arms rules against those points.  Rules fire
deterministically: every call to a point bumps a per-point hit counter, and a
rule fires based on that counter (``at=``/``after=``/``every=``/``limit=``)
or on a draw from a per-point RNG seeded from ``(plan seed, point name)``
(``probability=``).  Replaying the same call sequence against the same plan
replays the same faults — no real process kills, no flakiness.

The default plan is the inert :data:`NULL_PLAN` (mirroring
``obs.metrics.NULL_REGISTRY``), held in a :class:`~repro.core.slot.Slot`:
unarmed code pays one slot read and a branch per point.  Arm a plan
process-wide with :func:`set_default_fault_plan` or for a scope with the
:func:`use_fault_plan` context manager.  Plans travel by reference through
``copy.deepcopy`` (copied estimators keep injecting into the same schedule).
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import InjectedFault, InvalidParameterError
from repro.core.slot import CopyByReference, Slot

__all__ = [
    "ACTIONS",
    "FaultPlan",
    "FaultRule",
    "NULL_PLAN",
    "NullFaultPlan",
    "RECOVERABLE_POINTS",
    "default_fault_plan",
    "inject",
    "mutate_bytes",
    "random_plan",
    "set_default_fault_plan",
    "use_fault_plan",
]

#: Supported rule actions.  ``raise`` applies at :func:`inject` points and
#: also fails :func:`mutate_bytes` writes; ``torn`` and ``bitflip`` apply at
#: :func:`mutate_bytes` points.
ACTIONS = ("raise", "torn", "bitflip")

#: Injection points that the hardened layers absorb *by design* (publish
#: verify-and-retry, executor transient retries).  A low-rate random plan
#: over these points — see :func:`random_plan` — can be armed under a full
#: test run without changing any test's outcome.
RECOVERABLE_POINTS = ("persist.publish.write", "shard.task")

#: Default action used by :func:`random_plan` for each recoverable point.
_RANDOM_ACTIONS = {"persist.publish.write": "bitflip", "shard.task": "raise"}


@dataclass
class FaultRule:
    """One armed fault: *where* it applies, *what* it does, *when* it fires.

    Scheduling fields compose: a rule fires on a given hit iff the hit index
    (1-based, per point) is listed in ``at`` (when non-empty), is past
    ``after``, lands on an ``every`` stride, survives a ``probability`` draw,
    and the rule has fired fewer than ``limit`` times.
    """

    pattern: str
    action: str = "raise"
    at: tuple[int, ...] = ()
    after: int = 0
    every: int = 1
    probability: float = 1.0
    limit: int | None = None
    fraction: float = 0.5  # torn: fraction of the payload kept
    flips: int = 1  # bitflip: number of bits flipped
    message: str = ""
    fired: int = field(default=0, compare=False)

    def matches(self, point: str) -> bool:
        return fnmatchcase(point, self.pattern)

    def _due(self, hit: int, rng: np.random.Generator) -> bool:
        """Whether this rule fires on hit number ``hit`` of its point.

        The probability draw is consumed only for probabilistic rules so that
        deterministic (``at=``/``every=``) rules never perturb the stream.
        """
        if self.limit is not None and self.fired >= self.limit:
            return False
        if self.at:
            return hit in self.at
        if hit <= self.after:
            return False
        if (hit - self.after - 1) % self.every != 0:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        return True


#: Keyword options :meth:`FaultPlan.arm` accepts — every ``FaultRule`` field
#: except the positionals and the ``fired`` bookkeeping counter.
_RULE_OPTIONS = frozenset(f.name for f in fields(FaultRule)) - {
    "pattern",
    "action",
    "fired",
}


class FaultPlan(CopyByReference):
    """A seedable schedule of faults armed against named injection points.

    Thread-safe: hit accounting and RNG draws are serialized, so concurrent
    callers (thread-backend shard workers, serving threads) see a consistent
    fault budget — though with ``probability`` rules the *assignment* of
    draws to threads follows scheduling order.  Counter-scheduled rules
    (``at=``, ``every=``) stay exactly reproducible under a fixed call
    sequence.
    """

    enabled = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: list[FaultRule] = []
        self.hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._lock = threading.Lock()

    def arm(self, pattern: str, action: str = "raise", **kwargs: object) -> FaultRule:
        """Arm a rule at ``pattern`` (exact point name or fnmatch glob).

        Options are validated *before* the rule is built: an unknown option,
        a malformed ``at``, or any out-of-range value raises
        :class:`~repro.core.errors.InvalidParameterError` (never a raw
        ``TypeError``) and nothing is armed.
        """
        if action not in ACTIONS:
            raise InvalidParameterError(
                f"unknown fault action {action!r}; expected one of {ACTIONS}"
            )
        unknown = set(kwargs) - _RULE_OPTIONS
        if unknown:
            raise InvalidParameterError(
                f"unknown fault rule option(s) {sorted(unknown)}; "
                f"expected any of {sorted(_RULE_OPTIONS)}"
            )
        if "at" in kwargs:
            kwargs["at"] = self._coerce_at(kwargs["at"])
        try:
            rule = FaultRule(pattern=pattern, action=action, **kwargs)  # type: ignore[arg-type]
        except (TypeError, ValueError) as error:
            raise InvalidParameterError(f"invalid fault rule options: {error}") from error
        if rule.every < 1:
            raise InvalidParameterError("every must be >= 1")
        if not 0.0 <= rule.probability <= 1.0:
            raise InvalidParameterError("probability must be in [0, 1]")
        if not 0.0 <= rule.fraction < 1.0:
            raise InvalidParameterError("fraction must be in [0, 1)")
        with self._lock:
            self.rules.append(rule)
        return rule

    @staticmethod
    def _coerce_at(value: object) -> tuple[int, ...]:
        """Normalise an ``at=`` option into a tuple of hit indices.

        Accepts a single hit number or any iterable of them, so
        ``arm(p, at=3)`` and ``arm(p, at=(3,))`` are equivalent.
        """
        if isinstance(value, (int, np.integer)):
            return (int(value),)
        try:
            return tuple(int(i) for i in value)  # type: ignore[union-attr]
        except (TypeError, ValueError) as error:
            raise InvalidParameterError(
                f"at must be a hit number or an iterable of hit numbers, "
                f"got {value!r}"
            ) from error

    def reset_counters(self) -> None:
        """Zero all hit/fire accounting (rules stay armed)."""
        with self._lock:
            self.hits.clear()
            self.fired.clear()
            self._rngs.clear()
            for rule in self.rules:
                rule.fired = 0

    # -- hit dispatch -----------------------------------------------------

    def _rng(self, point: str) -> np.random.Generator:
        rng = self._rngs.get(point)
        if rng is None:
            entropy = np.random.SeedSequence([self.seed, zlib.crc32(point.encode())])
            rng = self._rngs[point] = np.random.default_rng(entropy)
        return rng

    def _hit(self, point: str) -> FaultRule | None:
        """Count a hit at ``point`` and return the first rule that fires."""
        with self._lock:
            hit = self.hits.get(point, 0) + 1
            self.hits[point] = hit
            for rule in self.rules:
                if rule.matches(point) and rule._due(hit, self._rng(point)):
                    rule.fired += 1
                    self.fired[point] = self.fired.get(point, 0) + 1
                    return rule
        return None

    # -- the two hook shapes ---------------------------------------------

    def inject(self, point: str) -> None:
        """Control-flow hook: raise when an armed ``raise`` rule fires."""
        rule = self._hit(point)
        if rule is not None and rule.action == "raise":
            raise InjectedFault(point, rule.message)

    def mutate_bytes(self, point: str, data: bytes) -> bytes:
        """Data hook: tear, bit-flip, or fail a byte payload."""
        rule = self._hit(point)
        if rule is None or not data:
            return data
        if rule.action == "raise":
            raise InjectedFault(point, rule.message)
        if rule.action == "torn":
            return data[: max(1, int(len(data) * rule.fraction))]
        if rule.action == "bitflip":
            buf = bytearray(data)
            rng = self._rng(point)
            with self._lock:
                positions = rng.integers(0, len(buf) * 8, size=max(1, rule.flips))
            for pos in positions:
                buf[int(pos) // 8] ^= 1 << (int(pos) % 8)
            return bytes(buf)
        return data

    # -- introspection ----------------------------------------------------

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": dict(self.hits),
                "fired": dict(self.fired),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


class NullFaultPlan(FaultPlan):
    """The inert default: every hook is a no-op and ``arm`` is refused."""

    enabled = False

    def arm(self, pattern: str, action: str = "raise", **kwargs: object) -> FaultRule:
        raise InvalidParameterError(
            "cannot arm rules on the null fault plan; create a FaultPlan() and "
            "install it with set_default_fault_plan() or use_fault_plan()"
        )

    def inject(self, point: str) -> None:
        return None

    def mutate_bytes(self, point: str, data: bytes) -> bytes:
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullFaultPlan()"


#: Process-wide inert plan; shared, stateless, safe from any thread.
NULL_PLAN = NullFaultPlan()


_DEFAULT_PLAN: Slot[FaultPlan] = Slot(NULL_PLAN)


def default_fault_plan() -> FaultPlan:
    """Return the process-default fault plan (the inert plan unless armed)."""
    return _DEFAULT_PLAN.value


def set_default_fault_plan(plan: FaultPlan | None) -> FaultPlan:
    """Install ``plan`` as the process default; ``None`` restores inertness.

    Returns the previous default so callers can restore it.
    """
    return _DEFAULT_PLAN.set(plan)


@contextmanager
def use_fault_plan(plan: FaultPlan | None) -> Iterator[FaultPlan]:
    """Scope ``plan`` as the process default for a ``with`` block."""
    with _DEFAULT_PLAN.use(plan):
        yield _DEFAULT_PLAN.value


def inject(point: str) -> None:
    """Module-level hook: dispatch ``point`` against the default plan.

    Inert-by-default: when no plan is armed this is one slot read and a
    class-level flag check.
    """
    plan = _DEFAULT_PLAN.value
    if plan.enabled:
        plan.inject(point)


def mutate_bytes(point: str, data: bytes) -> bytes:
    plan = _DEFAULT_PLAN.value
    if plan.enabled:
        return plan.mutate_bytes(point, data)
    return data


def random_plan(
    rate: float,
    seed: int = 0,
    points: Sequence[str] = RECOVERABLE_POINTS,
) -> FaultPlan:
    """Low-rate random plan over points the library recovers from by design.

    Used by the CI fault-injection leg: arming this plan under the full
    persist/serve/shard suites must not change any test outcome, because
    every armed point sits behind a retry layer (publish verify-and-retry,
    executor transient retries).  Keep ``rate`` small: a fault must fire on
    *consecutive* retries of the same operation to escape, so the escape
    probability per operation is roughly ``rate ** (retries + 1)``.
    """
    plan = FaultPlan(seed=seed)
    for point in points:
        plan.arm(point, action=_RANDOM_ACTIONS.get(point, "raise"), probability=rate)
    return plan
