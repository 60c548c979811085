"""Circuit breaker for the serving tier.

The classic three-state machine guarding a flaky dependency (here: the
served estimator, whose faults in production are torn model state, a lost
shard backend, or resource exhaustion):

- **closed** — normal serving; consecutive faults are counted and
  ``failure_threshold`` of them in a row *trips* the breaker.
- **open** — the model is not called at all; requests are answered from the
  degraded path (last-good cached results, a fallback estimator) or shed
  with :class:`~repro.core.errors.CircuitOpenError`.  After
  ``reset_timeout`` seconds the breaker *half-opens*.
- **half-open** — probe traffic is let through; ``probe_successes``
  consecutive successes close the breaker, any failure reopens it.

Time is explicit: every transition decision takes a ``now`` timestamp (the
server passes its request clock through; the traffic simulator and the
fault bench pass virtual time), and ``time.monotonic()`` is read only when a
caller passes none — so virtual-time callers drive the open→half-open
transition deterministically.  All methods are thread-safe.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import InvalidParameterError

__all__ = ["CircuitBreaker"]

#: Stable numeric encoding of breaker states for gauge export.
_STATE_CODES = {"closed": 0, "open": 1, "half_open": 2}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open probes.

    Parameters
    ----------
    failure_threshold:
        Consecutive model faults (while closed) that trip the breaker.
    reset_timeout:
        Seconds the breaker stays open before half-opening for probes.
    probe_successes:
        Consecutive successful probes (while half-open) that close it.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        probe_successes: int = 2,
    ) -> None:
        if failure_threshold < 1:
            raise InvalidParameterError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise InvalidParameterError("reset_timeout must be >= 0")
        if probe_successes < 1:
            raise InvalidParameterError("probe_successes must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.probe_successes = int(probe_successes)
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0  # consecutive, while closed
        self._probes_ok = 0  # consecutive, while half-open
        self._opened_at = 0.0
        self._trips = 0  # cumulative transitions into "open"

    # -- introspection ----------------------------------------------------

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (as last decided)."""
        return self._state

    @property
    def state_code(self) -> int:
        """Numeric state for gauge export (0 closed, 1 open, 2 half-open)."""
        return _STATE_CODES[self._state]

    @property
    def trips(self) -> int:
        """Cumulative number of transitions into the open state."""
        return self._trips

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "trips": self._trips,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "probe_successes": self.probe_successes,
            }

    # -- state machine ----------------------------------------------------

    def _now(self, now: float | None) -> float:
        return time.monotonic() if now is None else float(now)

    def before_call(self, now: float | None = None) -> str:
        """Gate one request: ``"attempt"`` (call the model) or ``"shed"``.

        While open, the elapsed ``reset_timeout`` transitions to half-open
        and admits the request as a probe.
        """
        with self._lock:
            if self._state == "open":
                if self._now(now) - self._opened_at >= self.reset_timeout:
                    self._state = "half_open"
                    self._probes_ok = 0
                else:
                    return "shed"
            return "attempt"

    def record_success(self, now: float | None = None) -> None:
        """A model call succeeded (closes after enough half-open probes)."""
        with self._lock:
            if self._state == "half_open":
                self._probes_ok += 1
                if self._probes_ok >= self.probe_successes:
                    self._state = "closed"
                    self._failures = 0
                    self._probes_ok = 0
            else:
                self._failures = 0

    def record_failure(self, now: float | None = None) -> None:
        """A model call faulted (trips when the consecutive budget is spent)."""
        with self._lock:
            if self._state == "half_open":
                self._open(now)
            elif self._state == "closed":
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._open(now)
            else:  # already open: a straggler in-flight failure
                self._opened_at = self._now(now)

    def _open(self, now: float | None) -> None:
        self._state = "open"
        self._opened_at = self._now(now)
        self._failures = 0
        self._probes_ok = 0
        self._trips += 1

    def reset(self) -> None:
        """Return to closed (a fresh model was published); keeps ``trips``."""
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probes_ok = 0
