"""Parallel execution layer for per-shard work.

A :class:`ShardExecutor` runs one task per shard — fit, bulk insert,
``estimate_batch`` — through the ``shard.task`` fault point, the transient
retries and the per-task telemetry, on a thread pool, and runs serially when
a pool is not worth spinning up (one shard, one worker).

Backends:

* ``"thread"`` (default) — threads overlap only where the tasks spend their
  time in numpy and scipy kernels that release the GIL.  On a 2-vCPU VM
  (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, BLAS on one thread), a
  4,000-box weighted estimate on a 2-shard ``kde`` took 0.95–1.63 s on
  threads against 1.75–1.99 s serially, and a 2-shard ``adaptive_kde`` fit
  with ``lscv`` bandwidths took about 0.21 s against 0.45 s once the process
  had warmed up.  The streaming fold holds the GIL for most of its time, so
  two folding threads mostly hand it back and forth: 200 inserts of 2,000
  rows into a 2-shard, 512-kernel ``streaming_ade`` took 1.37–1.83 s of
  wall time and 1.66–2.51 s of CPU, with 24,673–50,055 voluntary context
  switches, on two threads, against 1.11–1.38 s, 1.11–1.37 s and none
  serially.  :class:`~repro.shard.sharded.ShardedEstimator` therefore runs
  its ``insert`` and ``flush`` on a serial executor.
* ``"serial"`` — no pool at all; the deterministic reference path.

Results preserve task order regardless of completion order, and a task
that still fails after its retries propagates to the caller (see
:class:`ShardExecutor` for which other tasks run first).

Fault tolerance: tasks that fail with a *transient* error (an injected
fault, a timeout, a dropped connection) are retried in place with
exponential backoff (``retries`` attempts, ``shard.task_retries`` counter).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import InjectedFault, InvalidParameterError
from repro.fault.plan import inject
from repro.obs.metrics import default_metrics

__all__ = ["ShardExecutor", "BACKENDS", "TRANSIENT_ERRORS"]

BACKENDS = ("serial", "thread")

#: Exception types retried as transient worker failures.  ``InjectedFault``
#: is the deterministic stand-in used by fault-injection tests; the rest are
#: the usual flaky-infrastructure suspects.
TRANSIENT_ERRORS = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    InterruptedError,
)


class ShardExecutor:
    """Maps a function over per-shard tasks, in parallel where possible.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"thread"`` (see module docstring).  ``None`` means
        ``"serial"``.
    max_workers:
        Pool width; defaults to ``min(tasks, cpu_count)`` at call time.
    retries:
        Extra attempts per task when it fails with one of
        :data:`TRANSIENT_ERRORS`, with exponential backoff starting at
        ``retry_backoff`` seconds.  ``0`` disables.
    retry_backoff:
        First-retry sleep in seconds; attempt ``k`` sleeps
        ``retry_backoff * 2**(k-1)``.

    Telemetry goes to the process-default registry captured at construction
    (:func:`repro.obs.metrics.default_metrics`).  When it is enabled, every
    :meth:`map` records its wall-clock span (``shard.map_seconds``) and each
    task's span (``shard.task_seconds``), labelled with the caller-supplied
    ``op``; transient retries bump ``shard.task_retries``.

    A task that still fails after its retries ends a serial :meth:`map` at
    that task: the tasks after it never run.  On the pool, every other
    task runs to completion before the error propagates (the pool is
    drained, never abandoned mid-flight).
    """

    def __init__(
        self,
        backend: str | None = "thread",
        max_workers: int | None = None,
        retries: int = 2,
        retry_backoff: float = 0.01,
    ) -> None:
        backend = backend or "serial"
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown parallel backend {backend!r}; available: {list(BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError("max_workers must be positive")
        if retries < 0:
            raise InvalidParameterError("retries must be >= 0")
        if retry_backoff < 0:
            raise InvalidParameterError("retry_backoff must be >= 0")
        self.backend = backend
        self.max_workers = max_workers
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.metrics = default_metrics()

    def _run_task(self, fn: Callable[..., Any], args: tuple) -> Any:
        """One task with the ``shard.task`` injection point and retries."""
        attempt = 0
        while True:
            try:
                inject("shard.task")
                return fn(*args)
            except TRANSIENT_ERRORS:
                if attempt >= self.retries:
                    raise
                attempt += 1
                self.metrics.counter("shard.task_retries").inc()
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def map(
        self, fn: Callable[..., Any], *iterables: Iterable[Any], op: str | None = None
    ) -> list[Any]:
        """Apply ``fn`` across zipped task arguments, preserving order.

        Equivalent to ``[fn(*args) for args in zip(*iterables)]`` with the
        work spread over the pool; runs exactly that loop when no pool is
        worth it.  ``op`` labels the per-task telemetry series (``"fit"``,
        ``"insert"``, ``"estimate"``, ...).
        """
        tasks: Sequence[tuple] = list(zip(*iterables))
        if not tasks:
            return []
        instrumented = self.metrics.enabled
        if instrumented:
            map_start = perf_counter()
            task_seconds = self.metrics.histogram(
                "shard.task_seconds", **({"op": op} if op else {})
            )
            inner = fn

            def fn(*args: Any) -> Any:
                task_start = perf_counter()
                try:
                    return inner(*args)
                finally:
                    task_seconds.record(perf_counter() - task_start)

        try:
            workers = self.max_workers or min(len(tasks), os.cpu_count() or 1)
            if self.backend == "serial" or workers < 2 or len(tasks) < 2:
                return [self._run_task(fn, args) for args in tasks]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(lambda args: self._run_task(fn, args), tasks))
        finally:
            if instrumented:
                self.metrics.histogram(
                    "shard.map_seconds", **({"op": op} if op else {})
                ).record(perf_counter() - map_start)
