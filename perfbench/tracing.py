"""Spans around calls into each layer, recorded from the benchmark's own code.

:func:`instrument` patches the public functions the workloads reach — module
attributes such as ``repro.serve.server.compile_queries`` (the name as the
serving module resolves it) and methods of the layer classes — with wrappers
that open a span, and restores every original on exit.  Nothing under
``src/`` is edited; an untraced run executes the original functions only.

A span records its name, start, end, parent and request id.  Spans stay in
memory (aggregates for every span, raw records up to :data:`RAW_SPAN_LIMIT`)
and are written out by :meth:`Tracer.write` when the run ends.  A span's
*self time* is its duration minus the union of its children's intervals;
worker-thread spans opened while a fan-out span is active (shard insert,
flush, estimate) become its children.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: Raw span records kept for the span file; aggregates cover every span.
RAW_SPAN_LIMIT = 50_000


class _Frame:
    __slots__ = ("sid", "name", "start", "parent", "children", "request")

    def __init__(self, sid: int, name: str, start: int, parent: "_Frame | None", request: int):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.children: list[tuple[int, int]] = []
        self.request = request


def _union_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    covered = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


class Tracer:
    """In-memory span recorder.

    ``durations`` and ``self_times`` hold nanoseconds per span name;
    ``under`` holds, per ``(span name, ancestor name)``, how many such spans
    ran below such an ancestor and their summed nanoseconds
    (``under[("persist.fsync", "persist.store.publish")]``); ``counters``
    holds the counts the wrappers take at the layer boundaries, and
    ``routes`` the fast-path route counters (``set_route_metrics``).
    """

    def __init__(self) -> None:
        self.active = False
        self.request = 0
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_times: dict[str, array] = defaultdict(lambda: array("q"))
        self.under: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.counters: Counter = Counter()
        self.routes = None
        self.raw: list[tuple] = []
        self.span_count = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout: _Frame | None = None

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Frame | None:
        stack = self._stack()
        return stack[-1] if stack else self._fanout

    def inside(self, name: str) -> bool:
        frame = self.current()
        while frame is not None:
            if frame.name == name:
                return True
            frame = frame.parent
        return False

    def open(self, name: str) -> _Frame:
        frame = _Frame(next(self._ids), name, 0, self.current(), self.request)
        self._stack().append(frame)
        frame.start = perf_counter_ns()
        return frame

    def close(self, frame: _Frame) -> None:
        end = perf_counter_ns()
        self._stack().pop()
        duration = end - frame.start
        own = duration - _union_ns(frame.children, frame.start, end)
        parent = frame.parent
        if parent is not None:
            parent.children.append((frame.start, end))
        with self._lock:
            self.durations[frame.name].append(duration)
            self.self_times[frame.name].append(own)
            ancestor = parent
            seen = set()
            while ancestor is not None:
                if ancestor.name not in seen:
                    seen.add(ancestor.name)
                    tally = self.under[(frame.name, ancestor.name)]
                    tally[0] += 1
                    tally[1] += duration
                ancestor = ancestor.parent
            self.span_count += 1
            if len(self.raw) < RAW_SPAN_LIMIT:
                self.raw.append(
                    (frame.sid, frame.name, frame.start, end,
                     parent.sid if parent is not None else None, frame.request)
                )

    @contextmanager
    def span(self, name: str, request: bool = False) -> Iterator[_Frame]:
        """A span from the benchmark's own code; ``request=True`` starts a new request id."""
        if request:
            self.request += 1
        frame = self.open(name)
        try:
            yield frame
        finally:
            self.close(frame)

    @contextmanager
    def fanout(self, frame: _Frame) -> Iterator[None]:
        """Adopt spans of worker threads as children of ``frame``."""
        previous, self._fanout = self._fanout, frame
        try:
            yield
        finally:
            self._fanout = previous

    def unaccounted_shares(self) -> dict[str, float]:
        """Per span name: self time over duration, summed over all its spans."""
        shares = {}
        for name, durations in self.durations.items():
            total = sum(durations)
            shares[name] = sum(self.self_times[name]) / total if total else 0.0
        return shares

    def write(self, path: str) -> None:
        """Write the raw spans as JSON lines (name, start/end ns, parent, request)."""
        with open(path, "w") as handle:
            for sid, name, start, end, parent, request in self.raw:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request,
                }) + "\n")


_MISSING = object()


def _traced(tracer: Tracer, name: str, fn: Callable, *, fanout: bool = False,
            skip_inside: str | None = None, before: Callable | None = None,
            after: Callable | None = None) -> Callable:
    """``fn`` wrapped in a span; ``before``/``after`` run outside the span."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active or (skip_inside is not None and tracer.inside(skip_inside)):
            return fn(*args, **kwargs)
        token = before(*args, **kwargs) if before is not None else None
        frame = tracer.open(name)
        try:
            if fanout:
                with tracer.fanout(frame):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(token, result, *args, **kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the layer boundaries with span wrappers for the duration of the block."""
    from repro import MetricsRegistry
    from repro.core import fastpath
    from repro.core.estimator import SelectivityEstimator
    from repro.core.streaming import StreamingADE
    from repro.persist import store as store_module
    from repro.persist.journal import IngestJournal
    from repro.persist.store import ModelStore
    from repro.serve import server as server_module
    from repro.serve.server import EstimatorServer
    from repro.shard.sharded import ShardedEstimator

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, value: Any) -> None:
        patches.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def count(key: str, amount: float = 1) -> None:
        tracer.counters[key] += amount

    try:
        # workload: plan compilation, as the serving layer resolves it.
        patch(server_module, "compile_queries",
              _traced(tracer, "workload.compile", server_module.compile_queries))

        # serve: publish (requests are spans of the benchmark's own loop).
        patch(EstimatorServer, "publish",
              _traced(tracer, "serve.publish", EstimatorServer.publish))

        # core: the model's estimate_batch, per miss; sharded estimates fan out.
        patch(StreamingADE, "estimate_batch",
              _traced(tracer, "core.estimate", SelectivityEstimator.estimate_batch))
        patch(ShardedEstimator, "estimate_batch",
              _traced(tracer, "core.estimate", SelectivityEstimator.estimate_batch, fanout=True))

        # core.fastpath: routing, the micro-kernel and the support index.
        patch(fastpath, "estimate_boxes",
              _traced(tracer, "core.fastpath.route", fastpath.estimate_boxes))
        patch(fastpath, "weighted_box_masses",
              _traced(tracer, "core.fastpath.microkernel", fastpath.weighted_box_masses,
                      after=lambda _t, _r, lows, *a, **k: count("microkernel.boxes", lows.shape[0])))
        original_index = fastpath.KernelSupportIndex

        class TracedKernelSupportIndex(original_index):
            __slots__ = ()

            def __init__(self, centers: Any, radii: Any) -> None:
                if not tracer.active:
                    super().__init__(centers, radii)
                    return
                frame = tracer.open("core.fastpath.index_build")
                try:
                    super().__init__(centers, radii)
                finally:
                    tracer.close(frame)

            def box_candidates(self, low: Any, high: Any) -> Any:
                ids = super().box_candidates(low, high)
                if tracer.active and self.kernel_count:
                    count("cull.groups")
                    count("cull.candidate_share", ids.size / self.kernel_count)
                return ids

        patch(fastpath, "KernelSupportIndex", TracedKernelSupportIndex)

        # core.streaming: ingest and maintenance flushes (not the read path's no-op flush).
        patch(StreamingADE, "insert",
              _traced(tracer, "core.streaming.insert", StreamingADE.insert,
                      after=lambda _t, _r, _self, rows, *a, **k: count("streaming.rows", len(rows))))
        patch(StreamingADE, "flush",
              _traced(tracer, "core.streaming.flush", StreamingADE.flush, skip_inside="core.estimate"))

        # shard: routing plus executor dispatch around the per-shard work.
        patch(ShardedEstimator, "insert",
              _traced(tracer, "shard.insert", ShardedEstimator.insert, fanout=True))
        patch(ShardedEstimator, "flush",
              _traced(tracer, "shard.flush", ShardedEstimator.flush, fanout=True,
                      skip_inside="core.estimate"))

        # persist: journal, snapshot (as the store resolves it), store.
        def journal_size(journal: Any, *args: Any, **kwargs: Any) -> int:
            try:
                return os.path.getsize(journal.path)
            except OSError:
                return 0

        def journal_growth(size: int, _result: Any, journal: Any, rows: Any) -> None:
            count("journal.bytes", journal_size(journal) - size)
            count("journal.rows", len(rows))

        patch(IngestJournal, "append_rows",
              _traced(tracer, "persist.journal.append", IngestJournal.append_rows,
                      before=journal_size, after=journal_growth))
        replay = IngestJournal.__dict__["replay"]
        patch(IngestJournal, "replay",
              classmethod(_traced(tracer, "persist.journal.replay", replay.__func__)))
        patch(store_module, "save_estimator",
              _traced(tracer, "persist.snapshot.serialize", store_module.save_estimator))
        patch(store_module, "verify_snapshot",
              _traced(tracer, "persist.snapshot.verify", store_module.verify_snapshot))
        patch(ModelStore, "publish",
              _traced(tracer, "persist.store.publish", ModelStore.publish))
        patch(ModelStore, "load_latest",
              _traced(tracer, "persist.store.load", ModelStore.load_latest))
        patch(os, "fsync", _traced(tracer, "persist.fsync", os.fsync))

        tracer.routes = MetricsRegistry()
        fastpath.set_route_metrics(tracer.routes)
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        fastpath.set_route_metrics(None)
        for owner, attribute, original in reversed(patches):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
