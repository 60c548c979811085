"""The three workloads, each a closed loop: one caller waits for every answer.

``point-plans``
    1-query plans drawn by Zipf from a pool of data-centred boxes, served by
    a 1024-kernel ``StreamingADE`` behind ``EstimatorServer(cache_size=256)``
    in the deployed configuration (metrics registry, ``tenant=`` label,
    circuit breaker).  Per-request dispatch dominates: compile, digest,
    cache, breaker and telemetry; the micro-kernel does little work.
``bulk-plans``
    500-query plans, all distinct (every request misses), of selective and
    wide boxes, behind an uninstrumented default server.  Fast-path culling
    and the micro-kernel do the work; cache and telemetry are bypassed.
``ingest-publish``
    A drifting stream written through ``JournaledIngest`` (fsynced journal,
    ``ModelStore`` checkpoints) into a 2-shard ``ShardedEstimator``, with
    16-query reads from a hot plan pool after every batch and a
    checkpoint-publish-swap every few batches; it ends with a simulated
    crash and timed ``JournaledIngest.recover`` calls.

Each runner returns a :class:`RunResult` of raw samples; :mod:`perfbench.metrics`
turns it into metrics.  Outputs are checked in every run: served answers
against the bare model on the dense reference path, and on
``ingest-publish`` the recovered model against the model before the crash.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Iterator

import numpy as np

from repro import (
    CircuitBreaker,
    CompiledQueries,
    EstimatorServer,
    IngestJournal,
    JournaledIngest,
    MetricsRegistry,
    ModelStore,
    RangeQuery,
    ShardedEstimator,
    StreamingADE,
    Table,
)
from repro.core.fastpath import fastpath_disabled, set_route_metrics
from repro.obs.metrics import use_default_metrics

from perfbench import inputs
from perfbench.reference import SpeedReference
from perfbench.stats import mismatches, q_errors
from perfbench.tracing import Tracer

#: Set-ups per run; the run reports their median and serves the last one.
SETUP_REPEATS = 3

#: Tenant label of every point-plans request.
TENANT = "optimizer"

#: A one-box plan whose estimate builds a fresh model's support index.
_PROBE = CompiledQueries(inputs.COLUMNS, [[0.0, 0.0]], [[1.0, 1.0]])


@dataclass(frozen=True)
class PointSizes:
    rows: int = 100_000
    kernels: int = 1024
    pool: int = 20_000
    width_share: float = 0.02
    zipf: float = 1.15
    cache_size: int = 256
    check_queries: int = 256
    setup_repeats: int = SETUP_REPEATS


@dataclass(frozen=True)
class BulkSizes:
    rows: int = 100_000
    kernels: int = 1024
    selective: int = 400
    wide: int = 100
    selective_share: float = 0.005
    wide_share: float = 0.6
    check_plans: int = 2
    setup_repeats: int = SETUP_REPEATS


@dataclass(frozen=True)
class IngestSizes:
    rows: int = 50_000
    kernels: int = 512
    shards: int = 2
    batch_rows: int = 2000
    reads_per_batch: int = 8
    plan_queries: int = 16
    width_share: float = 0.02
    # 256 plans keep the hit share near 0.3, so the request median sits among
    # the misses; with 32 it was 0.44 and the median sat in their fast tail,
    # where it moved with each seed's exact hit share.
    hot_plans: int = 256
    zipf: float = 1.15
    batches_per_publish: int = 2
    check_after: int = 40
    crash_batches: int = 3
    recoveries: int = 5
    drift_period: int = 50
    drift_amplitude: float = 0.3
    keep_versions: int = 4
    check_selective: int = 48
    check_wide: int = 16
    setup_repeats: int = 9  # a set-up takes ~0.35 s, so more of them steady the median


@dataclass
class RunResult:
    """Raw samples of one workload run (times in nanoseconds unless named).

    ``latency_ref`` holds each latency over the reference sample taken
    before it (:mod:`perfbench.reference`); ``wall_ns`` leaves out the time
    the reference kernel took.
    """

    workload: str
    setup_s: list[float] = field(default_factory=list)
    latency_ns: array = field(default_factory=lambda: array("q"))
    latency_ref: array = field(default_factory=lambda: array("d"))
    reference: SpeedReference = field(default_factory=SpeedReference)
    hit: bytearray = field(default_factory=bytearray)
    boxes: int = 0
    wall_ns: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    q_error: float = float("nan")
    culled_share: float = float("nan")
    server_stats: dict = field(default_factory=dict)
    breaker_trips: int | None = None
    # ingest-publish only
    ingest_rows: int = 0
    ingest_ns: int = 0
    publish_visible_ns: array = field(default_factory=lambda: array("q"))
    recovery_ns: array = field(default_factory=lambda: array("q"))
    snapshot_bytes: int = 0
    retry_registry: Any = None

    def fail(self, what: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {error!r}")

    def check(self, what: str, wrong: int, total: int) -> None:
        """Count ``total`` checked answers, ``wrong`` of them as failures."""
        self.attempted += total
        self.failed += wrong
        if wrong and len(self.errors) < 20:
            self.errors.append(f"{what}: {wrong} of {total} answers wrong")


@contextmanager
def _paused(tracer: Tracer | None) -> Iterator[None]:
    """Checks run outside the trace."""
    if tracer is None:
        yield
        return
    previous, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = previous


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name, request=True) if tracer is not None else nullcontext()


def _range_queries(lows: np.ndarray, highs: np.ndarray) -> list[RangeQuery]:
    names = inputs.COLUMNS
    return [
        RangeQuery({name: (low[d], high[d]) for d, name in enumerate(names)})
        for low, high in zip(lows.tolist(), highs.tolist())
    ]


def _serve(result: RunResult, call: Any, plan: Any, boxes: int, tracer: Tracer | None,
           **options: Any) -> tuple[Any, int] | None:
    """One timed request through ``call``: ``(answer, end_ns)``, or ``None`` when it failed.

    Whether it hit the cache is read from ``cache_info()`` outside the timed window.
    """
    server = call.__self__
    hits = server.cache_info().hits
    result.attempted += 1
    result.reference.poll()
    start = perf_counter_ns()
    try:
        if tracer is None:
            answer = call(plan, **options)
        else:
            with tracer.span("serve.request", request=True):
                answer = call(plan, **options)
    except Exception as error:  # noqa: BLE001 - a failed request is a measured outcome
        result.fail("estimate_batch", error)
        return None
    end = perf_counter_ns()
    result.latency_ns.append(end - start)
    result.latency_ref.append((end - start) / result.reference.current)
    result.hit.append(server.cache_info().hits != hits)
    result.boxes += boxes
    return answer, end


def _route_share(model: Any, plans: list[Any]) -> float:
    """Share of boxes the fast path answered on its culled route.

    Untraced runs only: a traced run reads the share from its own route
    counters, which this would replace.
    """
    registry = MetricsRegistry()
    set_route_metrics(registry)
    try:
        for plan in plans:
            model.estimate_batch(plan)
    finally:
        set_route_metrics(None)
    culled = registry.counter("fastpath.culled_queries").value
    dense = registry.counter("fastpath.dense_queries").value
    return culled / (culled + dense) if culled + dense else 0.0


def _check_answers(result: RunResult, what: str, served: np.ndarray, model: Any,
                   plan: CompiledQueries) -> None:
    """Served answers must match the bare model on the dense reference path."""
    with fastpath_disabled():
        reference = model.estimate_batch(plan)
    result.check(what, mismatches(served, reference), len(plan))


def _streaming_setup(result: RunResult, rows: np.ndarray, kernels: int, repeats: int,
                     **server_options: Any) -> EstimatorServer:
    """Fit, build the server and the first support index, ``repeats`` times."""
    for _ in range(repeats):
        server = model = None  # free the previous set-up before the next fit
        start = perf_counter()
        model = StreamingADE(max_kernels=kernels).fit(
            Table.from_array("relation", rows, inputs.COLUMNS)
        )
        server = EstimatorServer(model, **server_options)
        model.estimate_batch(_PROBE)
        result.setup_s.append(perf_counter() - start)
    return server


def _close_phase(result: RunResult, start: int, excluded: int = 0) -> None:
    """Wall time of the timed phase that began at ``start``, less the reference kernel's."""
    end = perf_counter_ns()
    result.reference.finish(end)
    result.wall_ns = end - start - excluded - result.reference.spent_ns


def run_point(seed: int, seconds: float, tracer: Tracer | None = None,
              sizes: PointSizes = PointSizes()) -> RunResult:
    result = RunResult("point-plans")
    data = inputs.table_rows(sizes.rows)
    lows, highs = inputs.point_pool(seed, data, sizes.pool, sizes.width_share)
    plans = [(query,) for query in _range_queries(lows, highs)]
    order = inputs.zipf_order(seed, sizes.pool, max(50_000, int(20_000 * seconds)), sizes.zipf)

    with _span(tracer, "setup"):
        server = _streaming_setup(
            result, data, sizes.kernels, sizes.setup_repeats,
            cache_size=sizes.cache_size, metrics=MetricsRegistry(), breaker=CircuitBreaker(),
        )

    call = server.estimate_batch
    i = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        served = _serve(result, call, plans[order[i % len(order)]], 1, tracer, tenant=TENANT)
        i += 1
        if (served[1] if served is not None else perf_counter_ns()) >= deadline:
            break
    _close_phase(result, start)
    result.server_stats = server.stats()
    result.breaker_trips = server.breaker.trips

    with _paused(tracer):
        sample = list(dict.fromkeys(order[: 50 * sizes.check_queries].tolist()))[: sizes.check_queries]
        served = np.array([
            server.estimate_batch(plans[index], tenant=TENANT)[0] for index in sample
        ])
        check = CompiledQueries(inputs.COLUMNS, lows[sample], highs[sample])
        _check_answers(result, "point answers vs dense model", served, server.model, check)
        truths = inputs.true_counts(data, lows[sample], highs[sample]) / sizes.rows
        result.q_error = float(np.mean(q_errors(served, truths)))
        if tracer is None:
            result.culled_share = _route_share(server.model, [plans[index] for index in sample])
    return result


def run_bulk(seed: int, seconds: float, tracer: Tracer | None = None,
             sizes: BulkSizes = BulkSizes()) -> RunResult:
    result = RunResult("bulk-plans")
    data = inputs.table_rows(sizes.rows)
    count = max(300, int(60 * seconds))
    plans = [
        CompiledQueries(inputs.COLUMNS, *inputs.bulk_plan(
            seed, index, data, sizes.selective, sizes.wide,
            sizes.selective_share, sizes.wide_share,
        ))
        for index in range(count)
    ]
    boxes = sizes.selective + sizes.wide

    with _span(tracer, "setup"):
        server = _streaming_setup(result, data, sizes.kernels, sizes.setup_repeats)

    call = server.estimate_batch
    i = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        served = _serve(result, call, plans[i % count], boxes, tracer)
        i += 1
        if (served[1] if served is not None else perf_counter_ns()) >= deadline:
            break
    _close_phase(result, start)
    result.server_stats = server.stats()

    with _paused(tracer):
        checked = plans[: sizes.check_plans]
        served = np.concatenate([server.estimate_batch(plan) for plan in checked])
        check = CompiledQueries(
            inputs.COLUMNS,
            np.vstack([plan.lows for plan in checked]),
            np.vstack([plan.highs for plan in checked]),
        )
        _check_answers(result, "bulk answers vs dense model", served, server.model, check)
        truths = inputs.true_counts(data, check.lows, check.highs) / sizes.rows
        result.q_error = float(np.mean(q_errors(served, truths)))
        if tracer is None:
            result.culled_share = _route_share(server.model, checked)
    return result


@dataclass
class _IngestState:
    work: Path
    ingest: JournaledIngest
    server: EstimatorServer


def _ingest_setup(result: RunResult, rows: np.ndarray, sizes: IngestSizes,
                  root: Path) -> _IngestState:
    """Fit the shards, checkpoint into a fresh store, build the server and its indexes."""
    state = None
    for _ in range(sizes.setup_repeats):
        if state is not None:
            state.ingest.close()
            shutil.rmtree(state.work, ignore_errors=True)
        work = Path(tempfile.mkdtemp(prefix="ingest-", dir=root))
        start = perf_counter()
        # The traced run counts executor retries in a registry its shard
        # executors capture at construction; the untraced run keeps the
        # process default (no telemetry).
        registry = result.retry_registry
        with use_default_metrics(registry) if registry is not None else nullcontext():
            model = ShardedEstimator(
                StreamingADE(max_kernels=sizes.kernels), shards=sizes.shards,
                partitioner="hash", max_workers=2,
            )
        model.fit(Table.from_array("relation", rows, inputs.COLUMNS))
        store = ModelStore(work / "store", keep_versions=sizes.keep_versions)
        ingest = JournaledIngest(model, IngestJournal(work / "journal.wal"), store, "relation")
        ingest.checkpoint()
        server = EstimatorServer(copy.deepcopy(model))
        server.model.estimate_batch(_PROBE)
        result.setup_s.append(perf_counter() - start)
        state = _IngestState(work, ingest, server)
    return state


def run_ingest(seed: int, seconds: float, tracer: Tracer | None = None,
               sizes: IngestSizes = IngestSizes(), root: Path | None = None) -> RunResult:
    result = RunResult("ingest-publish")
    if tracer is not None:
        result.retry_registry = MetricsRegistry()
    data = inputs.table_rows(sizes.rows)
    hot = [
        _range_queries(*bounds)
        for bounds in inputs.hot_plans(seed, data, sizes.hot_plans, sizes.plan_queries, sizes.width_share)
    ]
    order = inputs.zipf_order(seed, sizes.hot_plans, 100_000, sizes.zipf, stream=1).tolist()
    check_lows, check_highs = inputs.check_plan(seed, data, sizes.check_selective, sizes.check_wide)
    check = CompiledQueries(inputs.COLUMNS, check_lows, check_highs)
    root = Path(tempfile.mkdtemp(prefix="perfbench-", dir=root))
    try:
        with _span(tracer, "setup"):
            state = _ingest_setup(result, data, sizes, root)
        _ingest_loop(result, state, seed, seconds, tracer, sizes, data, hot, order, check)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def _ingest_loop(result: RunResult, state: _IngestState, seed: int, seconds: float,
                 tracer: Tracer | None, sizes: IngestSizes, data: np.ndarray,
                 hot: list, order: list, check: CompiledQueries) -> None:
    ingest, server = state.ingest, state.server
    call = server.estimate_batch_tagged
    # Rows are kept only until the accuracy check; afterwards only counted.
    kept = [data]
    acknowledged = len(data)
    batch = 0
    read = 0
    visible_from: tuple[int, int, int] | None = None  # publish start, generation, reference time
    last_version = None
    excluded = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        rows = inputs.stream_batch(
            seed, batch, sizes.batch_rows, sizes.drift_period, sizes.drift_amplitude
        )
        batch += 1
        result.attempted += 1
        result.reference.poll()
        began = perf_counter_ns()
        try:
            with _span(tracer, "ingest.insert"):
                ingest.insert(rows)
        except Exception as error:  # noqa: BLE001 - a failed write is a measured outcome
            result.fail("insert", error)
        else:
            result.ingest_ns += perf_counter_ns() - began
            result.ingest_rows += len(rows)
            acknowledged += len(rows)
            if batch <= sizes.check_after:
                kept.append(rows)

        if batch % sizes.batches_per_publish == 0:
            result.attempted += 1
            began = perf_counter_ns()
            try:
                with _span(tracer, "ingest.publish"):
                    last_version = ingest.checkpoint()
                    generation = server.publish(copy.deepcopy(ingest.estimator))
            except Exception as error:  # noqa: BLE001
                result.fail("publish", error)
            else:
                visible_from = (began, generation, result.reference.spent_ns)

        for _ in range(sizes.reads_per_batch):
            plan = hot[order[read % len(order)]]
            read += 1
            served = _serve(result, call, plan, len(plan), tracer)
            if served is not None and visible_from is not None and served[0][0] >= visible_from[1]:
                result.publish_visible_ns.append(
                    served[1] - visible_from[0] - (result.reference.spent_ns - visible_from[2])
                )
                visible_from = None

        if batch == sizes.check_after:
            began = perf_counter_ns()
            with _paused(tracer):
                _ingest_accuracy(result, server, check, np.vstack(kept))
            kept = None
            took = perf_counter_ns() - began
            excluded += took
            result.reference.exclude(took)
        if batch > sizes.check_after and visible_from is None and perf_counter_ns() >= deadline:
            break
    _close_phase(result, start, excluded)
    result.server_stats = server.stats()
    if last_version is not None:
        result.snapshot_bytes = last_version.path.stat().st_size

    with _paused(tracer):
        # The un-checkpointed batches start a fresh swing of the drift, so
        # the replay costs the same whatever the run's length.
        batch = -(-batch // sizes.drift_period) * sizes.drift_period
        for _ in range(sizes.crash_batches):
            rows = inputs.stream_batch(
                seed, batch, sizes.batch_rows, sizes.drift_period, sizes.drift_amplitude
            )
            batch += 1
            ingest.insert(rows)
            acknowledged += len(rows)
        before_crash = ingest.estimator.estimate_batch(check)
        ingest.close()  # the crash: the in-memory model is abandoned
        if tracer is None:
            result.culled_share = _route_share(server.model, hot[: min(8, len(hot))])
    for _ in range(sizes.recoveries):
        result.attempted += 1
        began = perf_counter_ns()
        try:
            with _span(tracer, "ingest.recover"):
                registry = result.retry_registry
                with use_default_metrics(registry) if registry is not None else nullcontext():
                    recovered = JournaledIngest.recover(
                        ingest.journal.path, ingest.store, ingest.name
                    )
        except Exception as error:  # noqa: BLE001
            result.fail("recover", error)
            continue
        result.recovery_ns.append(perf_counter_ns() - began)
        with _paused(tracer):
            answers = recovered.estimator.estimate_batch(check)
            result.check("recovered answers vs pre-crash model",
                         0 if np.array_equal(answers, before_crash) else len(check), len(check))
            result.check("recovered row_count vs rows acknowledged",
                         int(recovered.estimator.row_count != acknowledged), 1)
            recovered.close()


def _ingest_accuracy(result: RunResult, server: EstimatorServer, check: CompiledQueries,
                     rows: np.ndarray) -> None:
    """q-error and dense cross-check of the served model on the fixed check plan."""
    served = server.estimate_batch(check)
    _check_answers(result, "ingest answers vs dense model", served, server.model, check)
    truths = inputs.true_counts(rows, check.lows, check.highs) / rows.shape[0]
    result.q_error = float(np.mean(q_errors(served, truths)))


WORKLOADS = {
    "point-plans": run_point,
    "bulk-plans": run_bulk,
    "ingest-publish": run_ingest,
}
