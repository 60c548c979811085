"""Quickstart: compile a workload once, estimate selectivities in bulk.

Run with::

    python examples/quickstart.py

The script builds a small synthetic relation, fits the adaptive KDE and the
streaming ADE synopses plus two classical baselines, then *compiles* a
workload of range queries into a :class:`~repro.workload.queries.CompiledQueries`
plan and answers it through the batch-first API: one ``estimate_batch`` call
per estimator, one vectorized ``true_selectivities`` scan for ground truth.
A final section shows the ingestion half of the same story: the streaming
synopsis swallows an insert stream through the chunked bulk path at a rate a
per-tuple loop cannot approach — and the model it builds is then *persisted*
to a versioned on-disk store and served back through an
:class:`~repro.serve.EstimatorServer`, so the synopsis survives the process
that built it (see ``examples/persistence_serving.py`` for the full
save → restart → restore → serve walkthrough).  The closing section shards
the relation: a :class:`~repro.shard.sharded.ShardedEstimator` fits one
synopsis per hash partition in parallel, answers the same compiled plan
(bitwise-equal to the monolithic histogram — the histogram family merges
shard states exactly), and refreshes a single shard without touching the
others.  The last section serves several synopses as *one* estimator: a
drift-adaptive :class:`~repro.ensemble.EnsembleEstimator` combines a
weighted pool of experts and reweights them from query feedback
(``examples/ensemble_drift.py`` is the full drifting-stream walkthrough).
The next section moves beyond pure numeric data: a schema-declared table
with dictionary-encoded categorical and string columns answers typed
predicates (IN sets, string prefixes) through the very same numeric
synopses, by lowering each typed query onto disjoint code-range boxes.
The closing section turns telemetry on: an instrumented
:class:`~repro.serve.EstimatorServer` records per-request latency
histograms and cache counters into a
:class:`~repro.obs.metrics.MetricsRegistry` (off by default — the
uninstrumented hot path pays a single branch), and the snapshot is exported
to JSON through the exporter its file suffix picks
(``examples/telemetry_traffic.py`` is the full multi-tenant traffic
walkthrough).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import (
    AdaptiveKDEEstimator,
    Catalog,
    EnsembleEstimator,
    EquiDepthHistogram,
    EstimatorServer,
    Interval,
    MetricsRegistry,
    ModelStore,
    SamplingEstimator,
    SetMembership,
    ShardedEstimator,
    StreamingADE,
    StringPrefix,
    TypedQuery,
    TypedWorkload,
    UniformWorkload,
    compile_queries,
    evaluate_estimator,
    exporter_for_path,
    gaussian_mixture_table,
    mixed_type_table,
    render_table,
    sudden_drift_stream,
)


def main() -> None:
    # 1. A relation: 50k rows, two correlated, multimodal numeric attributes.
    table = gaussian_mixture_table(
        rows=50_000, dimensions=2, components=4, separation=4.0, seed=7, name="orders"
    )
    print(f"relation {table.name!r}: {table.row_count} rows, columns {list(table.column_names)}")

    # 2. A workload of 2000 conjunctive range queries, compiled once into a
    #    (lows, highs) bound-matrix plan aligned with the table's columns.
    workload = UniformWorkload(table, volume_fraction=0.15, seed=11).generate(2000)
    plan = compile_queries(workload, table.column_names)
    truths = table.true_selectivities(plan)
    print(f"compiled plan: {len(plan)} queries over {list(plan.columns)}")
    print(f"  exact selectivity of the first query: {truths[0]:.4f}")

    # 3. Fit the synopses (each estimator sees the same relation) and answer
    #    the whole compiled workload with a single estimate_batch call each.
    estimators = {
        "adaptive KDE (ADE)": AdaptiveKDEEstimator(sample_size=512, bandwidth_rule="lscv"),
        "streaming ADE": StreamingADE(max_kernels=256),
        "equi-depth histogram": EquiDepthHistogram(buckets=64),
        "random sample": SamplingEstimator(sample_size=512),
    }
    rows = []
    for name, estimator in estimators.items():
        estimator.fit(table)
        estimates = estimator.estimate_batch(plan)
        print(f"  {name}: estimate for the first query = {estimates[0]:.4f}")
        result = evaluate_estimator(table, estimator, plan, name=name)
        summaries = result.summaries()
        rows.append(
            [
                name,
                summaries["relative"].mean,
                summaries["q"].mean,
                result.queries_per_second,
                result.memory_bytes,
            ]
        )

    # 4. Accuracy and throughput summary over the whole workload.
    #    Kernel-family estimators answer batches through the support-culling
    #    query fast path by default: kernels whose support cannot overlap a
    #    query box are skipped via a per-dimension sorted index, matching the
    #    dense path to <=1e-12.  Pass fastpath=False to any of them (e.g.
    #    ``StreamingADE(max_kernels=256, fastpath=False)``) — or wrap calls
    #    in ``repro.fastpath_disabled()`` — to pin the dense reference path
    #    when debugging estimate-level differences.
    print()
    print(
        render_table(
            ["estimator", "rel_err_mean", "q_err_mean", "queries_per_sec", "bytes"],
            rows,
            title="Workload accuracy and throughput (2000 compiled range queries)",
        )
    )

    # 5. Streaming ingestion: the same synopsis maintained online over an
    #    insert stream.  insert() accepts batches of any size and folds them
    #    in chunked, vectorized maintenance steps — the model it builds does
    #    not depend on how the stream was sliced into insert() calls, and a
    #    stale mode is forgotten via exponential decay.  Any buffered tail is
    #    applied automatically before the first estimate (or by flush()).
    stream = sudden_drift_stream(
        dimensions=2, batch_size=1000, batches=50, drift_at=(0.5,), shift=8.0, seed=3
    )
    synopsis = StreamingADE(max_kernels=256, decay=1 - 1e-4)
    synopsis.start(stream.column_names)
    started = time.perf_counter()
    for batch in stream:
        synopsis.insert(batch)
    synopsis.flush()
    elapsed = time.perf_counter() - started
    print()
    print(
        f"streamed {stream.total_rows} drifting tuples through the synopsis in "
        f"{elapsed:.2f}s ({stream.total_rows / elapsed:,.0f} rows/s), "
        f"{synopsis.kernel_count} kernels, {synopsis.memory_bytes()} bytes"
    )

    # 6. Persistence & serving: publish the streamed synopsis into a
    #    versioned model store (atomic write-then-rename, LATEST pointer),
    #    load it back — the round-trip reproduces estimates bitwise — and
    #    serve it through a cached, swap-capable front end.
    with tempfile.TemporaryDirectory() as root:
        store = ModelStore(Path(root) / "models")
        version = store.publish("orders.streaming_ade", synopsis)
        restored = store.load("orders.streaming_ade")
        server = EstimatorServer(restored, cache_size=64)
        first = server.estimate_batch(plan)   # cold: computed by the model
        server.estimate_batch(plan)           # warm: answered from the cache
        info = server.cache_info()
        print(
            f"published v{version.version} to the model store, restored and served "
            f"{len(plan)} queries (cache hit rate {info.hit_rate:.0%}, "
            f"generation {info.generation}); first estimate {first[0]:.4f}"
        )

    # 7. Sharding: partition the relation and the synopsis.  The sharded
    #    front end is itself an estimator — fit routes one base-synopsis
    #    clone per partition (fitted in parallel), estimate_batch reduces
    #    per-shard answers (bitwise-equal to the monolithic histogram here,
    #    because the histogram family merges its shard states exactly), and
    #    one shard can be refreshed without rebuilding the rest.
    monolithic = EquiDepthHistogram(buckets=64).fit(table)
    sharded = ShardedEstimator(
        EquiDepthHistogram(buckets=64), shards=4, partitioner="hash"
    ).fit(table)
    agree = bool((sharded.estimate_batch(plan) == monolithic.estimate_batch(plan)).all())
    print()
    print(
        f"sharded equi-depth synopsis: {sharded.shard_count} shards of "
        f"{sharded.shard_row_counts().tolist()} rows, estimates bitwise-equal "
        f"to the monolithic fit: {agree}"
    )
    table.append_matrix(table.as_matrix()[:1_000])  # new rows arrive ...
    sharded.refit_shard(2, table)                   # ... refresh one shard only
    print(f"refreshed shard 2 only; synopsis now models {sharded.row_count} rows")

    # 8. The ensemble: several registry synopses served as one estimator.
    #    estimate_batch is the weight-normalised convex combination of every
    #    expert's answer; observe() feeds true selectivities back and the
    #    AddExp policy shifts weight onto whichever expert the workload (and,
    #    on a stream, the current drift phase) favours.  See
    #    examples/ensemble_drift.py for the spawn/prune lifecycle in action.
    ensemble = EnsembleEstimator(
        experts=[
            {"name": "kde", "sample_size": 512, "seed": 1},
            {"name": "equidepth", "buckets": 64},
            {"name": "reservoir_sampling", "sample_size": 512, "seed": 2},
        ],
        seed=0,
    ).fit(table)
    print()
    before = evaluate_estimator(table, ensemble, plan).mean_relative_error()
    print(f"ensemble weights before feedback: {ensemble.weights.round(3).tolist()}")
    for _ in range(20):
        ensemble.observe(plan, truths)
    after = evaluate_estimator(table, ensemble, plan).mean_relative_error()
    print(f"ensemble weights after feedback:  {ensemble.weights.round(3).tolist()}")
    print(
        f"ensemble rel_err_mean: {before:.3f} (uniform weights) -> {after:.3f} "
        "(weight shifted onto the most accurate expert)"
    )

    # 9. Typed predicates: categorical IN sets and string prefixes over a
    #    schema-declared table.  Dictionaries are sorted, so values encode to
    #    their rank and a prefix is one contiguous code interval; lowering
    #    turns each typed query into disjoint numeric boxes the (numeric-only)
    #    estimator core answers unchanged, then folds the per-box estimates
    #    back per query.  The same numeric synopsis, no estimator changes.
    shop = mixed_type_table(rows=30_000, seed=21, name="sales")
    kinds = {c: shop.schema.kind(c).value for c in shop.schema.encoded_columns}
    print()
    print(f"relation {shop.name!r}: {shop.row_count} rows, encoded columns {kinds}")
    catalog = Catalog()
    catalog.add_table(shop)
    catalog.attach_estimator(
        shop.name,
        EquiDepthHistogram(buckets=64),
        columns=["amount", "region", "product"],
    )
    query = TypedQuery(
        {
            "amount": Interval(50.0, 400.0),
            "region": SetMembership(["north", "south"]),
            "product": StringPrefix("bio"),
        }
    )
    estimate = catalog.estimate_selectivity(shop.name, query)
    exact = float(shop.true_selectivities([query])[0])
    print(
        f"  amount∈[50,400] AND region IN {{north,south}} AND product LIKE 'bio%': "
        f"estimate {estimate:.4f} vs exact {exact:.4f}"
    )
    typed_workload = TypedWorkload(
        shop, attributes=["amount", "region", "product"], seed=23
    ).generate(500)
    estimates = catalog.estimate_batch(shop.name, typed_workload)
    exacts = shop.true_selectivities(typed_workload)
    mean_abs = float(abs(estimates - exacts).mean())
    print(
        f"  500 mixed typed queries answered in one batch, "
        f"mean abs error {mean_abs:.4f}"
    )

    # 10. Telemetry: pass a MetricsRegistry to make the server record every
    #     request into a streaming log-bucketed latency histogram (p50/p99
    #     without storing samples) next to its cache and generation counters.
    #     Off by default — an unmetered server pays one branch per request.
    #     The snapshot exports through exporter_for_path; the suffix picks
    #     the format (.json / .jsonl / .csv).
    registry = MetricsRegistry()
    server = EstimatorServer(
        EquiDepthHistogram(buckets=64).fit(table), cache_size=64, metrics=registry
    )
    for _ in range(5):
        server.estimate_batch(plan, tenant="quickstart")
    requests = registry.histogram("serve.request_seconds")
    print()
    print(
        f"served {requests.count} instrumented requests: "
        f"p50 {requests.quantile(0.5) * 1e3:.2f}ms, "
        f"p99 {requests.quantile(0.99) * 1e3:.2f}ms, "
        f"hit rate {server.cache_info().hit_rate:.0%}"
    )
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "telemetry.json"
        exporter_for_path(out).export(registry.snapshot(), out)
        sections = exporter_for_path(out).load(out)
        print(
            f"exported telemetry snapshot to {out.name}: "
            f"{len(sections['counters'])} counters, "
            f"{len(sections['histograms'])} histograms"
        )
    # Beyond snapshots: a repro.TelemetryCollector samples a registry on an
    # interval into delta/rate time series (CSV export, self-contained
    # HTML dashboards) — see examples/telemetry_traffic.py
    # for the full loop.


if __name__ == "__main__":
    main()
