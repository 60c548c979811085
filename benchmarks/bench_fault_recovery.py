"""Fault recovery: crash-safe persistence, circuit breaking, shard loss.

Four deterministic fault campaigns, each driven entirely by a seeded
:class:`~repro.fault.FaultPlan` (no process kills, no flakiness):

1. **Journal replay** — a streaming ingester crashes after a checkpoint with
   unflushed batches in the write-ahead journal; recovery must reproduce the
   pre-crash model *bitwise*, and a torn journal tail must be discarded
   cleanly (recovering exactly the durable prefix).
2. **Snapshot rollback** — torn publishes land corrupt versions on disk
   (write verification disabled to let them through); ``load_latest`` must
   quarantine every corrupt version, roll back to the newest intact one and
   never serve corrupt bytes.  With verification enabled (the default), the
   same faults are absorbed by publish-time retries instead.
3. **Serving circuit breaker** — a window of injected model faults trips the
   breaker; every request in the campaign must still be answered (last-good
   results or the fallback estimator — zero served errors), and once the
   fault window passes the breaker must close and serve bitwise-fresh
   results again.
4. **Degraded shards** — injected synopsis faults exhaust a shard's
   consecutive-failure probation and knock it out; the renormalized
   survivor combine must stay within :data:`DEGRADED_TOLERANCE` mean
   relative deviation of the full ensemble.

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration (the
latency gate is skipped there; recovery and availability gates hold
everywhere).
"""

from __future__ import annotations

import copy
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.errors import CircuitOpenError
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.experiments.runner import TableResult
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.obs.metrics import MetricsRegistry
from repro.persist.journal import IngestJournal, JournaledIngest
from repro.persist.store import ModelStore
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import EstimatorServer
from repro.shard.parallel import ShardExecutor
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

from report import SMOKE, bench_report


#: Documented accuracy tolerance for degraded-mode serving: mean relative
#: deviation of the renormalized survivor combine from the full ensemble
#: (see ARCHITECTURE.md, "Fault model & recovery").
DEGRADED_TOLERANCE = 0.15

#: Per-request latency budget (p99) while the breaker campaign runs —
#: degraded answers must stay cheap.  Enforced only outside smoke mode.
P99_BUDGET_SECONDS = 0.050


def _table(rows: int, seed: int = 7):
    return gaussian_mixture_table(
        rows=rows, dimensions=2, components=4, separation=4.0, seed=seed, name="bench"
    )


def _plan_for(table, estimator, queries: int, seed: int = 11):
    workload = UniformWorkload(table, volume_fraction=0.15, seed=seed).generate(queries)
    return compile_queries(workload, estimator.columns)


# -- phase 1: write-ahead journal crash + replay ------------------------------

def journal_replay(root: Path, rows: int, queries: int) -> dict:
    table = _table(rows)
    rng = np.random.default_rng(23)
    matrix = table.as_matrix()
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    batches = [rng.uniform(lo, hi, size=(48, 2)) for _ in range(9)]

    out: dict[str, float | bool] = {}
    for tear_tail, tag in ((False, "clean"), (True, "torn")):
        subdir = root / f"journal_{tag}"
        store = ModelStore(subdir / "store")
        journal = IngestJournal(subdir / "ingest.journal")
        model = StreamingADE(max_kernels=64).fit(table)
        reference = copy.deepcopy(model)
        ingest = JournaledIngest(model, journal, store, "m")

        plan = FaultPlan(seed=5)
        if tear_tail:
            # Journal append hits count one per batch; tear the final one so
            # the crash leaves a half-written record at the tail.
            plan.arm("persist.journal.append", action="torn", at=(len(batches),))
        with use_fault_plan(plan):
            for index, batch in enumerate(batches):
                ingest.insert(batch)
                if index == 3:
                    ingest.checkpoint()
        journal.close()  # "crash": no final checkpoint, journal tail on disk

        # The survivor the recovery must reproduce: same batches, same flush
        # boundary (the checkpoint flushes) — flush grouping shapes the
        # streaming synopsis, so the reference mirrors it exactly.
        durable = batches if not tear_tail else batches[:-1]
        for index, batch in enumerate(durable):
            reference.insert(batch)
            if index == 3:
                reference.flush()
        reference.flush()

        recovered = JournaledIngest.recover(
            IngestJournal(subdir / "ingest.journal"), store, "m"
        )
        recovered.flush()
        info = recovered.last_recovery
        query_plan = _plan_for(table, reference, queries)
        bitwise = bool(
            np.array_equal(
                recovered.estimator.estimate_batch(query_plan),
                reference.estimate_batch(query_plan),
            )
        )
        recovered.close()
        out[f"{tag}_bitwise_equal"] = bitwise
        out[f"{tag}_replayed_rows"] = float(info["replayed_rows"])
        out[f"{tag}_torn_tail"] = bool(info["torn_tail"])
    return out


# -- phase 2: corrupt publishes, quarantine + rollback ------------------------

def snapshot_rollback(root: Path, rows: int, queries: int) -> dict:
    table = _table(rows)
    models = [
        KDESelectivityEstimator(sample_size=100 + 10 * i).fit(table) for i in range(6)
    ]

    # Unverified store: torn publishes land corrupt version files on disk
    # (the read-back verify would otherwise catch them before the claim).
    unverified = ModelStore(root / "rollback", verify_publish=False)
    plan = FaultPlan(seed=9)
    plan.arm("persist.publish.write", action="torn", at=(4, 5, 6))
    with use_fault_plan(plan):
        for model in models:
            unverified.publish("m", model)

    version, loaded = unverified.load_latest("m")
    query_plan = _plan_for(table, loaded, queries)
    rollback_bitwise = bool(
        np.array_equal(
            loaded.estimate_batch(query_plan),
            models[version.version - 1].estimate_batch(query_plan),
        )
    )
    quarantined = len(list((root / "rollback" / "m").glob("*.corrupt")))
    pointer = int((root / "rollback" / "m" / "LATEST").read_text().strip())

    # Verified store: the same torn write is absorbed by publish retries and
    # never reaches a version slot.
    verified = ModelStore(root / "verified")
    retry_plan = FaultPlan(seed=9)
    rule = retry_plan.arm("persist.publish.write", action="torn", at=(1,))
    with use_fault_plan(retry_plan):
        verified.publish("m", models[0])
    _, absorbed = verified.load_latest("m")
    absorbed_bitwise = bool(
        np.array_equal(
            absorbed.estimate_batch(query_plan),
            models[0].estimate_batch(query_plan),
        )
    )
    return {
        "served_version": float(version.version),
        "quarantined": float(quarantined),
        "pointer_repaired_to": float(pointer),
        "rollback_bitwise_equal": rollback_bitwise,
        "verify_retries_fired": float(rule.fired),
        "verified_publish_bitwise_equal": absorbed_bitwise,
    }


# -- phase 3: circuit breaker availability ------------------------------------

def breaker_campaign(root: Path, rows: int, requests: int) -> dict:
    table = _table(rows)
    model = KDESelectivityEstimator(sample_size=200).fit(table)
    fallback = KDESelectivityEstimator(sample_size=80, seed=2).fit(table)

    # A small rotating query pool: the healthy prefix of the campaign seeds
    # the last-good store, so most degraded answers are stale hits.
    pool = [
        _plan_for(table, model, queries=1, seed=100 + i) for i in range(12)
    ]
    baseline = [model.estimate_batch(p) for p in pool]

    metrics = MetricsRegistry()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=0.5, probe_successes=2)
    server = EstimatorServer(
        model,
        cache_size=0,  # every request exercises the breaker-gated miss path
        metrics=metrics,
        breaker=breaker,
        fallback=fallback,
    )

    fault_plan = FaultPlan(seed=13)
    # Ten consecutive model faults starting at the 21st model call: three trip
    # the breaker, the rest are eaten by half-open probes.
    fault_plan.arm("serve.estimate", action="raise", after=20, limit=10)

    errors = 0
    latencies = []
    with use_fault_plan(fault_plan):
        for i in range(requests):
            query_plan = pool[i % len(pool)]
            start = time.perf_counter()
            try:
                server.estimate_batch(query_plan, now=0.1 * i)
            except CircuitOpenError:
                errors += 1
            latencies.append(time.perf_counter() - start)
        # Post-recovery: the fault window is exhausted and the breaker closed;
        # fresh answers must match the direct model bitwise again.
        recovered = all(
            np.array_equal(
                server.estimate_batch(pool[i], now=0.1 * (requests + i)),
                baseline[i],
            )
            for i in range(len(pool))
        )

    snapshot = {
        name: metrics.counter(name).value
        for name in ("serve.model_faults", "serve.stale_served", "serve.fallback_served")
    }
    return {
        "requests": float(requests),
        "served_errors": float(errors),
        "breaker_trips": float(breaker.trips),
        "final_state": breaker.state,
        "model_faults": snapshot["serve.model_faults"],
        "stale_served": snapshot["serve.stale_served"],
        "fallback_served": snapshot["serve.fallback_served"],
        "recovered_bitwise": bool(recovered),
        "p99_seconds": float(np.percentile(latencies, 99)),
    }


# -- phase 4: shard loss, renormalized survivors ------------------------------

def degraded_shards(root: Path, rows: int, queries: int) -> dict:
    table = _table(rows)
    sharded = ShardedEstimator(
        base={"name": "kde", "sample_size": 150},
        shards=4,
        parallel=None,  # serial executor: deterministic fault assignment
    ).fit(table)
    query_plan = _plan_for(table, sharded, queries)
    full = sharded.estimate_batch(query_plan)

    # Transient transport faults are absorbed by the executor's retries:
    # two consecutive injected failures stay under the retry budget, so the
    # map still returns every result.
    executor = ShardExecutor("serial")
    transient_plan = FaultPlan(seed=17)
    transient_rule = transient_plan.arm("shard.task", action="raise", at=(1, 2))
    with use_fault_plan(transient_plan):
        mapped = executor.map(lambda x: x * x, range(4))
    retries_absorbed = mapped == [0, 1, 4, 9] and transient_rule.fired == 2

    # A shard synopsis fault inside the estimate boundary puts the shard on
    # probation: each fault excludes it from that batch only, and
    # ``estimate_failure_threshold`` consecutive faults mark it lost, after
    # which the combine renormalizes over the survivors.  Shard 0 hits the
    # point first in every serial pass, so with 4 live shards its hits are
    # 1, 5, 9, …
    strikes = sharded.estimate_failure_threshold
    loss_plan = FaultPlan(seed=17)
    loss_plan.arm(
        "shard.estimate",
        action="raise",
        at=tuple(1 + pass_index * 4 for pass_index in range(strikes)),
    )
    with use_fault_plan(loss_plan):
        for _ in range(strikes):
            degraded = sharded.estimate_batch(query_plan)

    deviation = float(
        np.mean(np.abs(degraded - full) / np.maximum(full, 1e-2))
    )
    return {
        "transient_retries_absorbed": bool(retries_absorbed),
        "lost_shards": float(len(sharded.lost_shards)),
        "degraded_flagged": bool(sharded.describe().get("degraded", False)),
        "mean_relative_deviation": deviation,
    }


# -- harness ------------------------------------------------------------------

def fault_recovery(rows: int = 20_000, queries: int = 300, requests: int = 120) -> TableResult:
    """Run all four campaigns and tabulate their headline numbers."""
    result = TableResult(
        "Fault recovery: journal replay, rollback, circuit breaker, shard loss",
        ["campaign", "metric", "value"],
        [],
        notes=(
            f"{rows}-row 2-D mixture; every fault driven by a seeded "
            f"FaultPlan; degraded-mode tolerance {DEGRADED_TOLERANCE:.2f}"
        ),
    )
    phases: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_fault_") as tmp:
        root = Path(tmp)
        phases["journal"] = journal_replay(root, rows, queries)
        phases["rollback"] = snapshot_rollback(root, rows, queries)
        phases["breaker"] = breaker_campaign(root, rows, requests)
        phases["shards"] = degraded_shards(root, rows, queries)
    for campaign, values in phases.items():
        for metric, value in values.items():
            result.rows.append([campaign, metric, value])
    result.phases = phases  # structured view for the gate block
    return result


def test_fault_recovery(report):
    kwargs = dict(rows=4_000, queries=80, requests=80) if SMOKE else {}
    with bench_report("fault_recovery") as rep:
        result = report(fault_recovery, **kwargs)
        phases = result.phases
        for campaign, values in phases.items():
            for metric, value in values.items():
                rep.metric(f"{campaign}_{metric}", value)

        journal = phases["journal"]
        assert rep.gate(
            "journal_replay_bitwise", journal["clean_bitwise_equal"], enforced=True
        )
        assert rep.gate(
            "journal_torn_tail_bitwise", journal["torn_bitwise_equal"], enforced=True
        )
        assert rep.gate(
            "journal_torn_tail_detected", journal["torn_torn_tail"], enforced=True
        )

        rollback = phases["rollback"]
        assert rep.gate(
            "rollback_serves_newest_intact",
            rollback["served_version"] == 3.0
            and rollback["rollback_bitwise_equal"]
            and rollback["pointer_repaired_to"] == 3.0,
            detail=rollback["served_version"],
            enforced=True,
        )
        assert rep.gate(
            "rollback_quarantines_all_corrupt",
            rollback["quarantined"] == 3.0,
            detail=rollback["quarantined"],
            enforced=True,
        )
        assert rep.gate(
            "verified_publish_absorbs_torn_write",
            rollback["verify_retries_fired"] >= 1.0
            and rollback["verified_publish_bitwise_equal"],
            enforced=True,
        )

        breaker = phases["breaker"]
        assert rep.gate(
            "breaker_zero_served_errors",
            breaker["served_errors"] == 0.0,
            detail=breaker["served_errors"],
            enforced=True,
        )
        assert rep.gate(
            "breaker_tripped_and_recovered",
            breaker["breaker_trips"] >= 1.0
            and breaker["final_state"] == "closed"
            and breaker["recovered_bitwise"],
            detail=breaker["breaker_trips"],
            enforced=True,
        )
        assert rep.gate(
            "breaker_degraded_paths_used",
            breaker["stale_served"] + breaker["fallback_served"] > 0.0,
            enforced=True,
        )
        p99 = breaker["p99_seconds"]
        ok = rep.gate(
            "breaker_p99_within_budget",
            p99 <= P99_BUDGET_SECONDS,
            detail=p99,
        )
        if not SMOKE:
            assert ok, f"p99 {p99:.4f}s > {P99_BUDGET_SECONDS:.3f}s while degraded"

        shards = phases["shards"]
        assert rep.gate(
            "shard_transient_retries_absorbed",
            shards["transient_retries_absorbed"],
            enforced=True,
        )
        assert rep.gate(
            "shard_loss_detected", shards["lost_shards"] == 1.0, enforced=True
        )
        assert rep.gate(
            "shard_degraded_flagged", shards["degraded_flagged"], enforced=True
        )
        assert rep.gate(
            "shard_degraded_within_tolerance",
            shards["mean_relative_deviation"] <= DEGRADED_TOLERANCE,
            detail=shards["mean_relative_deviation"],
            enforced=True,
        )
