"""Ensemble drift: the AddExp expert pool vs. every individual expert.

A fig5-style stream mixes *gradual* drift (the mixture centres orbit
continuously) with *sudden* jumps at two breakpoints — the regime where no
single synopsis wins: fast-decaying models track the rotation but waste data
in calm stretches, slow-decaying models win between jumps but lag badly after
one, and the samplers are noisy but unbiased.  Every expert configuration is
run standalone AND inside an :class:`~repro.ensemble.EnsembleEstimator`; at
each evaluation point all of them are scored against the same
recent-window ground truth first, and only then does the ensemble receive
that workload's true selectivities as feedback (no leakage into the score).

Acceptance gates (full configuration):

* ensemble mean relative error ≤ ``0.95 ×`` the best single expert, and
* strictly better than *every* expert overall.

The ensemble clears the bar three ways: AddExp reweighting follows whichever
expert the current drift phase favours, a small fixed-share term keeps
out-of-favour experts warm enough to take over within a few rounds of a
phase change, and the spawn lifecycle adds a fresh expert (warm-started from
the recent-row buffer) whenever the pool's own loss stays high — which is
exactly what happens right after a sudden jump.

Set ``BENCH_SMOKE=1`` for the reduced CI smoke configuration (the
gates are recorded but not enforced — the tiny stream is too short for the
weights to converge reliably on shared hardware).
"""

from __future__ import annotations

import copy

from repro.core.estimator import estimator_from_config
from repro.data.streams import rotating_drift_stream
from repro.engine.executor import evaluate_estimator
from repro.engine.table import Table
from repro.ensemble import EnsembleEstimator
from repro.ensemble.policy import AddExpPolicy
from repro.experiments.runner import TableResult
from repro.workload.generators import UniformWorkload

import numpy as np

from report import SMOKE, bench_report


#: Acceptance gate: ensemble error relative to the best single expert.
MAX_ERROR_VS_BEST_EXPERT = 0.95


def ensemble_drift(
    batches: int = 80,
    batch_size: int = 600,
    queries: int = 80,
    budget: int = 256,
    reference_window: int = 4000,
    evaluate_every: int = 1,
    seed: int = 11,
) -> TableResult:
    """Mean relative error of each expert and of the ensemble on mixed drift."""
    stream = rotating_drift_stream(
        dimensions=1,
        batch_size=batch_size,
        batches=batches,
        radius=1.0,
        revolutions=1.0,
        drift_at=(0.33, 0.66),
        shift=6.0,
        seed=seed,
    )
    columns = stream.column_names

    # Phase-complementary pool: a very-fast-decay ADE (half-life 400 rows)
    # that tracks rotation and recovers quickly after a jump but is noisy in
    # calm stretches, a slow ADE (half-life 8000 rows) that wins the calm
    # phases, and one decayed plus one uniform reservoir as unbiased (noisy)
    # counterweights.  No member dominates every round, which is what gives
    # the weighted mixture room to beat all of them.
    fast_decay = 0.5 ** (1.0 / 400)
    slow_decay = 0.5 ** (1.0 / 8000)
    expert_specs = [
        {"name": "streaming_ade", "max_kernels": budget, "decay": fast_decay, "seed": seed},
        {"name": "streaming_ade", "max_kernels": budget, "decay": slow_decay, "seed": seed + 1},
        {"name": "reservoir_sampling", "sample_size": budget, "decay": True, "seed": seed + 2},
        {"name": "reservoir_sampling", "sample_size": budget, "decay": False, "seed": seed + 3},
    ]
    expert_labels = ["ade_fast", "ade_slow", "reservoir_decayed", "reservoir_uniform"]

    standalone = [estimator_from_config(copy.deepcopy(s)) for s in expert_specs]
    ensemble = EnsembleEstimator(
        experts=copy.deepcopy(expert_specs),
        policy=AddExpPolicy(share=0.02),
        beta=0.1,
        spawn_threshold=0.25,
        max_experts=6,
        seed=seed,
    )
    for estimator in (*standalone, ensemble):
        estimator.start(columns)

    errors: dict[str, list[float]] = {label: [] for label in (*expert_labels, "ensemble")}
    window_rows: list[np.ndarray] = []
    rng = np.random.default_rng(seed + 7)
    evaluations = 0

    for index, batch in enumerate(stream):
        for estimator in (*standalone, ensemble):
            estimator.insert(batch)
        window_rows.append(batch)
        recent = np.vstack(window_rows)[-reference_window:]
        if index % evaluate_every != 0 or (index + 1) * batch_size < reference_window:
            continue
        evaluations += 1
        reference = Table.from_array("reference", recent, columns)
        workload = UniformWorkload(
            reference, volume_fraction=0.1, seed=int(rng.integers(0, 2**31))
        ).generate(queries)
        for label, estimator in zip((*expert_labels, "ensemble"), (*standalone, ensemble)):
            evaluation = evaluate_estimator(reference, estimator, workload, name=label)
            errors[label].append(evaluation.mean_relative_error())
        # Feedback strictly after scoring: the ensemble learns from this
        # workload only for *future* evaluation points.
        ensemble.observe(workload, reference.true_selectivities(workload))

    rows = [
        [label, float(np.mean(errors[label])), float(errors[label][-1]), int(est.memory_bytes())]
        for label, est in zip((*expert_labels, "ensemble"), (*standalone, ensemble))
    ]
    return TableResult(
        "Ensemble drift: AddExp expert pool vs. standalone experts",
        ["estimator", "rel_err_mean", "rel_err_final", "bytes"],
        rows,
        notes=(
            f"{batches} batches of {batch_size} tuples; rotation (1 rev, radius 1) "
            f"+ sudden jumps at 33%/66%; {evaluations} evaluation points of {queries} "
            f"queries against the last {reference_window} tuples; feedback after "
            f"scoring; {len(ensemble.spawn_history)} spawns "
            f"({len(ensemble.experts)} experts at end)"
        ),
    )


def test_ensemble_drift(report):
    kwargs = (
        dict(batches=24, batch_size=250, queries=30, budget=128, reference_window=1500)
        if SMOKE
        else {}
    )
    with bench_report("ensemble_drift") as rep:
        result = report(ensemble_drift, **kwargs)
        by_label = {row[0]: row for row in result.rows}
        expert_errors = {
            label: row[1] for label, row in by_label.items() if label != "ensemble"
        }
        ensemble_error = by_label["ensemble"][1]
        for label, row in by_label.items():
            rep.metric(f"{label}_rel_err_mean", row[1])
        best_label = min(expert_errors, key=expert_errors.get)
        best_error = expert_errors[best_label]
        rep.metric("best_expert", best_label)
        rep.metric("ensemble_vs_best_ratio", ensemble_error / max(best_error, 1e-12))

        ok_best = rep.gate(
            "ensemble_le_0_95x_best_expert",
            ensemble_error <= MAX_ERROR_VS_BEST_EXPERT * best_error,
            detail={"ensemble": ensemble_error, "best": best_error, "expert": best_label},
        )
        ok_all = rep.gate(
            "ensemble_beats_every_expert",
            all(ensemble_error < err for err in expert_errors.values()),
            detail=expert_errors,
        )
        if not SMOKE:
            assert ok_best, (
                f"ensemble {ensemble_error:.4f} not ≤ "
                f"{MAX_ERROR_VS_BEST_EXPERT} × best expert "
                f"{best_label}={best_error:.4f}"
            )
            assert ok_all, (
                f"ensemble {ensemble_error:.4f} does not beat every expert: "
                f"{expert_errors}"
            )
