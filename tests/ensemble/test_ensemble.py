"""Unit tests for the drift-adaptive expert ensemble.

The registry-wide suites (batch API, describe/config, snapshot round-trip,
fast-path equivalence) already exercise ``"ensemble"`` through
``available_estimators()``; this module pins the ensemble-specific behaviour
those generic suites cannot see — the AddExp lifecycle (decay, fixed-share,
spawn, prune), the policy registry, nested-wrapper config resolution and the
Catalog wiring.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, StreamError
from repro.core.estimator import (
    available_estimators,
    create_estimator,
    estimator_from_config,
)
from repro.core.resolve import resolve_estimator
from repro.engine.catalog import Catalog
from repro.ensemble import EnsembleEstimator
from repro.ensemble.experts import ExpertPool, WeightedExpert
from repro.ensemble.policy import (
    AddExpPolicy,
    PinnedPolicy,
    WeightPolicy,
    create_policy,
)
from repro.workload.generators import UniformWorkload
from repro.workload.queries import RangeQuery

STREAM_EXPERTS = [
    {"name": "streaming_ade", "max_kernels": 64, "decay": 0.99, "seed": 1},
    {"name": "reservoir_sampling", "sample_size": 64, "decay": True, "seed": 2},
]


def _feedback_round(ensemble: EnsembleEstimator, truth: float = 0.5) -> None:
    query = RangeQuery({column: (-100.0, 100.0) for column in ensemble.columns})
    ensemble.observe([query], [truth])


class TestConstruction:
    def test_registered(self) -> None:
        assert "ensemble" in available_estimators()

    def test_default_pool(self) -> None:
        ensemble = EnsembleEstimator()
        names = [spec["name"] for spec in ensemble.config()["experts"]]
        assert names == ["kde", "equidepth", "streaming_ade", "reservoir_sampling"]

    def test_rejects_empty_pool(self) -> None:
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(experts=[])

    def test_rejects_nested_ensemble(self) -> None:
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(experts=[EnsembleEstimator()])

    def test_rejects_bad_lifecycle_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(beta=1.0)
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(gamma=0.0)
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(max_experts=0)
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(prune="newest")
        with pytest.raises(InvalidParameterError):
            EnsembleEstimator(buffer_rows=-1)

    def test_start_requires_startable_experts(self) -> None:
        ensemble = EnsembleEstimator(experts=[{"name": "kde", "sample_size": 64}])
        with pytest.raises(StreamError):
            ensemble.start(["x0"])


class TestAddExpLifecycle:
    def test_weights_decay_toward_accurate_expert(self, mixture_table_1d) -> None:
        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS), beta=0.1, seed=0
        ).fit(mixture_table_1d)
        workload = UniformWorkload(mixture_table_1d, seed=5).generate(20)
        truths = mixture_table_1d.true_selectivities(workload)
        for _ in range(5):
            ensemble.observe(workload, truths)
        weights = ensemble.weights
        assert weights.shape == (2,)
        assert weights.sum() == pytest.approx(1.0)
        # The expert with the lower observed loss must carry the larger weight.
        losses = [e.loss_ewma for e in ensemble.experts]
        assert weights[int(np.argmin(losses))] == weights.max()

    def test_lifecycle_is_deterministic(self, mixture_table_1d) -> None:
        def run() -> np.ndarray:
            ensemble = EnsembleEstimator(
                experts=copy.deepcopy(STREAM_EXPERTS), seed=7
            ).fit(mixture_table_1d)
            workload = UniformWorkload(mixture_table_1d, seed=6).generate(15)
            truths = mixture_table_1d.true_selectivities(workload)
            for _ in range(4):
                ensemble.observe(workload, truths)
            return ensemble.weights

        np.testing.assert_array_equal(run(), run())

    def test_spawn_on_sustained_loss_and_prune_to_budget(self) -> None:
        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS),
            spawn_threshold=0.05,
            spawn_cooldown=1,
            max_experts=2,
            prune="weakest",
            seed=3,
        )
        ensemble.start(["x0"])
        ensemble.insert(np.random.default_rng(0).normal(0.0, 1.0, size=(500, 1)))
        ensemble.flush()
        # Feed deliberately wrong truths so the ensemble loss stays high.
        for _ in range(3):
            _feedback_round(ensemble, truth=0.0)
        assert len(ensemble.spawn_history) >= 1
        assert len(ensemble.experts) <= 2  # pruned back to budget every spawn
        assert ensemble.feedback_rounds == 3

    def test_spawned_expert_seeds_follow_pool_rng(self) -> None:
        pool = ExpertPool(
            AddExpPolicy(),
            beta=0.5,
            gamma=0.1,
            max_experts=4,
            spawn_threshold=0.35,
            spawn_cooldown=1,
            prune="weakest",
            seed=11,
        )
        specs = [{"name": "reservoir_sampling", "sample_size": 8, "seed": 1}]
        first = pool.next_spawn_spec(specs)["seed"]
        second = pool.next_spawn_spec(specs)["seed"]
        assert first != 1 and second != 1 and first != second

    def test_prune_oldest_evicts_earliest_born(self) -> None:
        pool = ExpertPool(
            AddExpPolicy(),
            beta=0.5,
            gamma=0.1,
            max_experts=2,
            spawn_threshold=0.35,
            spawn_cooldown=1,
            prune="oldest",
            seed=0,
        )
        old = create_estimator("reservoir_sampling", sample_size=8)
        young = create_estimator("reservoir_sampling", sample_size=8)
        pool.experts = [WeightedExpert(old, born=0), WeightedExpert(young, born=5)]
        pool.admit(create_estimator("reservoir_sampling", sample_size=8), {"name": "r"})
        assert [e.born for e in pool.experts[:-1]] == [5]

    def test_expert_summary_is_json_like(self, mixture_table_1d) -> None:
        ensemble = EnsembleEstimator(experts=copy.deepcopy(STREAM_EXPERTS)).fit(
            mixture_table_1d
        )
        summary = ensemble.expert_summary()
        assert len(summary) == 2
        assert {"expert", "weight", "born", "rounds", "loss_ewma"} <= set(summary[0])


class TestPolicies:
    def test_registry_names(self) -> None:
        for name in ("addexp", "pinned", "windowed"):
            assert create_policy(name).name == name
        with pytest.raises(InvalidParameterError, match=r"\['addexp', 'pinned', 'windowed'\]"):
            create_policy("bogus")

    def test_create_policy_accepts_name_mapping_and_instance(self) -> None:
        assert isinstance(create_policy("pinned"), PinnedPolicy)
        mapped = create_policy({"name": "addexp", "share": 0.1})
        assert isinstance(mapped, AddExpPolicy) and mapped.share == 0.1
        instance = AddExpPolicy(share=0.2)
        assert create_policy(instance) is instance

    def test_create_policy_rejects_unknown_and_nameless(self) -> None:
        with pytest.raises(InvalidParameterError):
            create_policy("bogus")
        with pytest.raises(InvalidParameterError):
            create_policy({"share": 0.1})

    def test_share_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            AddExpPolicy(share=1.0)
        with pytest.raises(InvalidParameterError):
            AddExpPolicy(share=-0.1)

    def test_fixed_share_keeps_losing_expert_warm(self) -> None:
        experts = [
            WeightedExpert(create_estimator("reservoir_sampling", sample_size=8))
            for _ in range(2)
        ]
        for expert in experts:
            expert.weight = 0.5
        losses = np.array([0.0, 1.0])
        plain = AddExpPolicy(share=0.0).update(experts, losses, beta=0.01)
        shared = AddExpPolicy(share=0.1).update(experts, losses, beta=0.01)
        assert shared[1] > plain[1]  # the loser keeps a recoverable weight
        assert shared[1] >= 0.1 * shared.sum() / 2

    def test_addexp_share_config_roundtrips_through_ensemble(
        self, mixture_table_1d
    ) -> None:
        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS), policy=AddExpPolicy(share=0.05)
        ).fit(mixture_table_1d)
        config = ensemble.config()
        assert config["policy"] == {"name": "addexp", "share": 0.05}
        rebuilt = estimator_from_config(config)
        assert isinstance(rebuilt._policy, AddExpPolicy)
        assert rebuilt._policy.share == 0.05

    def test_pinned_policy_never_moves_weights(self, mixture_table_1d) -> None:
        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS), policy="pinned"
        ).fit(mixture_table_1d)
        workload = UniformWorkload(mixture_table_1d, seed=9).generate(10)
        truths = mixture_table_1d.true_selectivities(workload)
        before = ensemble.weights.copy()
        for _ in range(3):
            ensemble.observe(workload, truths)
        np.testing.assert_array_equal(ensemble.weights, before)

    def test_custom_policy_instance_is_used(self, mixture_table_1d) -> None:
        class Halver(WeightPolicy):
            name = "halver"

            def update(self, experts, losses, beta):
                return np.array([e.weight for e in experts]) * [1.0, 0.5]

        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS), policy=Halver()
        ).fit(mixture_table_1d)
        _feedback_round(ensemble)
        assert ensemble.weights[0] == pytest.approx(2.0 / 3.0)


class TestResolveRegression:
    """Nested wrapper configs resolve uniformly through ``resolve_estimator``."""

    def test_resolve_accepts_all_spec_forms(self) -> None:
        instance = create_estimator("kde", sample_size=64)
        assert resolve_estimator(instance) is instance
        assert resolve_estimator("kde").name == "kde"
        assert resolve_estimator({"name": "kde", "sample_size": 32}).name == "kde"
        with pytest.raises(InvalidParameterError):
            resolve_estimator(None)
        with pytest.raises(InvalidParameterError):
            resolve_estimator(42)  # type: ignore[arg-type]

    def test_ensemble_of_feedback_of_kde_config_roundtrips(
        self, mixture_table_1d
    ) -> None:
        ensemble = EnsembleEstimator(
            experts=[
                {
                    "name": "feedback_ade",
                    "base": {"name": "kde", "sample_size": 64},
                    "max_regions": 16,
                },
                {"name": "reservoir_sampling", "sample_size": 64, "seed": 2},
            ]
        ).fit(mixture_table_1d)
        config = ensemble.config()
        inner = config["experts"][0]
        assert inner["name"] == "feedback_ade"
        assert inner["base"]["name"] == "kde"
        rebuilt = estimator_from_config(config).fit(mixture_table_1d)
        assert [s["name"] for s in rebuilt.config()["experts"]] == [
            "feedback_ade",
            "reservoir_sampling",
        ]


class TestSnapshotLifecycle:
    def test_snapshot_preserves_weights_and_rng_state(self, mixture_table_1d) -> None:
        ensemble = EnsembleEstimator(
            experts=copy.deepcopy(STREAM_EXPERTS),
            spawn_threshold=0.05,
            spawn_cooldown=1,
            seed=13,
        ).fit(mixture_table_1d)
        for _ in range(3):
            _feedback_round(ensemble, truth=0.0)
        restored = EnsembleEstimator(experts=copy.deepcopy(STREAM_EXPERTS))
        restored.load_state(ensemble.state_dict())
        np.testing.assert_array_equal(restored.weights, ensemble.weights)
        assert restored.spawn_history == ensemble.spawn_history
        assert restored.feedback_rounds == ensemble.feedback_rounds
        # The lifecycle RNG continues identically: the next spawned seed of the
        # live pool equals the next spawned seed of the restored pool.
        spec = [{"name": "reservoir_sampling", "sample_size": 8, "seed": 1}]
        assert (
            ensemble._pool.next_spawn_spec(spec)["seed"]
            == restored._pool.next_spawn_spec(spec)["seed"]
        )


class TestCatalogWiring:
    def test_attach_refresh_estimate(self, mixture_table_2d) -> None:
        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        ensemble = EnsembleEstimator(
            experts=[
                {"name": "kde", "sample_size": 128, "seed": 1},
                {"name": "reservoir_sampling", "sample_size": 128, "seed": 2},
            ]
        )
        catalog.attach_estimator(mixture_table_2d.name, ensemble)
        query = RangeQuery(
            {
                column: (
                    float(mixture_table_2d.column(column).min()),
                    float(mixture_table_2d.column(column).max()),
                )
                for column in ensemble.columns
            }
        )
        estimate = catalog.estimate_selectivity(mixture_table_2d.name, query)
        assert 0.0 <= estimate <= 1.0
        catalog.refresh(mixture_table_2d.name)  # refit in place must not raise

    def test_catalog_save_restore_roundtrip(self, mixture_table_2d, tmp_path) -> None:
        from repro.persist.store import ModelStore

        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        catalog.attach_estimator(
            mixture_table_2d.name,
            EnsembleEstimator(
                experts=[{"name": "kde", "sample_size": 128, "seed": 1}]
            ),
        )
        store = ModelStore(tmp_path / "models")
        catalog.save(store)
        fresh = Catalog()
        fresh.add_table(mixture_table_2d)
        fresh.restore(store)
        workload = UniformWorkload(mixture_table_2d, seed=4).generate(10)
        for query in workload:
            assert fresh.estimate_selectivity(
                mixture_table_2d.name, query
            ) == pytest.approx(
                catalog.estimate_selectivity(mixture_table_2d.name, query), abs=0.0
            )
