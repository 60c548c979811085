"""Tests for the experiment harness (runner and suite) at reduced scale."""

from __future__ import annotations

import pytest

import repro.experiments.__main__ as cli
from repro.baselines.histogram import EquiDepthHistogram
from repro.core.errors import InvalidParameterError
from repro.core.kde import KDESelectivityEstimator
from repro.data.generators import gaussian_mixture_table
from repro.experiments.__main__ import main
from repro.experiments.runner import (
    EstimatorSpec,
    SeriesResult,
    TableResult,
    fit_or_restore,
    fit_timed,
    run_accuracy_comparison,
    use_estimators,
    use_sharding,
)
from repro.experiments.suite import (
    _budgeted_specs,
    fig3_query_volume,
    fig5_drift,
    fig6_feedback,
    fig7_bandwidth_ablation,
    fig8_optimizer_impact,
    table1_accuracy_1d,
    table3_cost,
    table4_stream_cost,
)
from repro.obs.export import CSVExporter, JSONExporter
from repro.obs.metrics import NULL_REGISTRY, default_metrics
from repro.shard.partition import RangePartitioner
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload


class TestRunner:
    def test_estimator_spec_builds_fresh_instances(self) -> None:
        spec = EstimatorSpec("kde", lambda: KDESelectivityEstimator(sample_size=32))
        first = spec.build()
        second = spec.build()
        assert first is not second
        assert not first.is_fitted

    def test_fit_timed(self, small_table) -> None:
        estimator = EquiDepthHistogram(buckets=8)
        elapsed = fit_timed(estimator, small_table)
        assert elapsed >= 0.0
        assert estimator.is_fitted

    def test_run_accuracy_comparison(self, small_table) -> None:
        specs = [
            EstimatorSpec("hist", lambda: EquiDepthHistogram(buckets=16)),
            EstimatorSpec("kde", lambda: KDESelectivityEstimator(sample_size=64)),
        ]
        queries = UniformWorkload(small_table, volume_fraction=0.2, seed=1).generate(10)
        results = run_accuracy_comparison(small_table, specs, queries)
        assert set(results) == {"hist", "kde"}
        for result in results.values():
            assert result.query_count == 10

    def test_table_result_helpers(self) -> None:
        result = TableResult("t", ["name", "value"], [["a", 1.0], ["b", 2.0]])
        assert result.column("value") == [1.0, 2.0]
        assert result.row_by("name", "b") == ["b", 2.0]
        assert result.row_by("name", "zzz") is None
        assert "t" in result.render()

    def test_series_result_helpers(self) -> None:
        result = SeriesResult("f", "x", [1, 2])
        result.add_point("s", 0.5)
        result.add_point("s", 0.7)
        assert result.series["s"] == [0.5, 0.7]
        assert "0.7" in result.render(precision=1)


class TestOverlays:
    """The CLI's ``--shards`` / ``--partitioner`` / ``--estimator`` switches."""

    SPEC = EstimatorSpec("hist", lambda: EquiDepthHistogram(buckets=16))

    def test_sharding_wraps_only_inside_the_block(self, small_table) -> None:
        with use_sharding(3):
            inside = fit_or_restore(small_table, self.SPEC)
        outside = fit_or_restore(small_table, self.SPEC)
        assert isinstance(inside, ShardedEstimator)
        assert inside.shard_count == 3
        assert isinstance(outside, EquiDepthHistogram)

    def test_partitioner_choice_is_honoured(self, small_table) -> None:
        with use_sharding(2, "range"):
            estimator = fit_or_restore(small_table, self.SPEC)
        assert isinstance(estimator.partitioner, RangePartitioner)

    def test_estimators_extend_the_line_up_only_inside_the_block(self) -> None:
        standard = [spec.label for spec in _budgeted_specs(4096, 1)]
        with use_estimators(["grid", "ensemble"]):
            inside = [spec.label for spec in _budgeted_specs(4096, 1)]
        assert inside == standard + ["grid", "ensemble"]
        assert [spec.label for spec in _budgeted_specs(4096, 1)] == standard

    def test_unknown_names_raise(self, small_table) -> None:
        with pytest.raises(KeyError, match="nope"):
            use_estimators(["nope"])
        with use_sharding(2, "nope"):
            with pytest.raises(InvalidParameterError, match="nope"):
                fit_or_restore(small_table, self.SPEC)

    def test_cli_rejects_unknown_estimator_with_a_clean_exit(self) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main(["--estimator", "nope", "table1"])
        assert str(exit_info.value.code).startswith("unknown estimator(s) ['nope']")


class TestTelemetryFlags:
    """The CLI's ``--telemetry`` / ``--collect-interval`` / ``--dashboard`` flags."""

    RUN = ["table3", "--rows", "2000", "--queries", "20"]

    def test_snapshot_holds_the_run_timer_and_route_counters(self, tmp_path) -> None:
        path = tmp_path / "t.json"
        assert main(["--telemetry", str(path), *self.RUN]) == 0
        snapshot = JSONExporter().load(path)
        assert snapshot["histograms"]["experiments.run_seconds{experiment=table3}"]["count"] == 1
        routes = {"fastpath.culled_queries", "fastpath.dense_queries"}
        assert routes <= set(snapshot["counters"])
        assert sum(snapshot["counters"][key]["value"] for key in routes) > 0

    def test_collect_interval_writes_the_series_next_to_the_snapshot(self, tmp_path) -> None:
        path = tmp_path / "t.csv"
        main(["--telemetry", str(path), "--collect-interval", "0.05", *self.RUN])
        assert path.is_file()
        series = CSVExporter().load(tmp_path / "t.series.csv")
        assert len(series["points"]) >= 1

    def test_dashboard_without_interval_renders_an_end_of_run_sample(self, tmp_path) -> None:
        html = tmp_path / "d.html"
        main(["--telemetry", str(tmp_path / "t.jsonl"), "--dashboard", str(html), *self.RUN])
        page = html.read_text()
        assert page.lstrip().lower().startswith("<!doctype html>")
        assert page.count('<div class="panel">') >= 1

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--collect-interval", "0.5"], "require --telemetry"),
            (["--dashboard", "d.html"], "require --telemetry"),
            (["--telemetry", "t.json", "--collect-interval", "0"], "must be positive"),
        ],
        ids=["interval-without-telemetry", "dashboard-without-telemetry", "zero-interval"],
    )
    def test_flag_misuse_exits_with_its_message(
        self, flags, message, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*flags, *self.RUN])
        assert message in str(exit_info.value.code)

    def test_unknown_suffix_exits_before_any_experiment_runs(
        self, tmp_path, monkeypatch
    ) -> None:
        runs: list[str] = []

        def fake_run(name: str, **overrides: object) -> TableResult:
            runs.append(name)
            return TableResult(name, ["x"], [])

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        with pytest.raises(SystemExit) as exit_info:
            main(["--telemetry", str(tmp_path / "t.txt"), "table3"])
        message = str(exit_info.value.code)
        assert "'.txt'" in message
        for suffix in (".json", ".jsonl", ".csv"):
            assert f"({suffix})" in message
        assert runs == []

    def test_default_registry_is_restored_after_the_run(self, tmp_path) -> None:
        main(["--telemetry", str(tmp_path / "t.json"), *self.RUN])
        assert default_metrics() is NULL_REGISTRY


class TestSuiteSmallScale:
    """Each experiment callable runs end to end at toy scale and has sane output."""

    def test_table1(self) -> None:
        result = table1_accuracy_1d(rows=1500, queries=15, budget_bytes=2048)
        assert len(result.rows) == 3 * 9  # datasets × estimator line-up
        labels = set(result.column("estimator"))
        assert {"ade_adaptive", "ade_streaming", "equidepth", "sampling"}.issubset(labels)
        for value in result.column("rel_err_mean"):
            assert value >= 0.0

    def test_table3_reports_costs(self) -> None:
        result = table3_cost(rows=2000, queries=15, budget_bytes=2048, dimensions=2)
        assert all(row[1] >= 0 for row in result.rows)  # build seconds
        assert all(row[2] > 0 for row in result.rows)  # throughput
        assert all(row[3] > 0 for row in result.rows)  # bytes

    def test_table4_budget_column(self) -> None:
        result = table4_stream_cost(
            stream_rows=2000, batch_size=500, budgets=(16, 32), queries=10
        )
        assert set(result.column("budget")) == {16, 32}

    def test_fig3_series_lengths_match(self) -> None:
        result = fig3_query_volume(rows=1500, queries=15, volumes=(0.01, 0.1))
        for series in result.series.values():
            assert len(series) == 2

    def test_fig5_drift_structure(self) -> None:
        result = fig5_drift(
            batches=12, batch_size=100, queries=10, budget=32,
            reference_window=400, evaluate_every=4,
        )
        assert result.x_values  # at least one evaluation point
        assert "ade_decayed" in result.series
        assert "static_kde" in result.series

    def test_fig6_feedback_improves(self) -> None:
        result = fig6_feedback(rows=2500, feedback_steps=(0, 60), holdout_queries=30)
        feedback_series = result.series["feedback_ade"]
        static_series = result.series["static_kde"]
        # With feedback the error after 60 observations is no worse than at 0,
        # while the static baseline stays constant by construction.
        assert feedback_series[-1] <= feedback_series[0] * 1.1
        assert static_series[0] == pytest.approx(static_series[-1])

    def test_fig7_contains_all_rules(self) -> None:
        result = fig7_bandwidth_ablation(rows=1500, queries=20, sample_size=128)
        rules = set(result.column("rule"))
        assert {"scott", "silverman", "lscv", "mlcv", "adaptive_scott", "adaptive_lscv"} == rules
        for bandwidth in result.column("bandwidth"):
            assert bandwidth > 0

    def test_fig8_true_selectivity_has_unit_regret(self) -> None:
        result = fig8_optimizer_impact(fact_rows=3000, dimension_rows=800, trials=3)
        true_row = result.row_by("estimator", "true_selectivity")
        assert true_row is not None
        assert true_row[1] == pytest.approx(1.0)
        for row in result.rows:
            assert row[1] >= 1.0 - 1e-9  # mean regret can never beat the optimum


class TestBudgetedSpecs:
    def test_memory_budgets_are_roughly_respected(self) -> None:
        from repro.core.estimator import FLOAT_BYTES
        from repro.experiments.suite import _budgeted_specs

        table = gaussian_mixture_table(3000, dimensions=2, seed=5)
        budget = 4096
        for spec in _budgeted_specs(budget, dimensions=2):
            estimator = spec.build()
            estimator.fit(table)
            if spec.label == "independence":
                continue  # deliberately tiny
            assert estimator.memory_bytes() <= budget * 1.5 + 16 * FLOAT_BYTES, spec.label
