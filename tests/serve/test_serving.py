"""EstimatorServer: caching, copy-on-write swaps, and ingest-while-serve.

The concurrency hammer is the heart of this suite: a writer thread keeps
checking out a private model copy, ingesting a deterministic batch sequence
and publishing new generations, while reader threads hammer
``estimate_batch``.  Because every built-in estimator is deterministic, each
generation's correct answer is known from a serial replay — so every result a
reader ever observes must be *bitwise* one of the published generations'
answers (no torn reads), tagged with the generation that produced it, and the
final served state must equal the serial replay of the whole stream.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, NotFittedError
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.engine.table import Table
from repro.ensemble import EnsembleEstimator
from repro.persist.store import ModelStore
from repro.serve import EstimatorServer
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries


@pytest.fixture(scope="module")
def table() -> Table:
    return gaussian_mixture_table(rows=3000, dimensions=2, components=3, seed=3, name="t")


@pytest.fixture(scope="module")
def plan(table):
    queries = UniformWorkload(table, volume_fraction=0.2, seed=5).generate(40)
    return compile_queries(queries, table.column_names)


@pytest.fixture()
def server(table) -> EstimatorServer:
    return EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=16)


class TestServing:
    def test_requires_fitted_model(self) -> None:
        with pytest.raises(NotFittedError):
            EstimatorServer(KDESelectivityEstimator())

    def test_matches_bare_estimator(self, server, table, plan) -> None:
        bare = StreamingADE(max_kernels=32).fit(table)
        np.testing.assert_array_equal(server.estimate_batch(plan), bare.estimate_batch(plan))

    def test_repeat_hits_cache_with_identical_result(self, server, plan) -> None:
        first = server.estimate_batch(plan)
        second = server.estimate_batch(plan)
        np.testing.assert_array_equal(first, second)
        info = server.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert info.hit_rate == 0.5

    def test_empty_batch_skips_model_and_cache(self, server) -> None:
        """Zero-row plans answer an empty vector without polluting the cache."""
        for empty in ([], compile_queries([], server.columns)):
            result = server.estimate_batch(empty)
            assert result.shape == (0,)
            assert result.dtype == np.float64
        info = server.cache_info()
        assert info.size == 0
        assert info.hits == 0 and info.misses == 0

    def test_cached_result_is_read_only(self, server, plan) -> None:
        server.estimate_batch(plan)
        result = server.estimate_batch(plan)
        with pytest.raises(ValueError):
            result[0] = 0.5

    def test_cache_disabled(self, table, plan) -> None:
        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=0)
        server.estimate_batch(plan)
        server.estimate_batch(plan)
        info = server.cache_info()
        assert info.hits == 0 and info.size == 0

    def test_cache_is_lru_bounded(self, table) -> None:
        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=2)
        workloads = [
            UniformWorkload(table, volume_fraction=0.2, seed=s).generate(5)
            for s in range(4)
        ]
        for workload in workloads:
            server.estimate_batch(workload)
        assert server.cache_info().size == 2

    def test_publish_swaps_model_and_invalidates_cache(self, server, table, plan) -> None:
        stale = server.estimate_batch(plan)
        writer = server.checkout()
        writer.insert(np.random.default_rng(1).normal(loc=9.0, size=(500, 2)))
        writer.flush()
        generation = server.publish(writer)
        assert generation == 2 == server.generation
        fresh = server.estimate_batch(plan)
        assert not np.array_equal(fresh, stale)
        expected = StreamingADE(max_kernels=32).fit(table)
        expected.flush()  # the server flushed at construction: align chunk boundaries
        expected.insert(np.random.default_rng(1).normal(loc=9.0, size=(500, 2)))
        expected.flush()
        np.testing.assert_array_equal(fresh, expected.estimate_batch(plan))
        # Only current-generation entries survive the swap.
        assert all(key[0] == server.generation for key in server._cache)

    def test_checkout_is_isolated_from_readers(self, server, plan) -> None:
        before = np.array(server.estimate_batch(plan))
        writer = server.checkout()
        writer.insert(np.full((400, 2), 50.0))
        writer.flush()
        np.testing.assert_array_equal(server.estimate_batch(plan), before)

    def test_publish_rejects_unfitted(self, server) -> None:
        with pytest.raises(NotFittedError):
            server.publish(StreamingADE(max_kernels=16))

    def test_estimate_batch_many(self, server, table) -> None:
        workloads = [
            UniformWorkload(table, volume_fraction=0.2, seed=s).generate(10)
            for s in range(6)
        ]
        results = server.estimate_batch_many(workloads, max_workers=3)
        for workload, result in zip(workloads, results):
            np.testing.assert_array_equal(result, server.estimate_batch(workload))
        with pytest.raises(InvalidParameterError):
            server.estimate_batch_many(workloads, max_workers=0)

    def test_publish_writes_through_to_store(self, table, tmp_path) -> None:
        store = ModelStore(tmp_path / "models")
        server = EstimatorServer(
            StreamingADE(max_kernels=32).fit(table), store=store, model_name="t"
        )
        writer = server.checkout()
        writer.insert(np.zeros((10, 2)))
        server.publish(writer)
        assert store.versions("t") == [1]
        loaded = store.load("t")
        assert loaded.row_count == server.model.row_count


class TestIngestWhileServe:
    """Satellite: hammer the server with a writer and concurrent readers."""

    BATCHES = 15
    READERS = 3

    @staticmethod
    def _batches() -> list[np.ndarray]:
        rng = np.random.default_rng(42)
        return [
            rng.normal(loc=0.4 * i, scale=1.0, size=(120, 2))
            for i in range(TestIngestWhileServe.BATCHES)
        ]

    def test_concurrent_ingest_and_serve(self, table, plan) -> None:
        batches = self._batches()

        # Serial replay: the ground truth estimates of every generation.
        replay = StreamingADE(max_kernels=32).fit(table)
        replay.flush()
        expected: dict[int, bytes] = {1: replay.estimate_batch(plan).tobytes()}
        for i, batch in enumerate(batches):
            replay.insert(batch)
            replay.flush()
            expected[i + 2] = replay.estimate_batch(plan).tobytes()

        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=16)
        errors: list[str] = []
        observed: list[tuple[int, bytes]] = []
        observed_lock = threading.Lock()
        done = threading.Event()

        def writer() -> None:
            try:
                for batch in batches:
                    model = server.checkout()
                    model.insert(batch)
                    model.flush()
                    server.publish(model)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(f"writer: {error!r}")
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set() or len(observed) < 50:
                    generation, result = server.estimate_batch_tagged(plan)
                    payload = result.tobytes()
                    with observed_lock:
                        observed.append((generation, payload))
                    if done.is_set() and len(observed) >= 50:
                        break
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(f"reader: {error!r}")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert observed, "readers never produced a result"

        # No torn reads: every observed result is bitwise the serial-replay
        # answer of the generation that served it.
        for generation, payload in observed:
            assert generation in expected, f"unknown generation {generation}"
            assert payload == expected[generation], (
                f"generation {generation} served a result that matches no "
                f"published model state (torn read)"
            )

        # Final state equals the serial replay of the whole stream.
        assert server.generation == self.BATCHES + 1
        final = server.estimate_batch(plan)
        assert final.tobytes() == expected[self.BATCHES + 1]

        # The cache holds only current-generation entries.
        assert all(key[0] == server.generation for key in server._cache)

    def test_concurrent_cache_serves_only_current_generation(self, table, plan) -> None:
        """A cached answer is never served across a generation boundary."""
        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=8)
        baseline = np.array(server.estimate_batch(plan))
        for step in range(4):
            model = server.checkout()
            model.insert(np.random.default_rng(step).normal(loc=5.0, size=(300, 2)))
            model.flush()
            server.publish(model)
            fresh_model = server.model.estimate_batch(plan)
            served = server.estimate_batch(plan)  # miss: new generation key
            served_again = server.estimate_batch(plan)  # hit: same generation
            np.testing.assert_array_equal(served, fresh_model)
            np.testing.assert_array_equal(served_again, fresh_model)
            assert not np.array_equal(served, baseline)


class TestServerStats:
    """The monitoring endpoint: one consistent, JSON-serialisable dict."""

    def test_counters_and_identity(self, server, plan) -> None:
        import json

        server.estimate_batch(plan)   # miss
        server.estimate_batch(plan)   # hit
        server.estimate_batch(plan)   # hit
        stats = server.stats()
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["cached_plans"] == 1
        assert stats["cache_capacity"] == 16
        assert stats["generation"] == 1
        assert stats["model"] == "streaming_ade"
        assert stats["columns"] == ["x0", "x1"]
        assert stats["generation_swaps"] == 0
        assert stats["cache_invalidations"] == 0
        json.dumps(stats)  # must be pure JSON for monitoring pipelines

    def test_generation_tracks_publishes(self, server, plan) -> None:
        server.estimate_batch(plan)
        fresh = server.checkout()
        server.publish(fresh)
        stats = server.stats()
        assert stats["generation"] == 2
        assert stats["cached_plans"] == 0  # publish invalidated the cache
        assert stats["generation_swaps"] == 1
        assert stats["cache_invalidations"] == 1  # the one cached plan was evicted

    def test_sharded_model_reports_shards(self, table, plan) -> None:
        from repro.shard.sharded import ShardedEstimator

        sharded = ShardedEstimator("equiwidth", shards=3).fit(table)
        server = EstimatorServer(sharded, cache_size=4)
        stats = server.stats()
        assert stats["shards"] == 3
        assert sum(stats["shard_rows"]) == table.row_count
        assert stats["rows_modelled"] == table.row_count

    def test_zero_traffic_hit_rate(self, server) -> None:
        assert server.stats()["hit_rate"] == 0.0


class TestServedEnsembleFeedback:
    """Satellite: weight updates through a served ensemble are real publishes.

    ``EstimatorServer.observe`` must route feedback through the copy-on-write
    protocol: the weight update happens on a private copy, the generation
    bumps, and every cached plan of the superseded version is invalidated —
    a reader can never be answered from a cache entry computed under stale
    expert weights.
    """

    ROUNDS = 10
    READERS = 3

    def test_observe_bumps_generation_and_invalidates_cache(self, table, plan) -> None:
        ensemble = EnsembleEstimator(seed=0).fit(table)
        server = EstimatorServer(ensemble, cache_size=16)
        server.estimate_batch(plan)  # one cached plan under generation 1
        weights_before = np.array(server.model.weights)
        truths = table.true_selectivities(plan)

        generation = server.observe(plan, truths)

        assert generation == 2 == server.generation
        stats = server.stats()
        assert stats["generation_swaps"] == 1
        assert stats["cache_invalidations"] == 1
        assert not np.array_equal(np.array(server.model.weights), weights_before)
        assert all(key[0] == server.generation for key in server._cache)
        # The served model answers under the *new* weights.
        np.testing.assert_array_equal(
            server.estimate_batch(plan), server.model.estimate_batch(plan)
        )

    def test_observe_feedback_estimator_fallback(self, table, plan) -> None:
        from repro.core.feedback import FeedbackAdaptiveEstimator

        model = FeedbackAdaptiveEstimator(
            base=KDESelectivityEstimator(sample_size=128)
        ).fit(table)
        server = EstimatorServer(model, cache_size=4)
        truths = table.true_selectivities(plan)
        assert server.observe(plan, truths) == 2
        assert server.model.feedback_count == len(plan)

    def test_observe_rejects_feedback_free_model(self, table, plan) -> None:
        server = EstimatorServer(KDESelectivityEstimator(sample_size=64).fit(table))
        with pytest.raises(InvalidParameterError):
            server.observe(plan, np.zeros(len(plan)))

    def test_feedback_hammer(self, table, plan) -> None:
        """Readers racing weight updates only ever see published weight states."""
        truths = table.true_selectivities(plan)

        # Serial replay: the correct answer of every feedback generation.
        replay = EnsembleEstimator(seed=0).fit(table)
        replay.flush()
        expected: dict[int, bytes] = {1: replay.estimate_batch(plan).tobytes()}
        for round_index in range(self.ROUNDS):
            replay.observe(plan, truths)
            replay.flush()
            expected[round_index + 2] = replay.estimate_batch(plan).tobytes()

        server = EstimatorServer(EnsembleEstimator(seed=0).fit(table), cache_size=16)
        errors: list[str] = []
        observed: list[tuple[int, bytes]] = []
        observed_lock = threading.Lock()
        done = threading.Event()

        def writer() -> None:
            try:
                for _ in range(self.ROUNDS):
                    server.observe(plan, truths)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(f"writer: {error!r}")
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set() or len(observed) < 50:
                    generation, result = server.estimate_batch_tagged(plan)
                    payload = result.tobytes()
                    with observed_lock:
                        observed.append((generation, payload))
                    if done.is_set() and len(observed) >= 50:
                        break
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(f"reader: {error!r}")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert observed, "readers never produced a result"

        # Every result a reader saw is bitwise the serial-replay answer of
        # the weight state that served it — never a stale-weight cache entry.
        for generation, payload in observed:
            assert generation in expected, f"unknown generation {generation}"
            assert payload == expected[generation], (
                f"generation {generation} served a result computed under "
                f"different expert weights (stale cache entry)"
            )

        assert server.generation == self.ROUNDS + 1
        assert server.estimate_batch(plan).tobytes() == expected[self.ROUNDS + 1]
        stats = server.stats()
        assert stats["generation_swaps"] == self.ROUNDS
        assert stats["cache_invalidations"] >= 1
        assert all(key[0] == server.generation for key in server._cache)


class TestServerTelemetry:
    """PR-8 satellites: one hit-rate source, reset_stats, torn-pair freedom,
    and the instrumented request path's metrics registry contents."""

    def test_hit_rate_single_source(self, table, plan) -> None:
        from repro.obs.metrics import hit_rate

        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=8)
        server.estimate_batch(plan)
        server.estimate_batch(plan)
        info = server.cache_info()
        assert info.hit_rate == hit_rate(info.hits, info.misses)
        assert server.stats()["hit_rate"] == info.hit_rate

    def test_reset_stats_clears_counters_not_generation(self, table, plan) -> None:
        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=8)
        server.estimate_batch(plan)
        server.estimate_batch(plan)
        server.publish(server.checkout())
        server.reset_stats()
        stats = server.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0
        assert stats["cache_invalidations"] == 0
        # the generation bookkeeping must survive a counter reset:
        assert stats["generation_swaps"] == 1
        assert stats["generation"] == 1 + stats["generation_swaps"]

    def test_instrumented_request_path_records(self, table, plan) -> None:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        server = EstimatorServer(
            StreamingADE(max_kernels=32).fit(table), cache_size=8, metrics=metrics
        )
        server.estimate_batch(plan)                      # unlabelled miss
        server.estimate_batch(plan, tenant="a")          # labelled hit
        server.estimate_batch(plan, tenant="a")          # labelled hit
        assert metrics.histogram("serve.request_seconds").count == 3
        assert metrics.histogram("serve.request_seconds", tenant="a").count == 2
        assert metrics.counter("serve.requests", tenant="a", outcome="hit").value == 2
        server.publish(server.checkout())
        assert metrics.histogram("serve.publish_seconds").count == 1
        gauges = metrics.snapshot()["gauges"]
        assert gauges["serve.generation"]["value"] == 2.0
        assert gauges["serve.generation_swaps"]["value"] == 1.0
        assert gauges["serve.hit_rate"]["value"] == pytest.approx(2 / 3)
        server.estimate_batch_many([plan, plan], tenant="b")  # label forwarded
        assert metrics.histogram("serve.request_seconds", tenant="b").count == 2

    def test_uninstrumented_by_default(self, table, plan) -> None:
        server = EstimatorServer(StreamingADE(max_kernels=32).fit(table), cache_size=8)
        assert not server._instrumented
        # tenant labels are accepted and ignored without a registry
        server.estimate_batch(plan, tenant="a")

    def test_stats_never_torn_under_concurrent_publishes(self, table, plan) -> None:
        """generation == 1 + generation_swaps in *every* stats()/snapshot
        readout, even while whole-model publish() and per-shard
        publish_shard() race each other."""
        from repro.obs.metrics import MetricsRegistry
        from repro.shard.sharded import ShardedEstimator

        metrics = MetricsRegistry()
        sharded = ShardedEstimator("equiwidth", shards=2).fit(table)
        server = EstimatorServer(sharded, cache_size=8, metrics=metrics)
        stop = threading.Event()
        torn: list[str] = []

        def whole_model_writer() -> None:
            for _ in range(30):
                server.publish(server.checkout())

        def shard_writer(shard_id: int) -> None:
            for _ in range(30):
                server.publish_shard(shard_id, server.checkout_shard(shard_id))

        def sampler() -> None:
            while not stop.is_set():
                stats = server.stats()
                if stats["generation"] != 1 + stats["generation_swaps"]:
                    torn.append(
                        f"stats: gen={stats['generation']} "
                        f"swaps={stats['generation_swaps']}"
                    )
                gauges = metrics.snapshot()["gauges"]
                if (
                    gauges["serve.generation"]["value"]
                    < gauges["serve.generation_swaps"]["value"]
                ):
                    torn.append("snapshot: generation behind swap counter")

        threads = [
            threading.Thread(target=whole_model_writer),
            threading.Thread(target=shard_writer, args=(0,)),
            threading.Thread(target=shard_writer, args=(1,)),
        ]
        watcher = threading.Thread(target=sampler)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
        assert not torn, torn
        stats = server.stats()
        assert stats["generation"] == 1 + stats["generation_swaps"] == 91
