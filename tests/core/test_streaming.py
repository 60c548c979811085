"""Unit tests for the streaming adaptive density estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, StreamError
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table, uniform_table
from repro.engine.table import Table
from repro.workload.queries import RangeQuery


class TestConstruction:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            StreamingADE(max_kernels=1)
        with pytest.raises(InvalidParameterError):
            StreamingADE(decay=0.0)
        with pytest.raises(InvalidParameterError):
            StreamingADE(decay=1.5)
        with pytest.raises(InvalidParameterError):
            StreamingADE(merge_threshold=-1.0)
        with pytest.raises(InvalidParameterError):
            StreamingADE(smoothing_factor=0.0)

    def test_insert_before_start_raises(self) -> None:
        with pytest.raises(StreamError):
            StreamingADE().insert(np.zeros((1, 1)))

    def test_start_requires_columns(self) -> None:
        with pytest.raises(InvalidParameterError):
            StreamingADE().start([])

    def test_insert_wrong_dimensionality_raises(self) -> None:
        estimator = StreamingADE().start(["a", "b"])
        with pytest.raises(StreamError):
            estimator.insert(np.zeros((3, 3)))


class TestMaintenance:
    def test_kernel_budget_never_exceeded(self) -> None:
        estimator = StreamingADE(max_kernels=32).start(["x0"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            estimator.insert(rng.normal(size=(100, 1)))
            assert estimator.kernel_count <= 32
        assert estimator.row_count == 2000

    def test_weights_conserve_count_without_decay(self) -> None:
        estimator = StreamingADE(max_kernels=16, decay=1.0).start(["x0"])
        estimator.insert(np.random.default_rng(1).normal(size=(500, 1)))
        assert estimator.effective_count == pytest.approx(500.0, rel=1e-9)

    def test_decay_reduces_effective_count(self) -> None:
        estimator = StreamingADE(max_kernels=16, decay=0.99).start(["x0"])
        estimator.insert(np.random.default_rng(2).normal(size=(1000, 1)))
        assert estimator.effective_count < 1000.0

    def test_insert_row_convenience(self) -> None:
        estimator = StreamingADE(max_kernels=8).start(["a", "b"])
        estimator.insert_row([1.0, 2.0])
        assert estimator.kernel_count == 1
        assert estimator.row_count == 1

    def test_duplicate_heavy_stream_stays_compact(self) -> None:
        estimator = StreamingADE(max_kernels=64, merge_threshold=0.5).start(["x0"])
        estimator.insert(np.zeros((500, 1)))
        assert estimator.kernel_count < 10

    def test_compress_reduces_kernel_count(self) -> None:
        estimator = StreamingADE(max_kernels=128).start(["x0"])
        estimator.insert(np.random.default_rng(3).uniform(size=(500, 1)))
        before = estimator.kernel_count
        estimator.compress(16)
        assert estimator.kernel_count <= 16 < before
        # Total weight is preserved by pairwise moment-preserving merges.
        assert estimator.effective_count == pytest.approx(500.0, rel=1e-9)

    def test_compress_invalid_target_raises(self) -> None:
        estimator = StreamingADE().start(["x0"])
        with pytest.raises(InvalidParameterError):
            estimator.compress(0)

    def test_memory_scales_with_kernels(self) -> None:
        small = StreamingADE(max_kernels=16).start(["x0"])
        large = StreamingADE(max_kernels=256).start(["x0"])
        rng = np.random.default_rng(4)
        data = rng.uniform(size=(2000, 1))
        small.insert(data)
        large.insert(data)
        assert large.memory_bytes() > small.memory_bytes()

    def test_fit_streams_whole_table(self, mixture_table_1d: Table) -> None:
        estimator = StreamingADE(max_kernels=64).fit(mixture_table_1d)
        assert estimator.row_count == mixture_table_1d.row_count
        assert estimator.kernel_count <= 64


class TestEstimates:
    def test_empty_model_estimates_zero(self) -> None:
        estimator = StreamingADE().start(["x0"])
        assert estimator.estimate(RangeQuery({"x0": (0, 1)})) == 0.0

    def test_uniform_stream_accuracy(self) -> None:
        table = uniform_table(20_000, dimensions=1, seed=5)
        estimator = StreamingADE(max_kernels=128).fit(table)
        estimate = estimator.estimate(RangeQuery({"x0": (0.25, 0.75)}))
        assert estimate == pytest.approx(0.5, abs=0.05)

    def test_normal_stream_accuracy(self) -> None:
        rng = np.random.default_rng(6)
        estimator = StreamingADE(max_kernels=128).start(["x0"])
        estimator.insert(rng.standard_normal((10_000, 1)))
        estimate = estimator.estimate(RangeQuery({"x0": (-1.0, 1.0)}))
        assert estimate == pytest.approx(0.683, abs=0.06)

    def test_multimodal_gap_gets_little_mass(self) -> None:
        table = gaussian_mixture_table(10_000, dimensions=1, components=2, separation=10.0, seed=7)
        estimator = StreamingADE(max_kernels=128).fit(table)
        values = table.column("x0")
        gap_center = float(values.mean())
        gap_query = RangeQuery({"x0": (gap_center - 0.5, gap_center + 0.5)})
        truth = table.true_selectivity(gap_query)
        assert estimator.estimate(gap_query) <= truth + 0.05

    def test_estimates_valid_for_2d(self, mixture_table_2d: Table, workload_2d) -> None:
        estimator = StreamingADE(max_kernels=128).fit(mixture_table_2d)
        for query in workload_2d:
            assert 0.0 <= estimator.estimate(query) <= 1.0

    def test_drift_adaptation_with_decay(self) -> None:
        rng = np.random.default_rng(8)
        decayed = StreamingADE(max_kernels=64, decay=0.999).start(["x0"])
        landmark = StreamingADE(max_kernels=64, decay=1.0).start(["x0"])
        old = rng.normal(0.0, 0.5, size=(3000, 1))
        new = rng.normal(20.0, 0.5, size=(3000, 1))
        for estimator in (decayed, landmark):
            estimator.insert(old)
            estimator.insert(new)
        query_new = RangeQuery({"x0": (19.0, 21.0)})
        # The decayed model concentrates on the post-drift distribution.
        assert decayed.estimate(query_new) > landmark.estimate(query_new)
        assert decayed.estimate(query_new) > 0.8

    def test_density_positive_near_data(self) -> None:
        rng = np.random.default_rng(9)
        estimator = StreamingADE(max_kernels=64).start(["x0"])
        estimator.insert(rng.standard_normal((2000, 1)))
        density = estimator.density(np.array([[0.0], [50.0]]))
        assert density[0] > density[1]
        assert density[1] == pytest.approx(0.0, abs=1e-6)

    def test_density_dimension_mismatch_raises(self) -> None:
        estimator = StreamingADE(max_kernels=16).start(["a", "b"])
        estimator.insert(np.zeros((10, 2)))
        with pytest.raises(InvalidParameterError):
            estimator.density(np.zeros((3, 1)))

    def test_kernel_introspection_copies(self) -> None:
        estimator = StreamingADE(max_kernels=16).start(["x0"])
        estimator.insert(np.random.default_rng(10).uniform(size=(100, 1)))
        means = estimator.kernel_means
        means[:] = 0.0
        assert not np.allclose(estimator.kernel_means, 0.0)
        assert estimator.kernel_weights.shape[0] == estimator.kernel_count
        assert estimator.kernel_variances.shape == estimator.kernel_means.shape


class TestEmptyInserts:
    def test_empty_2d_insert_is_noop(self) -> None:
        estimator = StreamingADE(max_kernels=8).start(["a", "b"])
        estimator.insert(np.empty((0, 2)))
        assert estimator.row_count == 0
        assert estimator.kernel_count == 0

    def test_empty_1d_insert_is_noop(self) -> None:
        estimator = StreamingADE(max_kernels=8).start(["a", "b"])
        estimator.insert(np.empty(0))
        estimator.insert([])
        assert estimator.row_count == 0
        assert estimator.kernel_count == 0

    def test_empty_insert_between_batches_changes_nothing(self) -> None:
        rng = np.random.default_rng(11)
        data = rng.normal(size=(300, 1))
        with_empty = StreamingADE(max_kernels=16, chunk_size=64).start(["x0"])
        without = StreamingADE(max_kernels=16, chunk_size=64).start(["x0"])
        with_empty.insert(data[:100])
        with_empty.insert(np.empty((0, 1)))
        with_empty.insert(data[100:])
        without.insert(data)
        query = RangeQuery({"x0": (-1.0, 1.0)})
        assert with_empty.estimate(query) == without.estimate(query)


class TestNonFiniteRows:
    @pytest.mark.parametrize("method", ["insert", "insert_sequential"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_with_a_non_finite_value_is_rejected_whole(self, method, bad) -> None:
        """One NaN or infinite row used to zero every later estimate for good."""
        rng = np.random.default_rng(12)
        estimator = StreamingADE(max_kernels=32).start(["x0"])
        estimator.insert(rng.uniform(size=(300, 1)))
        query = RangeQuery({"x0": (0.25, 0.75)})
        before = estimator.estimate(query)
        batch = rng.uniform(size=(20, 1))
        batch[7, 0] = bad
        with pytest.raises(StreamError):
            getattr(estimator, method)(batch)
        assert estimator.row_count == 300
        assert estimator.estimate(query) == before


class TestPruneBelowCapacity:
    def test_decayed_stale_kernels_pruned_below_capacity(self) -> None:
        """Regression: pruning used to run only on the at-capacity branch.

        With decay < 1 and the kernel count below ``max_kernels``, kernels of
        a long-abandoned mode must still be dropped once their weight decays
        to insignificance instead of squatting on budget forever.
        """
        estimator = StreamingADE(max_kernels=256, decay=0.99, prune_weight=1e-3)
        estimator.start(["x0"])
        rng = np.random.default_rng(5)
        estimator.insert(rng.normal(0.0, 0.5, size=(500, 1)))
        assert estimator.kernel_count < estimator.max_kernels  # below capacity
        bytes_before = estimator.memory_bytes()
        # 3000 tuples at decay 0.99 shrink the old mode's weight by ~1e-13.
        estimator.insert(rng.normal(100.0, 0.5, size=(3000, 1)))
        assert estimator.kernel_count < estimator.max_kernels
        assert np.all(estimator.kernel_means[:, 0] > 50.0), "stale kernels survived"
        assert estimator.memory_bytes() <= bytes_before * 2
        assert estimator.effective_count < 500.0

    def test_sequential_path_also_prunes_below_capacity(self) -> None:
        estimator = StreamingADE(max_kernels=256, decay=0.99)
        estimator.start(["x0"])
        rng = np.random.default_rng(6)
        estimator.insert_sequential(rng.normal(0.0, 0.5, size=(200, 1)))
        # While still below capacity, 1500 decayed inserts must purge the
        # abandoned mode's kernels (the old code never pruned on this branch).
        estimator.insert_sequential(rng.normal(100.0, 0.5, size=(1500, 1)))
        assert np.all(estimator.kernel_means[:, 0] > 50.0)

    def test_landmark_model_never_prunes_fresh_weight(self) -> None:
        estimator = StreamingADE(max_kernels=16, decay=1.0).start(["x0"])
        estimator.insert(np.random.default_rng(7).normal(size=(5000, 1)))
        assert estimator.effective_count == pytest.approx(5000.0, rel=1e-9)


class TestBulkIngestion:
    def test_partial_chunk_is_visible_to_estimates(self) -> None:
        # Fewer rows than chunk_size: the flush-on-query path must fold the
        # pending buffer in before answering.
        estimator = StreamingADE(max_kernels=16, chunk_size=256).start(["x0"])
        estimator.insert(np.zeros((5, 1)))
        assert estimator.row_count == 5
        assert estimator.kernel_count >= 1
        assert estimator.estimate(RangeQuery({"x0": (-1.0, 1.0)})) == pytest.approx(1.0)

    def test_flush_is_idempotent(self) -> None:
        estimator = StreamingADE(max_kernels=16, chunk_size=64).start(["x0"])
        estimator.insert(np.random.default_rng(8).normal(size=(30, 1)))
        estimator.flush()
        count = estimator.kernel_count
        estimator.flush()
        assert estimator.kernel_count == count

    def test_chunk_size_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            StreamingADE(chunk_size=0)

    def test_insert_sequential_requires_start(self) -> None:
        with pytest.raises(StreamError):
            StreamingADE().insert_sequential(np.zeros((1, 1)))

    def test_bulk_and_sequential_interoperate(self) -> None:
        # Switching paths mid-stream folds the lazy decay scale correctly.
        rng = np.random.default_rng(9)
        estimator = StreamingADE(max_kernels=32, decay=0.999).start(["x0"])
        estimator.insert(rng.normal(size=(300, 1)))
        estimator.insert_sequential(rng.normal(size=(50, 1)))
        estimator.insert(rng.normal(size=(300, 1)))
        assert estimator.row_count == 650
        assert estimator.kernel_count <= 32
        assert 0.0 <= estimator.estimate(RangeQuery({"x0": (-1.0, 1.0)})) <= 1.0

    def test_wrong_width_empty_batch_still_raises(self) -> None:
        estimator = StreamingADE(max_kernels=8).start(["a", "b"])
        with pytest.raises(StreamError):
            estimator.insert(np.empty((0, 5)))
