"""Unit tests for reservoir samplers and sliding windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.stream.reservoir import DecayedReservoirSampler, ReservoirSampler
from repro.stream.windows import SlidingWindow


class TestReservoirSampler:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(0, 1)
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(10, 0)

    def test_fills_up_to_capacity(self) -> None:
        sampler = ReservoirSampler(capacity=50, dimensions=2, seed=0)
        sampler.insert(np.arange(60).reshape(30, 2))
        assert sampler.size == 30
        sampler.insert(np.arange(100).reshape(50, 2))
        assert sampler.size == 50
        assert sampler.seen == 80

    def test_wrong_dimension_raises(self) -> None:
        sampler = ReservoirSampler(capacity=5, dimensions=2)
        with pytest.raises(InvalidParameterError):
            sampler.insert(np.zeros((3, 3)))

    def test_sample_is_subset_of_stream(self) -> None:
        sampler = ReservoirSampler(capacity=20, dimensions=1, seed=1)
        stream = np.arange(500, dtype=float).reshape(-1, 1)
        sampler.insert(stream)
        sample = sampler.sample()
        assert sample.shape == (20, 1)
        assert set(sample[:, 0]).issubset(set(stream[:, 0]))

    def test_uniformity_of_retention(self) -> None:
        # Each element of a 200-element stream should be retained ~ capacity/200
        # of the time; check the first and second half are retained equally often.
        hits_first_half = 0
        hits_second_half = 0
        for seed in range(300):
            sampler = ReservoirSampler(capacity=10, dimensions=1, seed=seed)
            sampler.insert(np.arange(200, dtype=float).reshape(-1, 1))
            sample = sampler.sample()[:, 0]
            hits_first_half += int(np.sum(sample < 100))
            hits_second_half += int(np.sum(sample >= 100))
        ratio = hits_first_half / hits_second_half
        assert 0.8 < ratio < 1.25

    def test_reset(self) -> None:
        sampler = ReservoirSampler(capacity=5, dimensions=1)
        sampler.insert(np.ones((10, 1)))
        sampler.reset()
        assert sampler.size == 0
        assert sampler.seen == 0

    def test_reproducible_with_seed(self) -> None:
        stream = np.random.default_rng(3).uniform(size=(300, 1))
        a = ReservoirSampler(10, 1, seed=42)
        b = ReservoirSampler(10, 1, seed=42)
        a.insert(stream)
        b.insert(stream)
        np.testing.assert_array_equal(a.sample(), b.sample())


class TestDecayedReservoirSampler:
    def test_biased_towards_recent(self) -> None:
        recent_fraction = []
        for seed in range(50):
            sampler = DecayedReservoirSampler(capacity=50, dimensions=1, seed=seed)
            old = np.zeros((2000, 1))
            new = np.ones((2000, 1))
            sampler.insert(old)
            sampler.insert(new)
            recent_fraction.append(float(np.mean(sampler.sample()[:, 0])))
        # A uniform reservoir would keep ~50% old rows; the biased one keeps
        # almost exclusively recent rows after 2000 recent inserts (capacity 50).
        assert np.mean(recent_fraction) > 0.9

    def test_fills_before_replacing(self) -> None:
        sampler = DecayedReservoirSampler(capacity=10, dimensions=1, seed=0)
        sampler.insert(np.arange(5, dtype=float).reshape(-1, 1))
        assert sampler.size == 5
        np.testing.assert_array_equal(np.sort(sampler.sample()[:, 0]), np.arange(5.0))


class TestSlidingWindow:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            SlidingWindow(0, 1)
        with pytest.raises(InvalidParameterError):
            SlidingWindow(10, 0)

    def test_keeps_most_recent_rows_in_order(self) -> None:
        window = SlidingWindow(capacity=5, dimensions=1)
        window.insert(np.arange(8, dtype=float).reshape(-1, 1))
        contents = window.contents()[:, 0]
        np.testing.assert_array_equal(contents, [3.0, 4.0, 5.0, 6.0, 7.0])
        assert window.is_full
        assert window.seen == 8
        assert window.size == 5

    def test_partial_fill(self) -> None:
        window = SlidingWindow(capacity=10, dimensions=2)
        window.insert(np.ones((4, 2)))
        assert window.size == 4
        assert not window.is_full
        assert window.contents().shape == (4, 2)

    def test_wrong_dimension_raises(self) -> None:
        window = SlidingWindow(capacity=4, dimensions=2)
        with pytest.raises(InvalidParameterError):
            window.insert(np.zeros((2, 1)))

    def test_clear(self) -> None:
        window = SlidingWindow(capacity=4, dimensions=1)
        window.insert(np.ones((4, 1)))
        window.clear()
        assert window.size == 0
        assert window.seen == 4
        assert window.contents().shape == (0, 1)


class TestEmptyBatches:
    def test_reservoir_empty_insert_is_noop(self) -> None:
        sampler = ReservoirSampler(capacity=5, dimensions=2, seed=0)
        sampler.insert(np.empty((0, 2)))
        sampler.insert(np.empty(0))
        assert sampler.size == 0
        assert sampler.seen == 0

    def test_decayed_reservoir_empty_insert_is_noop(self) -> None:
        sampler = DecayedReservoirSampler(capacity=5, dimensions=2, seed=0)
        sampler.insert(np.empty((0, 2)))
        assert sampler.size == 0

    def test_window_empty_insert_is_noop(self) -> None:
        window = SlidingWindow(capacity=5, dimensions=1)
        window.insert(np.empty((0, 1)))
        window.insert(np.empty(0))
        assert window.size == 0
        assert window.seen == 0


class TestVectorizedEquivalence:
    def test_window_bulk_matches_row_at_a_time(self) -> None:
        data = np.arange(37, dtype=float).reshape(-1, 1)
        bulk = SlidingWindow(capacity=7, dimensions=1)
        rowwise = SlidingWindow(capacity=7, dimensions=1)
        bulk.insert(data)
        for row in data:
            rowwise.insert(row)
        np.testing.assert_array_equal(bulk.contents(), rowwise.contents())
        assert bulk.seen == rowwise.seen

    def test_window_inserts_crossing_wraparound(self) -> None:
        window = SlidingWindow(capacity=5, dimensions=1)
        window.insert(np.arange(3, dtype=float).reshape(-1, 1))
        window.insert(np.arange(3, 7, dtype=float).reshape(-1, 1))  # wraps
        np.testing.assert_array_equal(window.contents()[:, 0], [2.0, 3.0, 4.0, 5.0, 6.0])

    def test_window_oversized_batch_keeps_last_rows(self) -> None:
        window = SlidingWindow(capacity=4, dimensions=1)
        window.insert(np.ones((2, 1)))
        window.insert(np.arange(100, dtype=float).reshape(-1, 1))
        np.testing.assert_array_equal(window.contents()[:, 0], [96.0, 97.0, 98.0, 99.0])

    @pytest.mark.parametrize("sampler_type", [ReservoirSampler, DecayedReservoirSampler])
    def test_reservoir_bulk_matches_row_at_a_time(self, sampler_type) -> None:
        # One uniform variate is consumed per replacement row in stream
        # order, so the same seed yields the same reservoir for any batching.
        data = np.random.default_rng(3).uniform(size=(123, 2))
        bulk = sampler_type(capacity=11, dimensions=2, seed=42)
        rowwise = sampler_type(capacity=11, dimensions=2, seed=42)
        bulk.insert(data)
        for row in data:
            rowwise.insert(row)
        np.testing.assert_array_equal(bulk.sample(), rowwise.sample())
        assert bulk.seen == rowwise.seen == 123

    def test_wrong_width_empty_batch_still_raises(self) -> None:
        # A zero-row batch with an explicit wrong width is a schema bug, not
        # an empty no-op: surface it immediately.
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(capacity=5, dimensions=2, seed=0).insert(np.empty((0, 5)))
        with pytest.raises(InvalidParameterError):
            SlidingWindow(capacity=5, dimensions=2).insert(np.empty((0, 5)))


class TestNonFiniteRows:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ReservoirSampler(capacity=8, dimensions=2, seed=0),
            lambda: DecayedReservoirSampler(capacity=8, dimensions=2, seed=0),
            lambda: SlidingWindow(capacity=8, dimensions=2),
        ],
        ids=["reservoir", "decayed_reservoir", "window"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_with_a_non_finite_value_is_rejected_whole(self, make, bad) -> None:
        substrate = make()
        substrate.insert(np.ones((3, 2)))
        batch = np.zeros((4, 2))
        batch[2, 1] = bad
        with pytest.raises(InvalidParameterError):
            substrate.insert(batch)
        assert substrate.seen == 3
        assert substrate.size == 3
