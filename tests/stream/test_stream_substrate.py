"""Unit tests for the reservoir samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.stream.reservoir import DecayedReservoirSampler, ReservoirSampler


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


class TestVectorizedEquivalence:
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


class TestNonFiniteRows:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ReservoirSampler(capacity=8, dimensions=2, seed=0),
            lambda: DecayedReservoirSampler(capacity=8, dimensions=2, seed=0),
        ],
        ids=["reservoir", "decayed_reservoir"],
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
