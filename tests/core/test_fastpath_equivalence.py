"""Equivalence of the query fast path and the dense reference path.

The support-culling fast path (:mod:`repro.core.fastpath`) must be
observationally equivalent to the dense path within the documented
:data:`~repro.core.fastpath.DEFAULT_ATOL` — for **every** registered
estimator (non-kernel synopses route both "paths" through identical code, so
for them the sweep pins exactness), on hypothesis-generated random boxes plus
the adversarial specials: degenerate point boxes, one-sided and full-domain
(±inf) boxes, and boxes entirely outside the data domain.

Staleness: the index is invalidated by a maintenance epoch, not per-tuple
updates — insert → estimate → flush → compress → estimate must stay
equivalent at every step, and the cached index must actually be reused
between estimates that did not mutate the synopsis.

Composition: the one union index a sharded ``StreamingADE`` serves from
under :class:`~repro.shard.sharded.ShardedEstimator`, and index survival
across the serving layer's copy-on-write ``checkout``/``publish`` cycle.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MetricsRegistry
from repro.core import fastpath
from repro.core.adaptive import AdaptiveKDEEstimator
from repro.core.estimator import (
    SelectivityEstimator,
    available_estimators,
    create_estimator,
)
from repro.core.fastpath import DEFAULT_ATOL, fastpath_disabled
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.engine.table import Table
from repro.serve import EstimatorServer
from repro.shard.sharded import ShardedEstimator
from repro.workload.queries import CompiledQueries

ALL_ESTIMATORS = sorted(available_estimators())

#: Constructor overrides keeping per-test fit cost small.
_FAST_KWARGS: dict[str, dict] = {
    "kde": {"sample_size": 400},
    "adaptive_kde": {"sample_size": 400},
    "sampling": {"sample_size": 200},
    "reservoir_sampling": {"sample_size": 200},
    "streaming_ade": {"max_kernels": 64},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 6},
    "wavelet": {"resolution": 64, "coefficients": 16},
}

_TABLE: Table | None = None
_FITTED: dict[str, SelectivityEstimator] = {}


def _table() -> Table:
    global _TABLE
    if _TABLE is None:
        _TABLE = gaussian_mixture_table(
            rows=4000, dimensions=2, components=3, separation=4.0, seed=11
        )
    return _TABLE


def _fitted(name: str) -> SelectivityEstimator:
    # Module-level cache instead of pytest fixtures: hypothesis re-runs the
    # test body many times and must not re-fit the synopsis each time.
    if name not in _FITTED:
        _FITTED[name] = create_estimator(name, **_FAST_KWARGS.get(name, {})).fit(_table())
    return _FITTED[name]


def _special_boxes(dims: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Degenerate, one-sided, full-domain and out-of-domain boxes."""
    inf = np.inf
    return [
        (np.full(dims, 0.0), np.full(dims, 0.0)),  # point box
        (np.full(dims, -inf), np.full(dims, inf)),  # full domain
        (np.full(dims, -inf), np.full(dims, 0.5)),  # one-sided
        (np.full(dims, 1e6), np.full(dims, 2e6)),  # far outside the data
    ]


def _plan(
    estimator: SelectivityEstimator, boxes: list[tuple[np.ndarray, np.ndarray]]
) -> CompiledQueries:
    dims = len(estimator.columns)
    boxes = boxes + _special_boxes(dims)
    lows = np.stack([np.broadcast_to(np.asarray(b[0], dtype=float), dims) for b in boxes])
    highs = np.stack([np.broadcast_to(np.asarray(b[1], dtype=float), dims) for b in boxes])
    return CompiledQueries(estimator.columns, lows, highs)


def _assert_fast_matches_dense(estimator, plan, atol: float = DEFAULT_ATOL) -> None:
    fast = estimator.estimate_batch(plan)
    with fastpath_disabled():
        dense = estimator.estimate_batch(plan)
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=atol)


_coord = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
_interval = st.tuples(_coord, _coord).map(sorted)
_box = st.tuples(_interval, _interval).map(
    lambda ivs: (
        np.array([ivs[0][0], ivs[1][0]]),
        np.array([ivs[0][1], ivs[1][1]]),
    )
)
_boxes = st.lists(_box, min_size=1, max_size=8)


def _probe_boxes() -> list[tuple[np.ndarray, np.ndarray]]:
    """A fixed selective workload used by the staleness/composition tests."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(-6, 6, size=(40, 2))
    return [(c - 0.4, c + 0.4) for c in centers]


#: Fine-grained kernel synopses on which ±0.4 boxes all route culled.
_FINE_MODELS = {
    "streaming_ade": lambda: StreamingADE(max_kernels=256),
    "kde": lambda: KDESelectivityEstimator(sample_size=1000, bandwidths=[0.05, 0.05]),
    "adaptive_kde": lambda: AdaptiveKDEEstimator(sample_size=1000, bandwidths=[0.05, 0.05]),
}
_FINE_FITTED: dict[str, SelectivityEstimator] = {}


def _fine(name: str) -> SelectivityEstimator:
    if name not in _FINE_FITTED:
        _FINE_FITTED[name] = _FINE_MODELS[name]().fit(_table())
    return _FINE_FITTED[name]


def _selective_plan(estimator: SelectivityEstimator) -> CompiledQueries:
    """120 boxes of ±0.4 over the data's span: several per spatial group."""
    rng = np.random.default_rng(13)
    centers = rng.uniform(-6, 6, size=(120, 2))
    return CompiledQueries(estimator.columns, centers - 0.4, centers + 0.4)


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
@given(boxes=_boxes)
@settings(max_examples=15, deadline=None)
def test_fast_matches_dense_on_random_boxes(name: str, boxes) -> None:
    estimator = _fitted(name)
    _assert_fast_matches_dense(estimator, _plan(estimator, boxes))


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
@given(boxes=_boxes)
@settings(max_examples=10, deadline=None)
def test_one_row_plans_match_dense_and_the_multi_box_plan(name: str, boxes) -> None:
    """Every random and special box as its own 1-row plan (the one-box route)."""
    estimator = _fitted(name)
    plan = _plan(estimator, boxes)
    together = estimator.estimate_batch(plan)
    for row in range(len(plan)):
        single = CompiledQueries(plan.columns, plan.lows[row : row + 1], plan.highs[row : row + 1])
        _assert_fast_matches_dense(estimator, single)
        np.testing.assert_allclose(
            estimator.estimate_batch(single), together[row : row + 1], rtol=0.0, atol=DEFAULT_ATOL
        )


class TestOneBoxRoute:
    """The one-box route keeps the grouped route's dense/culled rule exactly."""

    def test_route_at_the_dense_boundary(self) -> None:
        # 40 kernels at x = 0..39 with radius 0.5: the dense share is 30 kernels.
        centers = np.column_stack([np.arange(40.0), np.zeros(40)])
        index = fastpath.KernelSupportIndex(centers, 0.5)
        weights = np.ones(40)

        def axis_mass(ids, axis, low, high, *, tail=None):
            means = centers[:, axis] if ids is None else centers[ids, axis]
            return fastpath.normal_box_mass(low, high, means, 0.1, tail=tail)

        def route(low_x: float, high_x: float):
            lows, highs = np.array([[low_x, -1.0]]), np.array([[high_x, 1.0]])
            return (
                index.candidate_counts(lows, highs).min(),
                fastpath.estimate_boxes(lows, highs, index, weights, 40.0, axis_mass),
                fastpath.weighted_box_masses(lows, highs, axis_mass, weights, 40.0),
            )

        counted, culled, dense = route(0.5, 28.25)  # window [0, 28.75]: 29 kernels
        assert counted == 29
        assert culled == pytest.approx(dense, abs=1e-12)
        counted, culled, _ = route(0.5, 28.5)  # window [0, 29]: 30 kernels
        assert counted == 30 and culled is None

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_route_follows_the_tightest_candidate_count(self, dims: int) -> None:
        rng = np.random.default_rng(60 + dims)
        kernels = 200  # the dense share is exactly 150 kernels
        centers = rng.normal(size=(kernels, dims))
        radii = rng.uniform(0.01, 0.2, size=(kernels, dims))
        index = fastpath.KernelSupportIndex(centers, radii)
        weights = rng.uniform(0.5, 2.0, size=kernels)
        total = float(weights.sum())
        # Gaussian kernels whose cull radius is the index's support radius.
        stds = radii / fastpath.gaussian_cull_radius()

        def axis_mass(ids, axis, low, high, *, tail=None):
            means, scale = centers[:, axis], stds[:, axis]
            if ids is not None:
                means, scale = means[ids], scale[ids]
            return fastpath.normal_box_mass(low, high, means, scale, tail=tail)

        inf = np.full(dims, np.inf)
        random_lows = rng.uniform(-2.0, 1.5, size=(40, dims))
        boxes = [(low, low + rng.uniform(0.0, 2.5, size=dims)) for low in random_lows]
        boxes += [
            (np.zeros(dims), np.zeros(dims)),  # point
            (-inf, inf),  # full domain
            (-inf, np.zeros(dims)),  # one-sided
            (np.full(dims, 1e6), np.full(dims, 2e6)),  # outside every support
        ]
        # Boxes whose tightest axis (axis 0; the others are unbounded) holds
        # just below, at and just above 0.75·K kernels: the window's edges
        # sit halfway between neighbouring positions, widened by the radius.
        positions = index.axis_positions[0]
        radius = index.max_radii[0]
        for target in (148, 149, 150, 151, 152):
            first = int(rng.integers(1, kernels - target))
            low, high = np.full(dims, -np.inf), np.full(dims, np.inf)
            low[0] = 0.5 * (positions[first - 1] + positions[first]) + radius
            high[0] = 0.5 * (positions[first + target - 1] + positions[first + target]) - radius
            boxes.append((low, high))

        counted = []
        for low, high in boxes:
            lows, highs = low[None], high[None]
            count = index.candidate_counts(lows, highs).min()
            counted.append(count)
            registry = MetricsRegistry()
            fastpath.set_route_metrics(registry)
            try:
                culled = fastpath.estimate_boxes(lows, highs, index, weights, total, axis_mass)
            finally:
                fastpath.set_route_metrics(None)
            dense = count >= 0.75 * kernels
            assert (culled is None) == dense
            assert registry.counter("fastpath.dense_queries").value == int(dense)
            assert registry.counter("fastpath.culled_queries").value == int(not dense)
            if not dense:
                # The grouped route answers each copy of the box bitwise alike.
                twice = fastpath.estimate_boxes(
                    np.vstack([lows, lows]), np.vstack([highs, highs]),
                    index, weights, total, axis_mass,
                )
                assert twice.tobytes() == np.concatenate([culled, culled]).tobytes()
                reference = fastpath.weighted_box_masses(lows, highs, axis_mass, weights, total)
                np.testing.assert_allclose(culled, reference, rtol=0.0, atol=DEFAULT_ATOL)
        assert {148, 149, 150, 151, 152} <= set(counted)
        assert min(counted) == 0 and max(counted) == kernels

    def test_box_candidates_match_a_brute_force_overlap(self) -> None:
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(500, 3))
        radii = rng.uniform(0.05, 0.6, size=(500, 3))
        index = fastpath.KernelSupportIndex(centers, radii)
        for _ in range(50):
            low = rng.uniform(-2.0, 1.0, size=3)
            high = low + rng.uniform(0.0, 1.5, size=3)
            overlap = np.all((centers + radii >= low) & (centers - radii <= high), axis=1)
            np.testing.assert_array_equal(
                index.box_candidates(low, high), np.flatnonzero(overlap)
            )


class TestCulledPairs:
    """The grouped route evaluates only the (box, kernel) pairs that overlap."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_overlaps_match_a_brute_force_mask(self, dims: int) -> None:
        rng = np.random.default_rng(40 + dims)
        kernels = 300
        centers = rng.normal(size=(kernels, dims))
        radii = rng.uniform(0.02, 0.5, size=(kernels, dims))
        index = fastpath.KernelSupportIndex(centers, radii)
        random_lows = rng.uniform(-2.0, 1.5, size=(40, dims))
        random_highs = random_lows + rng.uniform(0.0, 1.0, size=(40, dims))
        inf = np.full(dims, np.inf)
        # random, point, full-domain, one-sided and outside-every-support boxes
        lows = np.vstack([random_lows, np.zeros(dims), -inf, -inf, np.full(dims, 1e6)])
        highs = np.vstack([random_highs, np.zeros(dims), inf, np.zeros(dims), np.full(dims, 2e6)])
        subset = np.sort(rng.choice(kernels, size=120, replace=False))
        for ids in (np.arange(kernels), subset, np.arange(0)):
            upper, lower = centers[ids] + radii[ids], centers[ids] - radii[ids]
            expected = [
                box * kernels + ids[np.all((upper >= low) & (lower <= high), axis=1)]
                for box, (low, high) in enumerate(zip(lows, highs))
            ]
            np.testing.assert_array_equal(
                index.overlaps(lows, highs, ids), np.concatenate(expected)
            )
        assert index.overlaps(lows[-1:], highs[-1:], np.arange(kernels)).size == 0
        # For one box the pair codes are the box's own candidate ids.
        for low, high in zip(lows, highs):
            np.testing.assert_array_equal(
                index.overlaps(low[None], high[None], np.arange(kernels)),
                index.box_candidates(low, high),
            )

    @pytest.mark.parametrize("boxes", [120, 16])
    @pytest.mark.parametrize("name", sorted(_FINE_MODELS))
    def test_culled_boxes_answer_bitwise_as_one_box_plans(self, name: str, boxes: int) -> None:
        # 16 boxes fit one grid cell and form one group; 120 boxes do not.
        estimator = _fine(name)
        selective = _selective_plan(estimator)
        plan = CompiledQueries(selective.columns, selective.lows[:boxes], selective.highs[:boxes])
        registry = MetricsRegistry()
        fastpath.set_route_metrics(registry)
        try:
            together = estimator.estimate_batch(plan)
        finally:
            fastpath.set_route_metrics(None)
        assert registry.counter("fastpath.dense_queries").value == 0
        assert registry.counter("fastpath.culled_queries").value == len(plan)
        for row in range(len(plan)):
            rows = slice(row, row + 1)
            single = CompiledQueries(plan.columns, plan.lows[rows], plan.highs[rows])
            assert estimator.estimate_batch(single).tobytes() == together[rows].tobytes()

    @pytest.mark.parametrize("name", sorted(_FINE_MODELS))
    def test_a_group_split_into_blocks_answers_bitwise(self, name: str, monkeypatch) -> None:
        estimator = _fine(name)
        plan = _selective_plan(estimator)
        whole = estimator.estimate_batch(plan)
        probes, blocks = [], []
        box_candidates = fastpath.KernelSupportIndex.box_candidates
        overlaps = fastpath.KernelSupportIndex.overlaps

        def counted_probe(index, low, high):
            probes.append(low)
            return box_candidates(index, low, high)

        def counted_overlaps(index, lows, highs, ids):
            blocks.append(lows.shape[0])
            return overlaps(index, lows, highs, ids)

        monkeypatch.setattr(fastpath, "_BUFFER_ELEMENTS", 256)
        monkeypatch.setattr(fastpath.KernelSupportIndex, "box_candidates", counted_probe)
        monkeypatch.setattr(fastpath.KernelSupportIndex, "overlaps", counted_overlaps)
        blocked = estimator.estimate_batch(plan)
        assert len(blocks) > len(probes)  # some group spans several blocks
        assert blocked.tobytes() == whole.tobytes()
        with fastpath_disabled():
            dense = estimator.estimate_batch(plan)
        np.testing.assert_allclose(blocked, dense, rtol=0.0, atol=DEFAULT_ATOL)


    @pytest.mark.parametrize("name", sorted(_FINE_MODELS))
    def test_only_broad_boxes_clamp_the_normal_cdf(self, name: str, monkeypatch) -> None:
        estimator = _fine(name)
        selective = _selective_plan(estimator)
        # ±0.2 boxes: narrower than twice every fine model's largest radius
        narrow = CompiledQueries(selective.columns, selective.lows + 0.2, selective.highs - 0.2)
        expected = estimator.estimate_batch(narrow)
        clamped = []
        clamped_normal_mass = fastpath.clamped_normal_mass

        def counted(z, tail):
            clamped.append(z.size)
            return clamped_normal_mass(z, tail)

        monkeypatch.setattr(fastpath, "clamped_normal_mass", counted)
        assert estimator.estimate_batch(narrow).tobytes() == expected.tobytes()
        assert clamped == []
        # Unbounded boxes are broad: the full domain (dense-routed) and a
        # half-plane (culled on its bounded axis).
        inf = np.inf
        plan = CompiledQueries(
            narrow.columns,
            np.vstack([narrow.lows, [[-inf, -inf], [-inf, -inf]]]),
            np.vstack([narrow.highs, [[inf, inf], [-3.0, inf]]]),
        )
        mixed = estimator.estimate_batch(plan)
        assert clamped
        assert mixed[: len(narrow)].tobytes() == expected.tobytes()
        clamped.clear()
        with fastpath_disabled():
            dense = estimator.estimate_batch(plan)
        assert clamped == []
        np.testing.assert_allclose(mixed, dense, rtol=0.0, atol=DEFAULT_ATOL)


class TestDenseReferenceReachable:
    """`fastpath_disabled()` pins the dense path and stays contract-complete."""

    @pytest.mark.parametrize("name", ["kde", "adaptive_kde", "streaming_ade"])
    def test_fastpath_false_never_builds_an_index(self, name: str) -> None:
        estimator = create_estimator(name, **_FAST_KWARGS[name]).fit(_table())
        plan = _plan(estimator, [(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))])
        with fastpath_disabled():
            dense = estimator.estimate_batch(plan)
        assert estimator._support_cache is None
        assert "fastpath" not in estimator.config()
        # and its answers agree with the fast path within the documented atol
        assert estimator.estimate_batch(plan) == pytest.approx(dense, abs=DEFAULT_ATOL)
        assert estimator._support_cache is not None

    def test_disabled_context_restores_switch(self) -> None:
        assert fastpath.fastpath_enabled()
        with fastpath_disabled():
            assert not fastpath.fastpath_enabled()
        assert fastpath.fastpath_enabled()


class TestStaleness:
    """insert → estimate → flush → compress all rebuild the index lazily."""

    def test_streaming_maintenance_keeps_equivalence(self) -> None:
        rng = np.random.default_rng(17)
        estimator = StreamingADE(max_kernels=64, chunk_size=32)
        estimator.start(["x0", "x1"])
        plan = _plan(estimator, _probe_boxes())

        estimator.insert(rng.normal(size=(200, 2)))
        _assert_fast_matches_dense(estimator, plan)  # flushes + builds index
        cached = estimator._support_cache
        assert cached is not None

        # No mutation between estimates: the cached index must be reused.
        estimator.estimate_batch(plan)
        assert estimator._support_cache is cached

        # A partial insert leaves rows buffered; the estimate-side flush must
        # fold them in and invalidate the index (epoch moved).
        estimator.insert(rng.normal(size=(7, 2)) + 3.0)
        _assert_fast_matches_dense(estimator, plan)
        assert estimator._support_cache is not cached

        estimator.insert(rng.normal(size=(500, 2)) - 2.0)
        estimator.flush()
        _assert_fast_matches_dense(estimator, plan)

        estimator.compress(16)
        assert estimator.kernel_count <= 16
        _assert_fast_matches_dense(estimator, plan)

    def test_kde_set_bandwidths_invalidates(self) -> None:
        estimator = KDESelectivityEstimator(sample_size=400).fit(_table())
        plan = _plan(estimator, _probe_boxes())
        _assert_fast_matches_dense(estimator, plan)
        cached = estimator._support_cache
        assert cached is not None
        estimator.set_bandwidths(estimator.bandwidths * 2.5)
        assert estimator._support_cache is None
        _assert_fast_matches_dense(estimator, plan)

    def test_snapshot_restore_invalidates(self) -> None:
        estimator = StreamingADE(max_kernels=64).fit(_table())
        plan = _plan(estimator, _probe_boxes())
        _assert_fast_matches_dense(estimator, plan)
        restored = StreamingADE(max_kernels=64)
        restored.load_state(estimator.state_dict())
        assert restored._support_cache is None
        _assert_fast_matches_dense(restored, plan)
        np.testing.assert_array_equal(
            restored.estimate_batch(plan), estimator.estimate_batch(plan)
        )


class TestComposition:
    """The sharded union's index and index survival across serving swaps."""

    def test_sharded_reads_share_one_union_index(self, monkeypatch) -> None:
        builds: list[int] = []

        class CountingIndex(fastpath.KernelSupportIndex):
            __slots__ = ()

            def __init__(self, centers, radii) -> None:
                builds.append(len(centers))
                super().__init__(centers, radii)

        monkeypatch.setattr(fastpath, "KernelSupportIndex", CountingIndex)
        table = _table()
        sharded = ShardedEstimator(
            StreamingADE(max_kernels=64), shards=2, partitioner="hash"
        ).fit(table)
        plan = _plan(sharded, _probe_boxes())
        _assert_fast_matches_dense(sharded, plan)
        # One union over every shard's kernels, with one index; the shards
        # build none of their own.
        union = sharded.merged_estimator()
        cached = union._support_cache
        assert builds == [union.kernel_count]
        assert union.kernel_count == sum(s.kernel_count for s in sharded.shard_estimators)
        assert all(shard._support_cache is None for shard in sharded.shard_estimators)
        # A second read reuses both the union and its index, and a deep copy
        # (the serving layer's publish) carries them along.
        sharded.estimate_batch(plan)
        assert sharded.merged_estimator() is union
        assert union._support_cache is cached
        copy.deepcopy(sharded).estimate_batch(plan)
        assert len(builds) == 1

        # A routed insert drops the union; the next read builds a fresh one
        # and stays equivalent to the dense path.
        sharded.insert(np.random.default_rng(23).normal(size=(300, 2)))
        _assert_fast_matches_dense(sharded, plan)
        assert sharded.merged_estimator() is not union
        assert len(builds) == 2

        # A shard swap, a shard refit and a shard loss each drop it too.
        union = sharded.merged_estimator()
        clone = sharded.with_shard(0, sharded.checkout_shard(0))
        assert clone.merged_estimator() is not union
        sharded.refit_shard(1, table)
        assert sharded.merged_estimator() is not union
        union = sharded.merged_estimator()
        sharded.mark_shard_lost(0)
        assert not sharded.merge_mode
        assert sharded.merged_estimator() is not union

    def test_index_survives_checkout_publish(self) -> None:
        model = StreamingADE(max_kernels=64).fit(_table())
        server = EstimatorServer(model, cache_size=8)
        plan = _plan(model, _probe_boxes())
        served_before = server.estimate_batch(plan)
        assert server.model._support_cache is not None

        writer = server.checkout()
        # The copy-on-write checkout carries the warm index along ...
        assert writer._support_cache is not None
        assert writer._support_cache[1] is not server.model._support_cache[1]
        rng = np.random.default_rng(29)
        writer.insert(rng.normal(size=(400, 2)) + 1.5)
        writer.flush()
        server.publish(writer)

        served_after = server.estimate_batch(plan)
        with fastpath_disabled():
            dense_after = server.model.estimate_batch(plan)
        np.testing.assert_allclose(served_after, dense_after, rtol=0.0, atol=DEFAULT_ATOL)
        assert not np.array_equal(served_before, served_after)
