"""Oracle tests for the distance and merge work in the ``StreamingADE`` chunk fold.

The fold computes max-norm distances with one 2-D pass per attribute and
reads compaction candidates through an upper-triangle mask.  The references
below are the dense 3-D formulations it replaced; every merge decision, and
so the fitted synopsis, must match them bitwise, exact distance ties
included (gridded means make ties common).  The last section does the same
for the fold's grouping, its merge sums and its one nearest-kernel search
per chunk, against ``np.unique``, ``np.add.at`` and a search per candidate.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import streaming
from repro.core.streaming import StreamingADE


def _reference_compress_to(model: StreamingADE, target: int) -> None:
    """The 3-D ``_compress_to`` the fold used before: the merge-order oracle."""
    while model._weights.size > target:
        kernels = model._weights.size
        excess = kernels - target
        smoothing = model._smoothing_bandwidths()
        normalised = model._means / smoothing
        diff = np.abs(normalised[:, None, :] - normalised[None, :, :]).max(axis=2)
        iu, ju = np.triu_indices(kernels, k=1)
        flat = diff[iu, ju]
        limit = min(flat.size, 4 * excess + 16)
        candidates = np.argpartition(flat, limit - 1)[:limit]
        candidates = candidates[np.argsort(flat[candidates], kind="stable")]
        used = np.zeros(kernels, dtype=bool)
        left: list[int] = []
        right: list[int] = []
        for a, b in zip(iu[candidates], ju[candidates]):
            if used[a] or used[b]:
                continue
            used[a] = used[b] = True
            left.append(int(a))
            right.append(int(b))
            if len(left) == excess:
                break
        i = np.asarray(left, dtype=np.int64)
        j = np.asarray(right, dtype=np.int64)
        wi = model._weights[i]
        wj = model._weights[j]
        total = wi + wj
        mean = (
            wi[:, None] * model._means[i] + wj[:, None] * model._means[j]
        ) / total[:, None]
        var = (
            wi[:, None] * (model._variances[i] + model._means[i] ** 2)
            + wj[:, None] * (model._variances[j] + model._means[j] ** 2)
        ) / total[:, None] - mean**2
        model._weights[i] = total
        model._means[i] = mean
        model._variances[i] = np.maximum(var, 0.0)
        keep = np.ones(kernels, dtype=bool)
        keep[j] = False
        model._means = model._means[keep]
        model._variances = model._variances[keep]
        model._weights = model._weights[keep]


def _reference_nearest_kernels(
    model: StreamingADE, points: np.ndarray, smoothing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense 3-D nearest-kernel assignment: the oracle for the blocked one."""
    scaled_means = model._means / smoothing
    scaled_points = points / smoothing
    dist = np.abs(scaled_points[:, None, :] - scaled_means[None, :, :]).max(axis=2)
    nearest = dist.argmin(axis=1)
    return nearest, dist[np.arange(points.shape[0]), nearest]


def _model(means: np.ndarray, weights: np.ndarray, variances: np.ndarray) -> StreamingADE:
    """A started model holding exactly the given kernels and their moments."""
    dims = means.shape[1]
    model = StreamingADE(max_kernels=max(weights.size, 2))
    model.start([f"x{axis}" for axis in range(dims)])
    model._means = means.copy()
    model._variances = variances.copy()
    model._weights = weights.copy()
    model._sum_w = float(weights.sum())
    model._sum_wx = weights @ means
    model._sum_wx2 = weights @ (means**2 + variances)
    model._domain_low = means.min(axis=0)
    model._domain_high = means.max(axis=0)
    return model


def _gridded(draw, shape: tuple[int, ...], cells: int) -> np.ndarray:
    """Values on a half-unit grid of ``cells + 1`` points: duplicates are common."""
    return draw(arrays(np.int64, shape, elements=st.integers(0, cells))) * 0.5


@st.composite
def _kernel_sets(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    dims = draw(st.integers(1, 3))
    kernels = draw(st.integers(2, 80))
    means = _gridded(draw, (kernels, dims), draw(st.integers(1, 4)))
    weights = draw(
        arrays(np.float64, kernels, elements=st.sampled_from([1.0, 2.0, 3.5, 0.25]))
    )
    variances = draw(
        arrays(np.float64, (kernels, dims), elements=st.sampled_from([0.0, 0.25, 1.0]))
    )
    target = draw(st.integers(1, kernels - 1))
    return means, weights, variances, target


def _assert_same_kernels(model: StreamingADE, reference: StreamingADE) -> None:
    for name in ("_means", "_variances", "_weights"):
        got, want = getattr(model, name), getattr(reference, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(kernel_set=_kernel_sets())
def test_compress_matches_the_dense_reference_bitwise(kernel_set) -> None:
    means, weights, variances, target = kernel_set
    model = _model(means, weights, variances)
    reference = _model(means, weights, variances)
    model._compress_to(target)
    _reference_compress_to(reference, target)
    assert model._weights.size <= target
    _assert_same_kernels(model, reference)


def test_compress_keeps_the_tie_order_on_a_duplicated_grid() -> None:
    """Three kernels on each of 12 grid points: the pre-selected candidates
    mix tied and distinct distances, so an unstable sort of them, or any
    other tie order, pairs different kernels for some targets."""
    means = np.repeat(np.arange(12.0) * 0.5, 3)[:, None]
    weights = 1.0 + np.arange(36) % 3
    variances = np.zeros((36, 1))
    for target in range(1, 36):
        model = _model(means, weights, variances)
        reference = _model(means, weights, variances)
        model._compress_to(target)
        _reference_compress_to(reference, target)
        _assert_same_kernels(model, reference)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nearest_kernels_match_a_dense_argmin(data) -> None:
    dims = data.draw(st.integers(1, 3))
    kernels = data.draw(st.integers(40, 400))
    block = streaming._ASSIGN_BUFFER_ELEMENTS // kernels
    # Whole blocks plus a ragged tail: never a multiple of the block.
    points = data.draw(st.integers(0, 2)) * block + data.draw(st.integers(1, block - 1))
    cells = data.draw(st.integers(1, 6))
    model = _model(
        _gridded(data.draw, (kernels, dims), cells),
        np.ones(kernels),
        np.zeros((kernels, dims)),
    )
    rows = _gridded(data.draw, (points, dims), cells) + 0.25 * data.draw(st.integers(0, 1))
    smoothing = model._smoothing_bandwidths()
    nearest, scores = model._nearest_kernels(rows, smoothing)
    want_nearest, want_scores = _reference_nearest_kernels(model, rows, smoothing)
    np.testing.assert_array_equal(nearest, want_nearest)
    assert scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize(
    "dims, decay, max_kernels", [(1, 1.0, 24), (2, 1.0, 48), (3, 0.999, 64)]
)
def test_fold_matches_the_dense_reference_fold(monkeypatch, dims, decay, max_kernels) -> None:
    """A whole gridded stream folds to the same synopsis either way."""
    rows = np.random.default_rng(dims).integers(0, 200, size=(3000, dims)) * 0.5
    model = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    model.start([f"x{axis}" for axis in range(dims)]).insert(rows)
    model.flush()
    monkeypatch.setattr(StreamingADE, "_compress_to", _reference_compress_to)
    monkeypatch.setattr(StreamingADE, "_nearest_kernels", _reference_nearest_kernels)
    reference = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    reference.start([f"x{axis}" for axis in range(dims)]).insert(rows)
    reference.flush()
    _assert_same_kernels(model, reference)


# -- the k-d tree searches ----------------------------------------------------
#
# From ``_TREE_MIN_KERNELS`` kernels on, the fold answers both searches from a
# max-norm k-d tree and falls back to the dense blocks only where the tree
# cannot prove the dense answer.  Each test below pins which path ran, so a
# build that always takes the dense code fails them, and checks the answer
# against the 3-D oracles above.

class _PathSpy:
    """Records the fold's k-d tree builds and dense distance blocks."""

    def __init__(self, monkeypatch) -> None:
        self.trees = 0
        self.dense: list[tuple[int, int]] = []  # (points, centres) per block
        self.pair_answers: list[bool] = []  # did the tree settle the round?
        tree, dense, pairs = (
            streaming.cKDTree,
            streaming._max_norm_distances,
            streaming._closest_pairs_tree,
        )

        def counting_tree(*args, **kwargs):
            self.trees += 1
            return tree(*args, **kwargs)

        def counting_dense(points, centres, out, work):
            self.dense.append((points.shape[0], centres.shape[0]))
            return dense(points, centres, out, work)

        def counting_pairs(centres, limit):
            answer = pairs(centres, limit)
            self.pair_answers.append(answer is not None)
            return answer

        monkeypatch.setattr(streaming, "cKDTree", counting_tree)
        monkeypatch.setattr(streaming, "_max_norm_distances", counting_dense)
        monkeypatch.setattr(streaming, "_closest_pairs_tree", counting_pairs)


def _continuous_means(seed: int, kernels: int, dims: int) -> np.ndarray:
    """Normal draws on unequal axis scales: no two distances tie."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(kernels, dims)) * rng.uniform(0.5, 20.0, size=dims)


def _lattice(count: int) -> np.ndarray:
    """``count`` 2-D means about 100 apart, jittered: far from every pair below."""
    rng = np.random.default_rng(count)
    cells = np.arange(count)
    grid = np.column_stack([cells % 20, cells // 20]) * 100.0
    return grid + rng.uniform(-1.0, 1.0, size=grid.shape)


def _pairs_closer_than_tau(means: np.ndarray, smoothing: np.ndarray) -> int:
    """Brute-force count of the pairs the tree check sees (see ``_closest_pairs_tree``)."""
    scaled = means / smoothing
    dist = np.abs(scaled[:, None, :] - scaled[None, :, :]).max(axis=2)
    tau = np.sort(dist, axis=1)[:, streaming._PAIR_NEIGHBOURS - 1].min()
    return int((dist[np.triu_indices(len(means), k=1)] < tau).sum())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_nearest_kernels_take_the_tree_on_continuous_kernels(monkeypatch, seed, dims) -> None:
    kernels = streaming._TREE_MIN_KERNELS + 13 * seed
    model = _model(
        _continuous_means(seed, kernels, dims), np.ones(kernels), np.zeros((kernels, dims))
    )
    rows = _continuous_means(seed + 100, 300, dims)
    smoothing = model._smoothing_bandwidths()
    spy = _PathSpy(monkeypatch)
    nearest, scores = model._nearest_kernels(rows, smoothing)
    assert spy.trees == 1 and spy.dense == []
    want_nearest, want_scores = _reference_nearest_kernels(model, rows, smoothing)
    np.testing.assert_array_equal(nearest, want_nearest)
    assert scores.tobytes() == want_scores.tobytes()


def test_nearest_kernels_settle_tied_rows_densely(monkeypatch) -> None:
    """Rows exactly as far from two kernels go to the dense argmin, and only
    those rows: the lower index wins, whichever the tree listed first."""
    lattice = _lattice(streaming._TREE_MIN_KERNELS)
    ties = 12
    # Kernel pairs one unit apart in x, far below the lattice.  A row 5 above
    # a pair's midpoint is exactly 5 from both kernels: the y offset is the
    # max-norm distance to either, computed from the same two floats.
    base = np.column_stack([np.arange(ties) * 1000.0, np.full(ties, -1000.0)])
    left, right = base, base + [1.0, 0.0]
    # Every other pair lists its right kernel first, so the lower index is
    # sometimes the left and sometimes the right kernel.
    first = np.where((np.arange(ties) % 2 == 0)[:, None], left, right)
    second = np.where((np.arange(ties) % 2 == 0)[:, None], right, left)
    means = np.concatenate([lattice, first, second])
    kernels = means.shape[0]
    model = _model(means, np.ones(kernels), np.zeros((kernels, 2)))
    rng = np.random.default_rng(7)
    tied_rows = base + np.column_stack([0.5 + rng.uniform(-0.4, 0.4, ties), np.full(ties, 5.0)])
    free_rows = lattice[rng.choice(len(lattice), 200)] + rng.uniform(-30.0, 30.0, (200, 2))
    rows = np.concatenate([free_rows[:100], tied_rows, free_rows[100:]])
    smoothing = np.ones(2)
    spy = _PathSpy(monkeypatch)
    nearest, scores = model._nearest_kernels(rows, smoothing)
    assert spy.trees == 1
    assert spy.dense == [(ties, kernels)]
    want_nearest, want_scores = _reference_nearest_kernels(model, rows, smoothing)
    np.testing.assert_array_equal(nearest, want_nearest)
    assert scores.tobytes() == want_scores.tobytes()
    lower = len(lattice) + np.arange(ties)
    np.testing.assert_array_equal(nearest[100 : 100 + ties], lower)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_compress_takes_the_tree_on_continuous_kernels(monkeypatch, seed, dims) -> None:
    kernels = streaming._TREE_MIN_KERNELS + 5 + 11 * seed
    target = kernels - 1 - seed % 5  # every round keeps at least the crossover
    rng = np.random.default_rng(seed)
    means = _continuous_means(seed, kernels, dims)
    weights = rng.uniform(0.5, 3.0, kernels)
    variances = rng.uniform(0.0, 1.0, (kernels, dims))
    model = _model(means, weights, variances)
    reference = _model(means, weights, variances)
    spy = _PathSpy(monkeypatch)
    model._compress_to(target)
    assert spy.pair_answers and all(spy.pair_answers)
    assert spy.trees == len(spy.pair_answers) and spy.dense == []
    _reference_compress_to(reference, target)
    assert model._weights.size == target
    _assert_same_kernels(model, reference)


@pytest.mark.parametrize("tie", ["none", "inside", "boundary"])
def test_compress_falls_back_on_a_tie_among_the_closest_pairs(monkeypatch, tie) -> None:
    """One merge (``limit`` 20) over 21 close pairs with one distance each.

    A tie inside the 20 closest pairs or between the 20th and 21st leaves
    the order to the dense sort, so the round must run the dense code;
    without the tie the same layout takes the tree.
    """
    limit = 20
    gaps = 0.01 * np.arange(1, limit + 2)
    if tie == "inside":
        gaps[5] = gaps[4]
    elif tie == "boundary":
        gaps[limit] = gaps[limit - 1]
    # Each pair shares its y and, when tied, its x values too: tied pairs
    # are exactly equally far apart in any scaling.
    xs = np.arange(limit + 1) * 1000.0
    xs[5] = xs[4]
    xs[limit] = xs[limit - 1]
    ys = -1000.0 * (1 + np.arange(limit + 1))
    pair_left = np.column_stack([xs, ys])
    pair_right = pair_left + np.column_stack([gaps, np.zeros(limit + 1)])
    lattice = _lattice(streaming._TREE_MIN_KERNELS)
    means = np.concatenate([lattice, pair_left, pair_right])
    kernels = means.shape[0]
    weights = 1.0 + np.arange(kernels) % 3
    variances = np.zeros((kernels, 2))
    model = _model(means, weights, variances)
    reference = _model(means, weights, variances)
    assert _pairs_closer_than_tau(means, model._smoothing_bandwidths()) >= limit
    spy = _PathSpy(monkeypatch)
    model._compress_to(kernels - 1)
    if tie == "none":
        assert spy.pair_answers == [True] and spy.dense == []
    else:
        assert spy.pair_answers == [False] and spy.dense == [(kernels, kernels)]
    _reference_compress_to(reference, kernels - 1)
    _assert_same_kernels(model, reference)


def test_compress_falls_back_with_fewer_close_pairs_than_the_limit(monkeypatch) -> None:
    """A tight cluster of ``_PAIR_NEIGHBOURS`` kernels sets ``tau`` below every
    other distance, so at most its own pairs are closer than ``tau``: fewer
    than ``limit`` once the round merges enough pairs."""
    cluster_size = streaming._PAIR_NEIGHBOURS
    close_pairs = cluster_size * (cluster_size - 1) // 2
    excess = max((close_pairs - 16) // 4 + 1, 1)  # limit = 4·excess + 16 > close_pairs
    rng = np.random.default_rng(3)
    cluster = np.array([-5000.0, -5000.0]) + rng.uniform(0.0, 0.5, (cluster_size, 2))
    means = np.concatenate([_lattice(streaming._TREE_MIN_KERNELS), cluster])
    kernels = means.shape[0]
    weights = rng.uniform(0.5, 3.0, kernels)
    variances = np.zeros((kernels, 2))
    model = _model(means, weights, variances)
    reference = _model(means, weights, variances)
    assert _pairs_closer_than_tau(means, model._smoothing_bandwidths()) < 4 * excess + 16
    spy = _PathSpy(monkeypatch)
    model._compress_to(kernels - excess)
    assert spy.pair_answers[0] is False
    assert spy.dense[0] == (kernels, kernels)
    _reference_compress_to(reference, kernels - excess)
    _assert_same_kernels(model, reference)


@pytest.mark.parametrize("dims, decay", [(1, 1.0), (2, 0.999), (3, 1.0)])
def test_fold_takes_the_tree_above_the_crossover(monkeypatch, dims, decay) -> None:
    """A continuous drifting stream, which keeps opening kernels past a budget
    above the crossover, folds to the dense reference fold's synopsis, and
    once the model holds ``_TREE_MIN_KERNELS`` kernels every search of both
    stages is a tree's."""
    rng = np.random.default_rng(dims)
    drift = np.linspace(0.0, 20.0, 6000)[:, None]
    rows = (rng.normal(size=(6000, dims)) + drift) * np.array([1.0, 3.0, 10.0])[:dims]
    max_kernels = streaming._TREE_MIN_KERNELS + 64
    spy = _PathSpy(monkeypatch)
    model = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    model.start([f"x{axis}" for axis in range(dims)]).insert(rows)
    model.flush()
    assert spy.pair_answers and all(spy.pair_answers)
    assert spy.trees > len(spy.pair_answers)  # nearest-kernel searches too
    assert all(centres < streaming._TREE_MIN_KERNELS for _, centres in spy.dense)
    monkeypatch.setattr(StreamingADE, "_compress_to", _reference_compress_to)
    monkeypatch.setattr(StreamingADE, "_nearest_kernels", _reference_nearest_kernels)
    reference = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    reference.start([f"x{axis}" for axis in range(dims)]).insert(rows)
    reference.flush()
    _assert_same_kernels(model, reference)


def test_searches_over_non_finite_scaled_values_stay_dense(monkeypatch) -> None:
    """``cKDTree`` refuses non-finite values, and finite rows near the float
    limit overflow once scaled: those searches run the dense code alone."""
    kernels = streaming._TREE_MIN_KERNELS + 10
    model = _model(_continuous_means(0, kernels, 2), np.ones(kernels), np.zeros((kernels, 2)))
    rows = _continuous_means(1, 50, 2)
    rows[::7, 0] = 1e300
    smoothing = np.full(2, 1e-9)
    spy = _PathSpy(monkeypatch)
    with np.errstate(over="ignore"):  # the overflow is the case under test
        nearest, scores = model._nearest_kernels(rows, smoothing)
        want_nearest, want_scores = _reference_nearest_kernels(model, rows, smoothing)
    assert spy.trees == 0 and spy.dense == [(50, kernels)]
    np.testing.assert_array_equal(nearest, want_nearest)
    assert scores.tobytes() == want_scores.tobytes()
    centres = _continuous_means(2, kernels, 2)
    centres[3] = np.inf
    assert streaming._closest_pairs_tree(centres, 20) is None
    assert spy.trees == 0


# -- grouping, merge sums and one search per chunk ----------------------------
#
# The fold groups candidate rows with a stable lexsort, sums moments with
# np.bincount and reuses a row's nearest kernel for a candidate group whose
# mean is that row.  The references below are the np.unique grouping, the
# np.add.at sums and a fresh search for every candidate group.

def _reference_group_rows(
    model: StreamingADE, rows: np.ndarray, weights: np.ndarray, smoothing: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` grouping with ``np.add.at`` sums: per-group (w, Σwx, Σwx²)."""
    width = max(model.merge_threshold, 1e-9) * smoothing
    cells = np.floor(np.clip(rows / width, -(2.0**62), 2.0**62)).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    groups = int(inverse.max()) + 1
    w = np.zeros(groups)
    wx = np.zeros((groups, rows.shape[1]))
    wx2 = np.zeros((groups, rows.shape[1]))
    np.add.at(w, inverse, weights)
    np.add.at(wx, inverse, weights[:, None] * rows)
    np.add.at(wx2, inverse, weights[:, None] * rows * rows)
    return w, wx, wx2


def _reference_process_chunk(model: StreamingADE, rows: np.ndarray) -> None:
    """The fold with ``np.add.at`` sums and a fresh search for every candidate."""
    model._mark_stale()
    m, d = rows.shape
    model._total_seen += float(m)
    model._domain_low = np.minimum(model._domain_low, rows.min(axis=0))
    model._domain_high = np.maximum(model._domain_high, rows.max(axis=0))
    if model.decay < 1.0:
        row_weights = model.decay ** np.arange(m - 1, -1, -1, dtype=float)
        chunk_decay = model.decay**m
        model._sum_w = model._sum_w * chunk_decay + float(row_weights.sum())
        model._sum_wx = model._sum_wx * chunk_decay + row_weights @ rows
        model._sum_wx2 = model._sum_wx2 * chunk_decay + row_weights @ (rows * rows)
        if model._decay_scale < streaming._SCALE_FLOOR:
            model._weights *= model._decay_scale
            model._decay_scale = 1.0
        model._decay_scale *= chunk_decay
        stored_weights = row_weights / model._decay_scale
    else:
        model._sum_w += float(m)
        model._sum_wx += rows.sum(axis=0)
        model._sum_wx2 += (rows * rows).sum(axis=0)
        stored_weights = np.ones(m)

    smoothing = model._smoothing_bandwidths()
    kernels = model._weights.size
    if kernels:
        nearest, scores = model._nearest_kernels(rows, smoothing)
        merge_mask = scores <= model.merge_threshold
    else:
        nearest = np.zeros(m, dtype=np.int64)
        merge_mask = np.zeros(m, dtype=bool)

    acc_w = np.zeros(kernels)
    acc_wx = np.zeros((kernels, d))
    acc_wx2 = np.zeros((kernels, d))
    if merge_mask.any():
        targets = nearest[merge_mask]
        w = stored_weights[merge_mask]
        r = rows[merge_mask]
        np.add.at(acc_w, targets, w)
        np.add.at(acc_wx, targets, w[:, None] * r)
        np.add.at(acc_wx2, targets, w[:, None] * r * r)

    new_w = new_means = new_vars = None
    leftover = ~merge_mask
    if leftover.any():
        new_w, new_wx, new_wx2 = _reference_group_rows(
            model, rows[leftover], stored_weights[leftover], smoothing
        )
        new_means = new_wx / new_w[:, None]
        new_vars = np.maximum(new_wx2 / new_w[:, None] - new_means**2, 0.0)
        if kernels and kernels + new_w.size > model.max_kernels:
            cnearest, _ = model._nearest_kernels(new_means, smoothing)
            spacing = model._kernel_spacing(model._smoothing_bandwidths())
            absorb = (np.abs(new_means - model._means[cnearest]) <= spacing).all(axis=1)
            if absorb.any():
                t = cnearest[absorb]
                np.add.at(acc_w, t, new_w[absorb])
                np.add.at(acc_wx, t, new_wx[absorb])
                np.add.at(acc_wx2, t, new_wx2[absorb])
                keep = ~absorb
                new_w, new_means, new_vars = new_w[keep], new_means[keep], new_vars[keep]

    touched = acc_w > 0
    if touched.any():
        w0 = model._weights[touched]
        m0 = model._means[touched]
        v0 = model._variances[touched]
        total = w0 + acc_w[touched]
        mean = (w0[:, None] * m0 + acc_wx[touched]) / total[:, None]
        var = (w0[:, None] * (v0 + m0**2) + acc_wx2[touched]) / total[:, None] - mean**2
        model._weights[touched] = total
        model._means[touched] = mean
        model._variances[touched] = np.maximum(var, 0.0)
    if new_w is not None and new_w.size:
        model._means = np.concatenate([model._means, new_means])
        model._variances = np.concatenate([model._variances, new_vars])
        model._weights = np.concatenate([model._weights, new_w])
    if model._weights.size > model.max_kernels:
        model._compress_to(model.max_kernels)
    if model.decay < 1.0:
        model._prune()


def _assert_same_model(model: StreamingADE, reference: StreamingADE) -> None:
    """Kernels, running sums and domain, bitwise."""
    _assert_same_kernels(model, reference)
    for name in ("_sum_w", "_sum_wx", "_sum_wx2", "_domain_low", "_domain_high", "_decay_scale"):
        got, want = np.asarray(getattr(model, name)), np.asarray(getattr(reference, name))
        assert got.tobytes() == want.tobytes(), name


_CLIP = 2**62


@st.composite
def _cell_matrices(draw) -> np.ndarray:
    """Integer cells with negatives, duplicates and the ±2⁶² clip values."""
    dims = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 60))
    values = st.one_of(st.integers(-3, 3), st.sampled_from([-_CLIP, _CLIP]))
    cells = draw(arrays(np.int64, (rows, dims), elements=values))
    repeats = draw(arrays(np.int64, rows, elements=st.integers(1, 3)))
    order = draw(st.permutations(range(int(repeats.sum()))))
    return np.repeat(cells, repeats, axis=0)[list(order)]


@settings(max_examples=300, deadline=None)
@given(cells=_cell_matrices())
def test_group_cells_reproduce_np_unique(cells) -> None:
    inverse, first = streaming._group_cells(cells)
    unique, want_first, want_inverse = np.unique(
        cells, axis=0, return_index=True, return_inverse=True
    )
    np.testing.assert_array_equal(inverse, np.asarray(want_inverse).reshape(-1))
    np.testing.assert_array_equal(first, want_first)
    np.testing.assert_array_equal(cells[first], unique)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_rows_sum_like_np_add_at(data) -> None:
    """The moments of every group, in group order, are ``np.add.at``'s bitwise;
    the rows straddle zero and reach the clip values, and the weights are
    decayed ones, so the sums round."""
    dims = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 120))
    finite = st.floats(-50.0, 50.0, allow_nan=False, width=64)
    rows = data.draw(arrays(np.float64, (count, dims), elements=st.one_of(
        finite, st.sampled_from([-1e300, 1e300, 0.1, -0.1, 0.0, -0.0]))
    ))
    weights = 0.999 ** data.draw(arrays(np.float64, count, elements=st.integers(0, 300)))
    model = StreamingADE(merge_threshold=data.draw(st.sampled_from([0.0, 0.25, 1.0])))
    model.start([f"x{axis}" for axis in range(dims)])
    smoothing = np.array(data.draw(st.lists(
        st.sampled_from([1e-9, 0.03, 0.5, 2.0]), min_size=dims, max_size=dims
    )))
    with np.errstate(over="ignore", invalid="ignore"):  # ±1e300 squared is the case
        groups, first = model._group_rows(rows, weights, smoothing)
        want_w, want_wx, want_wx2 = _reference_group_rows(model, rows, weights, smoothing)
    assert groups[:, 0].tobytes() == want_w.tobytes()
    assert groups[:, 1 : dims + 1].tobytes() == want_wx.tobytes()
    assert groups[:, dims + 1 :].tobytes() == want_wx2.tobytes()
    assert first.size == want_w.size


def _fold_stream(kind: str, dims: int) -> np.ndarray:
    """A drifting stream: gridded (duplicates and distance ties) or continuous."""
    rng = np.random.default_rng(dims + (kind == "gridded"))
    drift = np.linspace(0.0, 20.0, 6000)[:, None]
    rows = (rng.normal(size=(6000, dims)) + drift) * np.array([1.0, 3.0, 10.0])[:dims]
    if kind == "gridded":
        # Power-of-two steps: exact duplicates and exact distance ties.
        step = np.array([1 / 16] if dims == 1 else [0.25, 1.0])
        rows = np.round(rows / step) * step
    return rows


@pytest.mark.parametrize("max_kernels", [48, streaming._TREE_MIN_KERNELS + 64])
@pytest.mark.parametrize("decay", [1.0, 0.999])
@pytest.mark.parametrize("kind, dims", [("gridded", 1), ("gridded", 2), ("continuous", 2),
                                        ("continuous", 3)])
def test_fold_matches_the_add_at_fold_searching_every_candidate(
    monkeypatch, kind, dims, decay, max_kernels
) -> None:
    rows = _fold_stream(kind, dims)
    columns = [f"x{axis}" for axis in range(dims)]
    spacing = StreamingADE._kernel_spacing
    pressed: list[int] = []  # kernels at each chunk under budget pressure

    def counting_spacing(model, smoothing):
        pressed.append(model._weights.size)
        return spacing(model, smoothing)

    monkeypatch.setattr(StreamingADE, "_kernel_spacing", counting_spacing)
    model = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    model.start(columns).insert(rows)
    model.flush()
    # Candidates were absorbed under budget pressure, above the crossover too.
    assert max(pressed, default=0) >= min(max_kernels, streaming._TREE_MIN_KERNELS)
    monkeypatch.setattr(StreamingADE, "_process_chunk", _reference_process_chunk)
    reference = StreamingADE(max_kernels=max_kernels, decay=decay, chunk_size=128)
    reference.start(columns).insert(rows)
    reference.flush()
    _assert_same_model(model, reference)


class _SearchSpy:
    """Records the points of every nearest-kernel search and the candidate
    groups (candidate rows, groups) of every chunk."""

    def __init__(self, monkeypatch) -> None:
        self.searches: list[int] = []
        self.groups: list[tuple[int, int]] = []
        search, group = StreamingADE._nearest_kernels, StreamingADE._group_rows

        def counting_search(model, points, smoothing):
            self.searches.append(points.shape[0])
            return search(model, points, smoothing)

        def counting_groups(model, rows, weights, smoothing):
            answer = group(model, rows, weights, smoothing)
            self.groups.append((rows.shape[0], answer[1].size))
            return answer

        monkeypatch.setattr(StreamingADE, "_nearest_kernels", counting_search)
        monkeypatch.setattr(StreamingADE, "_group_rows", counting_groups)


def _full_model(kernels: int) -> StreamingADE:
    """A model at its budget of continuous kernels, with some spread each."""
    rng = np.random.default_rng(kernels)
    return _model(
        _continuous_means(kernels, kernels, 2), rng.uniform(0.5, 3.0, kernels),
        rng.uniform(0.0, 0.5, (kernels, 2)),
    )


@pytest.mark.parametrize("kernels", [64, streaming._TREE_MIN_KERNELS + 32])
def test_an_at_budget_chunk_of_single_rows_searches_once(monkeypatch, kernels) -> None:
    """Every candidate group is one row, so each reuses its row's search."""
    model = _full_model(kernels)
    reference = copy.deepcopy(model)
    rows = _continuous_means(kernels + 1, model.chunk_size, 2)
    spy = _SearchSpy(monkeypatch)
    model.insert(rows)
    assert spy.searches == [model.chunk_size]
    [(candidates, groups)] = spy.groups
    assert candidates == groups > 0  # at budget, singles only
    monkeypatch.setattr(StreamingADE, "_process_chunk", _reference_process_chunk)
    reference.insert(rows)
    _assert_same_model(model, reference)


@pytest.mark.parametrize("kernels", [64, streaming._TREE_MIN_KERNELS + 32])
def test_groups_whose_mean_is_not_a_row_are_searched_again(monkeypatch, kernels) -> None:
    """Each of 24 rows gets a partner 1e-7 away, in its cell: the 24 pair
    means are none of their rows and make the one further search."""
    model = _full_model(kernels)
    reference = copy.deepcopy(model)
    pairs = 24
    rows = _continuous_means(kernels + 2, model.chunk_size, 2)
    rows[-pairs:] = rows[:pairs] + 1e-7
    spy = _SearchSpy(monkeypatch)
    model.insert(rows)
    [(candidates, groups)] = spy.groups
    assert candidates - groups == pairs  # every pair is one group
    assert spy.searches == [model.chunk_size, pairs]
    monkeypatch.setattr(StreamingADE, "_process_chunk", _reference_process_chunk)
    reference.insert(rows)
    _assert_same_model(model, reference)
