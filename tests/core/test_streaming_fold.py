"""Oracle tests for the distance work in the ``StreamingADE`` chunk fold.

The fold computes max-norm distances with one 2-D pass per attribute and
reads compaction candidates through an upper-triangle mask.  The references
below are the dense 3-D formulations it replaced; every merge decision, and
so the fitted synopsis, must match them bitwise, exact distance ties
included (gridded means make ties common).
"""

from __future__ import annotations

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
