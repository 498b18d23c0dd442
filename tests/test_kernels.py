import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkdl.kernels import (
    _BLOCK,
    _TILE,
    KernelSpec,
    kernel_diagonal,
    kernel_eval,
    kernel_matrix,
)

LINEAR = KernelSpec(kind="linear")
GAUSS = KernelSpec(kind="gaussian", sigma=1.0)


def test_linear_unit_vector_self():
    e = np.array([1.0, 0.0, 0.0])
    assert kernel_eval(LINEAR, e, e) == 1.0


def test_gaussian_zero_distance_is_one():
    x = np.array([0.3, -2.0, 5.0])
    for sigma in (0.1, 1.0, 7.5):
        k = KernelSpec(kind="gaussian", sigma=sigma)
        assert kernel_eval(k, x, x) == pytest.approx(1.0)


def test_polynomial_degree4_dot2():
    # (x.y)^4 with x.y = 2 -> 16
    k = KernelSpec(kind="polynomial", degree=4)
    x = np.array([2.0, 0.0])
    y = np.array([1.0, 3.0])
    assert x @ y == 2.0
    assert kernel_eval(k, x, y) == pytest.approx(16.0)


def test_linear_matrix_orthonormal_columns_identity():
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 4)))
    K = kernel_matrix(LINEAR, Q, Q)
    assert np.allclose(K, np.eye(4), atol=1e-12)


def test_gaussian_matrix_unit_diagonal():
    X = np.random.default_rng(1).standard_normal((5, 9))
    K = kernel_matrix(GAUSS, X, X)
    assert np.allclose(np.diag(K), 1.0)


def test_linear_matrix_hand_example():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    X = np.stack([e1, e2, e1 + e2], axis=1)
    K = kernel_matrix(LINEAR, X, X)
    assert np.allclose(K, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])


def test_kernel_diagonal_matches_matrix_diagonal():
    X = np.random.default_rng(2).standard_normal((4, 20))
    for spec in (LINEAR, GAUSS, KernelSpec(kind="polynomial", degree=3, coef0=1.0)):
        K = kernel_matrix(spec, X, X)
        assert np.allclose(kernel_diagonal(spec, X), np.diag(K), atol=1e-12)


def _one_shot(spec, X, Y):
    # the closed form over the whole of Y at once
    G = X.T @ Y
    if spec.kind == "linear":
        return G
    if spec.kind == "polynomial":
        return (G + spec.coef0) ** spec.degree
    d2 = np.sum(X * X, axis=0)[:, None] + np.sum(Y * Y, axis=0)[None, :] - 2 * G
    return np.exp(-np.maximum(d2, 0.0) / (2 * spec.sigma**2))


def test_blockwise_evaluation_matches_direct():
    # two block boundaries and a ragged tail; the rows of a full block span
    # two row tiles and a ragged one
    X = np.random.default_rng(3).standard_normal((6, 2 * (_TILE // _BLOCK) + 22))
    Y = np.random.default_rng(4).standard_normal((6, 2 * _BLOCK + 37))
    poly = KernelSpec(kind="polynomial", degree=3, coef0=1.0)
    for spec in (LINEAR, GAUSS, poly):
        K = kernel_matrix(spec, X, Y)
        assert np.allclose(K, _one_shot(spec, X, Y), rtol=1e-12, atol=1e-12)
        # each block's product is left whole and every entry takes the
        # closed form's steps, so the tiles reproduce it bit for bit
        for start in range(0, Y.shape[1], _BLOCK):
            Yb = Y[:, start : start + _BLOCK]
            assert np.array_equal(K[:, start : start + _BLOCK], _one_shot(spec, X, Yb))


def test_cross_matrix_shape_and_symmetry():
    X = np.random.default_rng(5).standard_normal((3, 11))
    K = kernel_matrix(GAUSS, X, X)
    assert K.shape == (11, 11)
    assert np.allclose(K, K.T)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 12))
def test_gaussian_entries_bounded_and_symmetric(seed, p, n):
    X = np.random.default_rng(seed).standard_normal((p, n))
    K = kernel_matrix(GAUSS, X, X)
    assert np.all(K <= 1.0 + 1e-12)
    assert np.all(K > 0.0)
    assert np.allclose(K, K.T, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_polynomial_gram_is_psd(seed, degree):
    X = np.random.default_rng(seed).standard_normal((5, 10))
    K = kernel_matrix(KernelSpec(kind="polynomial", degree=degree), X, X)
    w = np.linalg.eigvalsh((K + K.T) / 2)
    assert w.min() >= -1e-8 * max(1.0, w.max())
