import warnings

import numpy as np
import pytest

from lkdl.kernels import KernelSpec, kernel_matrix
from lkdl.nystrom import (
    EIG_RTOL,
    approximation_error,
    exact_virtual_samples,
    fit,
    fit_from_landmarks,
    nystrom_kernel_approximation,
    transform,
)
from lkdl.sampling import LandmarkSet, SamplerSpec, select_landmarks

LINEAR = KernelSpec(kind="linear")
GAUSS = KernelSpec(kind="gaussian", sigma=1.0)


def _rand(p, n, seed=0):
    return np.random.default_rng(seed).standard_normal((p, n))


def _numerical_rank(K):
    w = np.linalg.eigvalsh((K + K.T) / 2)
    return int(np.count_nonzero(w > 1e-10 * w.max()))


def test_all_landmarks_full_rank_reproduces_kernel():
    X = _rand(6, 30)
    K = kernel_matrix(LINEAR, X, X)
    nmap = fit(X, LINEAR, SamplerSpec(method="uniform", c=30, seed=0),
               k=_numerical_rank(K))
    F = transform(nmap, X)
    err = np.linalg.norm(F.T @ F - K) / np.linalg.norm(K)
    assert err < 1e-8


def test_single_landmark_linear_kernel():
    x = np.array([[3.0], [4.0]])
    nmap = fit_from_landmarks(LandmarkSet(x, np.array([0])), LINEAR, k=1)
    assert nmap.sigma_k[0] == pytest.approx(25.0)
    assert abs(nmap.V_k[0, 0]) == pytest.approx(1.0)


def test_fit_deterministic_given_seed():
    X = _rand(4, 40)
    spec = SamplerSpec(method="uniform", c=10, seed=3)
    a = fit(X, GAUSS, spec, k=5)
    b = fit(X, GAUSS, spec, k=5)
    assert np.array_equal(a.X_R, b.X_R)
    assert np.array_equal(a.sigma_k, b.sigma_k)


def test_transform_on_landmarks_reproduces_w():
    X = _rand(5, 25, seed=2)
    nmap = fit(X, GAUSS, SamplerSpec(method="uniform", c=12, seed=1), k=12)
    W = kernel_matrix(GAUSS, nmap.X_R, nmap.X_R)
    F = transform(nmap, nmap.X_R)
    assert np.linalg.norm(F.T @ F - W) / np.linalg.norm(W) < 1e-8


def test_single_test_vector_consistency():
    X = _rand(3, 15, seed=5)
    nmap = fit(X, GAUSS, SamplerSpec(method="uniform", c=8, seed=2), k=6)
    F_land = transform(nmap, nmap.X_R)
    f = transform(nmap, nmap.X_R[:, [0]])
    assert np.allclose(f[:, 0], F_land[:, 0], atol=1e-12)


def test_exact_virtual_samples_identity_kernel():
    F = exact_virtual_samples(np.eye(7), 7)
    assert np.allclose(F.T @ F, np.eye(7), atol=1e-10)
    assert np.allclose(np.linalg.norm(F, axis=0), 1.0)


def test_exact_virtual_samples_rank_one():
    v = np.array([1.0, -2.0, 2.0])
    F = exact_virtual_samples(np.outer(v, v), 1)
    assert F.shape == (1, 3)
    assert np.allclose(F[0], v, atol=1e-10) or np.allclose(F[0], -v, atol=1e-10)


def test_exact_virtual_samples_full_rank_reconstruction():
    rng = np.random.default_rng(8)
    for n in (10, 30, 50):
        B = rng.standard_normal((n + 3, n))
        K = B.T @ B
        F = exact_virtual_samples(K, n)
        assert np.max(np.abs(F.T @ F - K)) < 1e-10 * max(1.0, np.abs(K).max())


def test_rank_truncation_warns_and_flags():
    # rank-1 data under the linear kernel: W has numerical rank 1
    X = np.outer(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.warns(UserWarning, match="rank"):
        nmap = fit(X, LINEAR, SamplerSpec(method="uniform", c=3, seed=0), k=3)
    assert nmap.truncated
    assert nmap.k == 1


def test_kmeans_duplicate_centers_truncate_rank():
    # three distinct points cannot give five distinct k-means centers, so W
    # has rank 3 under the Gaussian kernel and k = 5 is cut to 3
    X = np.repeat(np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 3.0]]), 4, axis=1)
    with pytest.warns(UserWarning, match="numerical rank 3"):
        nmap = fit(X, GAUSS, SamplerSpec(method="kmeans", c=5, seed=0), k=5)
    assert nmap.truncated is True
    assert nmap.k == 3


def test_indefinite_matrix_rejected():
    with pytest.raises(ValueError, match="indefinite"):
        exact_virtual_samples(np.diag([1.0, -1.0]), 2)


def test_approximation_error_extremes():
    B = _rand(4, 9, seed=9)
    K = B.T @ B
    assert approximation_error(K, K) == 0.0
    assert approximation_error(K, np.zeros_like(K)) == pytest.approx(1.0)


def test_nystrom_full_landmarks_approximation_is_exact():
    X = _rand(4, 20, seed=12)
    K = kernel_matrix(GAUSS, X, X)
    lm = LandmarkSet(X.copy(), np.arange(20))
    K_approx = nystrom_kernel_approximation(GAUSS, X, lm)
    assert approximation_error(K, K_approx) < 1e-8


def _reference_nystrom(kernel, X, landmarks):
    """C W^+ C^T with its own eigendecomposition and the same relative
    eigenvalue cutoff (the formula the map-based path replaced)."""
    C = kernel_matrix(kernel, X, landmarks.X_R)
    W = kernel_matrix(kernel, landmarks.X_R, landmarks.X_R)
    w, V = np.linalg.eigh((W + W.T) / 2.0)
    cutoff = EIG_RTOL * max(w.max(), 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return C @ ((V * inv) @ V.T) @ C.T


@pytest.mark.parametrize("method", ["uniform", "kmeans", "coreset"])
def test_nystrom_approximation_matches_pseudo_inverse_formula(method):
    X = _rand(5, 120, seed=14)
    kernel = KernelSpec(kind="gaussian", sigma=1.5)
    K = kernel_matrix(kernel, X, X)
    for c in (1, 12, 40, 120):
        lm = select_landmarks(X, SamplerSpec(method=method, c=c, seed=c), kernel)
        err = approximation_error(K, nystrom_kernel_approximation(kernel, X, lm))
        ref = approximation_error(K, _reference_nystrom(kernel, X, lm))
        assert err == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_nystrom_approximation_keeps_the_rank_without_warning():
    # four distinct points among c = 8 landmarks: W has rank 4 < c, and the
    # approximation keeps every pair above the cutoff without a warning
    X = np.tile(_rand(3, 4, seed=15), 3)
    lm = LandmarkSet(X[:, :8].copy(), np.arange(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K_approx = nystrom_kernel_approximation(GAUSS, X, lm)
    K = kernel_matrix(GAUSS, X, X)
    assert approximation_error(K, K_approx) < 1e-8
    assert approximation_error(K, _reference_nystrom(GAUSS, X, lm)) < 1e-8


def test_k_larger_than_c_rejected():
    X = _rand(3, 10)
    with pytest.raises(ValueError, match="exceeds"):
        fit(X, GAUSS, SamplerSpec(method="uniform", c=4, seed=0), k=5)
