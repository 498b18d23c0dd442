import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkdl.kernels import _BLOCK, KernelSpec, kernel_matrix
from lkdl.nystrom import (
    EIG_RTOL,
    LANCZOS_BLOCK,
    LANCZOS_C_PER_K,
    _lanczos_top,
    _next_block,
    _top_eigpairs,
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


@pytest.mark.parametrize("n", [1, _BLOCK, 2 * _BLOCK + 3])
def test_transform_equals_the_one_shot_formula(n):
    X = _rand(5, n, seed=4)
    nmap = fit(_rand(5, 60, seed=3), GAUSS, SamplerSpec("uniform", 40, 0), k=10)
    C = kernel_matrix(GAUSS, nmap.X_R, X)
    one_shot = (nmap.V_k.T @ C) / np.sqrt(nmap.sigma_k)[:, None]
    assert np.array_equal(transform(nmap, X), one_shot)


def test_transform_holds_no_c_by_n_matrix():
    # c = 400, N = 20000: K(X_R, X) whole would take 64 MB
    nmap = fit_from_landmarks(LandmarkSet(_rand(3, 400, seed=8)), GAUSS, k=8)
    X = _rand(3, 20_000, seed=9)
    tracemalloc.start()
    try:
        transform(nmap, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


# Top-k path: block Lanczos when c >= LANCZOS_C_PER_K k, checked against
# the full eigh.


def _full_eigh(K, k):
    w, V = np.linalg.eigh((K + K.T) / 2.0)
    return w[::-1][:k], V[:, ::-1][:, :k]


def _assert_top_pairs(K, k, w, V):
    """Values within 1e-12 of the full eigh's (relative to the largest),
    orthonormal vectors and eigenpair residuals at rounding level."""
    ref, _ = _full_eigh(K, k)
    scale = ref[0]
    assert w.shape == (k,) and V.shape == (K.shape[0], k)
    assert np.max(np.abs(w - ref)) <= 1e-12 * scale
    assert np.allclose(V.T @ V, np.eye(k), atol=1e-12)
    assert np.max(np.linalg.norm(K @ V - V * w, axis=0)) <= 1e-10 * scale


def _psd_with_spectrum(values, seed):
    c = len(values)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((c, c)))
    K = (Q * values) @ Q.T
    return (K + K.T) / 2.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.integers(150, 250),
    k_fraction=st.floats(0.02, 1 / LANCZOS_C_PER_K),
    top=st.integers(1, 2 * LANCZOS_BLOCK),
    spread=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
    decay=st.floats(0.5, 0.8),
)
def test_top_k_path_matches_full_eigh_with_repeated_and_clustered_tops(
    seed, c, k_fraction, top, spread, decay
):
    # `top` leading eigenvalues equal (spread 0) or clustered within
    # `spread`, the rest decaying geometrically from half of them, as a
    # Gaussian kernel's do; Lanczos converges on such spectra
    k = max(1, int(k_fraction * c))
    values = np.concatenate([1.0 - spread * np.arange(top),
                             0.5 * decay ** np.arange(c - top)])
    K = _psd_with_spectrum(values, seed)
    pairs = _lanczos_top(K, k)
    assert pairs is not None
    _assert_top_pairs(K, k, *pairs)
    w, V, truncated = _top_eigpairs(K, k, "test")
    assert not truncated and np.array_equal(w, pairs[0])
    if values[k - 1] - values[k] > 1e-3:
        _, U = _full_eigh(K, k)
        assert np.allclose(V @ V.T, U @ U.T, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(20, 100), rank=st.integers(1, 12))
def test_top_k_path_below_rank_warns_and_keeps_the_rank(seed, c, rank):
    # rank < k <= c / LANCZOS_C_PER_K: the same warning and effective k as
    # the full path
    k = rank + 1 + seed % 5
    c = max(c, LANCZOS_C_PER_K * k)
    B = np.random.default_rng(seed).standard_normal((c, rank))
    K = B @ B.T
    with pytest.warns(UserWarning, match=f"exceeds numerical rank {rank};"):
        w, V, truncated = _top_eigpairs(K, k, "test")
    assert truncated and w.shape == (rank,)
    _assert_top_pairs(K, rank, w, V)


@pytest.mark.parametrize("copies", [2, 3, 5])
def test_top_k_path_with_duplicated_landmarks(copies):
    # every landmark repeated: W has rank c / copies and repeated rows
    X = np.tile(_rand(4, 120 // copies + 1, seed=copies), copies)[:, :120]
    W = kernel_matrix(GAUSS, X, X)
    rank = _numerical_rank(W)
    k = min(10, rank)
    w, V, truncated = _top_eigpairs(W, k, "test")
    assert not truncated
    _assert_top_pairs(W, k, w, V)
    nmap = fit_from_landmarks(LandmarkSet(X), GAUSS, k)
    assert np.array_equal(nmap.sigma_k, w)


def test_top_k_path_refuses_an_indefinite_matrix():
    # (x.y - 1)^3 is no Mercer kernel: its matrix has eigenvalues far below
    # -PSD_RTOL tr(W), and k = 4 of c = 60 takes the top-k path
    kernel = KernelSpec(kind="polynomial", degree=3, coef0=-1.0)
    X = _rand(3, 60, seed=21)
    W = kernel_matrix(kernel, X, X)
    assert np.linalg.eigvalsh(W)[0] < -1e-3 * np.trace(W)
    with pytest.raises(ValueError, match="indefinite"):
        _top_eigpairs(W, 4, "test")
    with pytest.raises(ValueError, match="indefinite"):
        fit_from_landmarks(LandmarkSet(X), kernel, 4)


def test_top_k_path_repeats_bit_identically():
    X = _rand(6, 200, seed=22)
    W = kernel_matrix(GAUSS, X, X)
    first = _top_eigpairs(W, 16, "test")
    second = _top_eigpairs(W, 16, "test")
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    _assert_top_pairs(W, 16, first[0], first[1])


def test_unconverged_lanczos_falls_back_to_the_full_eigh():
    # 192 eigenvalues within 1e-9 of each other: Lanczos cannot resolve the
    # top 16 to its tolerance within c / 2 basis vectors, and eigh does
    c, k = 192, 16
    assert LANCZOS_C_PER_K * k <= c
    K = _psd_with_spectrum(1.0 + 1e-9 * np.linspace(0.0, 1.0, c), seed=23)
    assert _lanczos_top(K, k) is None
    w, V, _ = _top_eigpairs(K, k, "test")
    ref_w, ref_V = _full_eigh(K, k)
    assert np.array_equal(w, ref_w) and np.array_equal(V, ref_V)


def test_next_block_keeps_a_nearly_dependent_row_off_the_basis():
    # the second row is the first plus 1e-10 of a new direction, and both
    # hold 1e-16 along the basis Q, as rounding leaves them: projected off
    # the first row alone, the second would keep ~1e-6 of its norm along Q
    rng = np.random.default_rng(24)
    Q = np.linalg.qr(rng.standard_normal((60, 10)))[0].T
    z, d = rng.standard_normal((2, 60))
    z -= (Q @ z) @ Q
    d -= (Q @ d) @ Q
    Z = np.stack([z, z + 1e-10 * d]) + 1e-16 * rng.standard_normal((2, 10)) @ Q
    out = _next_block(Z, Q, 1e-13, rng)
    assert np.max(np.abs(out @ Q.T)) <= 1e-14
    assert np.allclose(out @ out.T, np.eye(2), rtol=0.0, atol=1e-14)


def test_the_identity_takes_the_top_k_path_through_restarts():
    # every Lanczos product lies in the basis: each block is replaced by
    # fresh directions, and every Ritz pair is exact up to rounding
    w, V = _lanczos_top(np.eye(40), 10)
    assert np.allclose(w, 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(V.T @ V, np.eye(10), atol=1e-14)
