import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lkdl.kernels import KernelSpec, kernel_matrix
from lkdl.nystrom import exact_virtual_samples
from lkdl.sparse_coding import (
    SparseCode,
    _batch_pursuit,
    komp,
    komp_batch,
    normalize_coefficient_dictionary,
    omp,
    omp_batch,
    residual_energies,
)


# Reference: the per-column pursuit the batch pursuit replaced, one signal
# at a time with a fresh Cholesky factorization of the support Gram per step.

def _solve_support(M: np.ndarray, b: np.ndarray):
    """Least-squares coefficients on the support via Cholesky of the support
    Gram; falls back to lstsq on breakdown. Returns (gamma, degenerate)."""
    try:
        c, low = scipy.linalg.cho_factor(M, check_finite=False)
        return scipy.linalg.cho_solve((c, low), b, check_finite=False), False
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        gamma, *_ = np.linalg.lstsq(M, b, rcond=None)
        return gamma, True


def _greedy_pursuit(
    corr0: np.ndarray,
    G: np.ndarray,
    norm2: float,
    q: int,
) -> SparseCode:
    """Shared greedy loop. ``corr0`` are the initial correlations <x, d_j>
    (in whatever inner product applies), ``G`` the m x m atom Gram in the
    same inner product, ``norm2`` the squared norm of the signal."""
    m = corr0.shape[0]
    support: list[int] = []
    gamma = np.zeros(0)
    rnorm2 = max(norm2, 0.0)
    degenerate = False
    mask = np.zeros(m, dtype=bool)
    while len(support) < min(q, m) and rnorm2 > 0.0:
        if support:
            corr = corr0 - G[:, support] @ gamma
        else:
            corr = corr0.copy()
        corr[mask] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if support and abs(corr[j]) == 0.0:
            break
        support.append(j)
        mask[j] = True
        sub = np.ix_(support, support)
        gamma_new, bad = _solve_support(G[sub], corr0[support])
        if bad:
            # singular support Gram: drop the offending atom, keep the last
            # consistent code and stop
            support.pop()
            degenerate = True
            break
        gamma = gamma_new
        rnorm2 = max(norm2 - float(corr0[support] @ gamma), 0.0)
    return SparseCode(
        support=np.asarray(support, dtype=np.int64),
        values=np.asarray(gamma, dtype=np.float64),
        residual_norm=float(np.sqrt(max(rnorm2, 0.0))),
        degenerate=degenerate,
    )


def _reference_dense(C0, G, norms2, q):
    Gamma = np.zeros_like(C0, dtype=np.float64)
    for i in range(C0.shape[1]):
        code = _greedy_pursuit(C0[:, i], G, float(norms2[i]), q)
        Gamma[code.support, i] = code.values
    return Gamma


def _unit_dictionary(p, m, seed=0):
    D = np.random.default_rng(seed).standard_normal((p, m))
    return D / np.linalg.norm(D, axis=0)


def test_omp_recovers_single_atom():
    D = _unit_dictionary(6, 10, seed=1)
    code = omp(D, D[:, 3], q=1)
    assert code.support.tolist() == [3]
    assert code.values[0] == pytest.approx(1.0)
    assert code.residual_norm == pytest.approx(0.0, abs=1e-10)


def test_a_signal_equal_to_an_atom_gets_exactly_one_atom():
    # scaled atoms leave a residual energy of rounding size after their own
    # atom; the pursuit stops there instead of adding atoms picked by noise
    rng = np.random.default_rng(0)
    D = _unit_dictionary(16, 40)
    X = D * rng.uniform(0.5, 3.0, 40)
    Gamma = omp_batch(D, X, 4)
    assert np.array_equal(np.count_nonzero(Gamma, axis=0), np.ones(40))
    assert np.allclose(Gamma[np.arange(40), np.arange(40)], X[0] / D[0])
    assert all(omp(D, X[:, i], 4).support.tolist() == [i] for i in range(40))


def test_omp_orthogonal_signal_selects_one_zero_atom():
    # x orthogonal to every atom: one atom is still selected (lowest index
    # among the zero correlations) with coefficient 0, residual = ||x||
    D = np.eye(4)[:, :2]
    x = np.array([0.0, 0.0, 0.0, 2.0])
    code = omp(D, x, q=2)
    assert len(code.support) == 1
    assert code.support[0] == 0
    assert code.values[0] == pytest.approx(0.0)
    assert code.residual_norm == pytest.approx(2.0)


def _oracle_two_sparse(D, x):
    m = D.shape[1]
    best = np.inf
    best_sup = None
    for sup in itertools.combinations(range(m), 2):
        sub = D[:, list(sup)]
        gamma, *_ = np.linalg.lstsq(sub, x, rcond=None)
        obj = float(np.sum((x - sub @ gamma) ** 2))
        if obj < best:
            best, best_sup = obj, set(sup)
    return best, best_sup


def test_omp_never_beats_exhaustive_oracle():
    # the exhaustive search is optimal: greedy can only tie it or lose
    for seed in range(30):
        rng = np.random.default_rng(seed)
        D = _unit_dictionary(8, 12, seed=seed)
        x = rng.standard_normal(8)
        code = omp(D, x, q=2)
        oracle, _ = _oracle_two_sparse(D, x)
        assert code.residual_norm**2 >= oracle - 1e-9 * float(x @ x)


def test_omp_exact_recovery_under_coherence_condition():
    # mu (2q - 1) < 1 guarantees exact 2-sparse recovery; an orthonormal
    # dictionary (mu = 0) satisfies it for any q
    for seed in range(30):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        sup = rng.choice(8, size=2, replace=False)
        gamma = np.zeros(8)
        gamma[sup] = rng.choice([-1.0, 1.0], 2) * rng.uniform(1.0, 2.0, 2)
        x = Q @ gamma
        code = omp(Q, x, q=2)
        assert set(code.support.tolist()) == set(sup.tolist())
        oracle, oracle_sup = _oracle_two_sparse(Q, x)
        assert code.residual_norm**2 <= 1.05 * oracle + 1e-10 * float(x @ x)
        assert oracle_sup == set(sup.tolist())


def test_omp_batch_identity_code_when_x_is_dictionary():
    D = _unit_dictionary(5, 7, seed=2)
    Gamma = omp_batch(D, D, q=1)
    assert np.allclose(Gamma, np.eye(7), atol=1e-10)


def test_omp_batch_matches_per_column():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        D = _unit_dictionary(6, 9, seed=seed)
        X = rng.standard_normal((6, 11))
        q = int(rng.integers(1, 4))
        Gamma = omp_batch(D, X, q)
        ref = _reference_dense(D.T @ X, D.T @ D, np.sum(X * X, axis=0), q)
        assert np.array_equal(Gamma != 0, ref != 0)
        assert np.allclose(Gamma, ref, atol=1e-10)
        for i in range(11):
            code = omp(D, X[:, i], q)
            dense = np.zeros(9)
            dense[code.support] = code.values
            assert np.allclose(Gamma[:, i], dense, atol=1e-10)


def test_omp_batch_empty_input():
    D = _unit_dictionary(4, 6)
    Gamma = omp_batch(D, np.empty((4, 0)), q=2)
    assert Gamma.shape == (6, 0)


def test_komp_linear_kernel_equals_omp():
    linear = KernelSpec(kind="linear")
    for seed in range(25):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((7, 20))
        cols = rng.choice(20, size=8, replace=False)
        A = np.zeros((20, 8))
        A[cols, np.arange(8)] = 1.0 / np.linalg.norm(X[:, cols], axis=0)
        K = kernel_matrix(linear, X, X)
        z = rng.standard_normal(7)
        kc = komp(K, z @ X, float(z @ z), A, q=3)
        oc = omp(X[:, cols] / np.linalg.norm(X[:, cols], axis=0), z, q=3)
        assert kc.support.tolist() == oc.support.tolist()
        assert np.allclose(kc.values, oc.values, atol=1e-8)
        assert kc.residual_norm == pytest.approx(oc.residual_norm, abs=1e-8)


def test_komp_feature_space_atom_exact():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 12))
    K = kernel_matrix(KernelSpec(kind="gaussian", sigma=1.5), X, X)
    A, _ = normalize_coefficient_dictionary(rng.standard_normal((12, 6)), K)
    j = 4
    # z = feature-space atom j: K(z, X) = a_j^T K and kzz = a_j^T K a_j = 1
    K_zX = A[:, j] @ K
    kzz = float(A[:, j] @ K @ A[:, j])
    code = komp(K, K_zX, kzz, A, q=1)
    assert code.support.tolist() == [j]
    assert code.values[0] == pytest.approx(1.0, abs=1e-10)
    assert code.residual_norm == pytest.approx(0.0, abs=1e-6)


def test_komp_matches_omp_on_exact_virtual_samples():
    # coding through kernel values equals coding the explicit virtual
    # samples with the virtual dictionary F A
    rng = np.random.default_rng(7)
    B = rng.standard_normal((25, 20))
    K = B.T @ B
    A, _ = normalize_coefficient_dictionary(rng.standard_normal((20, 10)), K)
    F = exact_virtual_samples(K, 20)
    DF = F @ A
    for i in range(10):
        kc = komp(K, K[i], float(K[i, i]), A, q=3)
        oc = omp(DF, F[:, i], q=3)
        assert kc.support.tolist() == oc.support.tolist()
        assert np.allclose(kc.values, oc.values, atol=1e-8)


def test_komp_batch_matches_scalar_komp():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((10, 15))
    K = B.T @ B
    A, _ = normalize_coefficient_dictionary(rng.standard_normal((15, 7)), K)
    Z = rng.standard_normal((10, 6))
    X = B  # signals and kernel share the same feature map here
    K_ZX = Z.T @ B
    kzz = np.sum(Z * Z, axis=0)
    Gamma = komp_batch(K, K_ZX, kzz, A, q=2)
    ref = _reference_dense((K_ZX @ A).T, A.T @ (K @ A), kzz, 2)
    assert np.array_equal(Gamma != 0, ref != 0)
    assert np.allclose(Gamma, ref, atol=1e-10)
    for i in range(6):
        code = komp(K, K_ZX[i], float(kzz[i]), A, q=2)
        dense = np.zeros(7)
        dense[code.support] = code.values
        assert np.allclose(Gamma[:, i], dense, atol=1e-10)


def test_q1_fast_path_matches_generic_loop():
    # q=1 is the batch pursuit's first step; it must agree with the
    # per-column reference loop
    for seed in range(15):
        rng = np.random.default_rng(seed)
        D = _unit_dictionary(6, 10, seed=seed)
        X = rng.standard_normal((6, 20))
        X[:, 0] = 0.0
        fast = omp_batch(D, X, 1)
        slow = _reference_dense(D.T @ X, D.T @ D, np.sum(X * X, axis=0), 1)
        assert np.array_equal(fast != 0, slow != 0)
        assert np.allclose(fast, slow, atol=1e-12)


def test_residual_energies_match_explicit_residuals():
    # the energy the pursuit tracks, ||x||^2 - c_S^T gamma_S, is the
    # residual energy of its least-squares codes, for OMP codes in the
    # signal space and KOMP codes in feature space
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 5))
        D = _unit_dictionary(8, 12, seed=seed)
        X = rng.standard_normal((8, 30))
        X[:, 0] = D[:, 3]  # cancels to rounding level after one atom
        X[:, 1] = 0.0
        Gamma = omp_batch(D, X, q)
        norms2 = np.sum(X * X, axis=0)
        R = X - D @ Gamma
        energies = residual_energies(D.T @ X, D.T @ D, norms2, q)
        gap = energies - np.sum(R * R, axis=0)
        assert np.all(np.abs(gap) <= 1e-12 * norms2)

        B = rng.standard_normal((6, 20))
        K = kernel_matrix(KernelSpec(kind="gaussian", sigma=2.0), B, B)
        A, _ = normalize_coefficient_dictionary(rng.standard_normal((20, 7)), K)
        Z = rng.standard_normal((6, 15))
        K_ZX = kernel_matrix(KernelSpec(kind="gaussian", sigma=2.0), Z, B)
        kzz = np.ones(15)
        Gamma = komp_batch(K, K_ZX, kzz, A, q)
        M = A.T @ K @ A
        # ||phi(z) - Phi(X) A gamma||^2 expanded through kernel values
        explicit = (kzz - 2.0 * np.sum((K_ZX @ A).T * Gamma, axis=0)
                    + np.sum(Gamma * (M @ Gamma), axis=0))
        np.testing.assert_allclose(
            residual_energies((K_ZX @ A).T, M, kzz, q),
            np.maximum(explicit, 0.0),
            rtol=0.0, atol=1e-12,
        )


def test_normalize_coefficient_dictionary_unit_feature_norms():
    rng = np.random.default_rng(13)
    B = rng.standard_normal((9, 14))
    K = B.T @ B
    A, _ = normalize_coefficient_dictionary(rng.standard_normal((14, 5)), K)
    norms = np.einsum("ij,ij->j", A, K @ A)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_invalid_cardinality_rejected():
    D = _unit_dictionary(4, 5)
    with pytest.raises(ValueError):
        omp(D, np.ones(4), q=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_residual_decreases_with_budget(seed, q):
    rng = np.random.default_rng(seed)
    D = _unit_dictionary(8, 12, seed=seed)
    x = rng.standard_normal(8)
    prev = float(np.linalg.norm(x))
    for budget in range(1, q + 1):
        code = omp(D, x, budget)
        assert code.residual_norm <= prev + 1e-9
        prev = code.residual_norm


def _assert_batch_matches_reference(C0, G, norms2, q):
    support, values, size, rnorm2, degenerate = _batch_pursuit(
        C0, G, norms2, q
    )
    for i in range(C0.shape[1]):
        ref = _greedy_pursuit(C0[:, i], G, float(norms2[i]), q)
        s = int(size[i])
        assert support[i, :s].tolist() == ref.support.tolist()
        # coefficients are bounded relative to their size: an ill-conditioned
        # support Gram amplifies rounding by its condition number
        atol = 1e-10 * max(1.0, np.abs(ref.values).max(initial=0.0))
        assert np.allclose(values[i, :s], ref.values, rtol=0.0, atol=atol)
        # energies, not norms: the square root of an energy that cancels to
        # about 1e-15 would magnify its rounding to about 1e-8
        assert rnorm2[i] == pytest.approx(ref.residual_norm**2, abs=1e-10)
        assert bool(degenerate[i]) == ref.degenerate


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 8),
    m=st.integers(1, 12),
    n=st.integers(1, 6),
    q=st.integers(1, 14),
    zero_columns=st.booleans(),
)
# coefficients of about 82 on a support Gram of condition 4.4e4: the two
# pursuits differ by 1.0e-10, 1.2e-12 of the coefficients' size
@example(seed=3, p=7, m=6, n=2, q=6, zero_columns=False)
def test_batch_pursuit_matches_reference_on_random_dictionaries(
    seed, p, m, n, q, zero_columns
):
    # past p - 1 atoms the residual is rounding noise and the choice of the
    # next atom is arbitrary in both pursuits. Duplicated atoms and exact
    # ties are checked in exact arithmetic below: with rounding, the
    # reference can break a tie between identical atoms toward the higher
    # index, because its correlation update rounds identical rows apart
    assume(min(q, m) < p)
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((p, m))
    D /= np.linalg.norm(D, axis=0)
    X = rng.standard_normal((p, n))
    if zero_columns:
        X[:, rng.random(n) < 0.5] = 0.0
    _assert_batch_matches_reference(
        D.T @ X, D.T @ D, np.sum(X * X, axis=0), q
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 4),
    m=st.integers(1, 8),
    n=st.integers(1, 6),
    q=st.integers(1, 10),
)
def test_batch_pursuit_matches_reference_in_exact_arithmetic(
    seed, p, m, n, q
):
    # atoms drawn from {0, +-e_1, ..., +-e_p} with integer correlations and
    # energies keep every step exact: correlations tie often (lowest index
    # wins), repeated axes and zero atoms make the support Gram singular
    # (pivot exactly 0: drop the atom, keep the code, flag degenerate), and
    # zero columns are never coded
    rng = np.random.default_rng(seed)
    axes = rng.integers(-1, p, size=m)
    D = np.zeros((p, m))
    cols = np.flatnonzero(axes >= 0)
    D[axes[cols], cols] = rng.choice([-1.0, 1.0], size=cols.size)
    C0 = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
    norms2 = rng.integers(0, 21, size=n).astype(np.float64)
    zero = rng.random(n) < 0.25
    C0[:, zero] = 0.0
    norms2[zero] = 0.0
    _assert_batch_matches_reference(C0, D.T @ D, norms2, q)
