import numpy as np
import pytest

from lkdl.datasets import synth_planted_sparse
from lkdl.dict_learning import (
    _pinv_cutoff,
    _top_singular_triplet,
    clear_coefficient_dictionary,
    clear_dictionary,
    kernel_mod_learn,
    kernel_objective,
    ksvd_update,
    learn,
    mod_update,
    reconstruction_objective,
)
from lkdl.sparse_coding import komp_batch, omp_batch


def _rand(p, n, seed=0):
    return np.random.default_rng(seed).standard_normal((p, n))


# ---------------------------------------------------------------- mod update


def test_mod_exact_model_recovery():
    # X = D Gamma with full-row-rank Gamma: the LS update returns D up to
    # column scaling (absorbed into the rescaled Gamma rows)
    rng = np.random.default_rng(0)
    D0 = rng.standard_normal((6, 4))
    Gamma = rng.standard_normal((4, 30))
    X = D0 @ Gamma
    D, G, degenerate = mod_update(X, Gamma)
    assert not degenerate
    assert np.allclose(D @ G, X, atol=1e-9)
    cos = np.abs(np.sum(D * (D0 / np.linalg.norm(D0, axis=0)), axis=0))
    assert np.allclose(cos, 1.0, atol=1e-9)


def test_mod_identity_codes_normalize_data():
    X = _rand(5, 4, seed=1)
    D, G, _ = mod_update(X, np.eye(4))
    assert np.allclose(D, X / np.linalg.norm(X, axis=0), atol=1e-12)


def test_mod_update_never_increases_objective():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 25))
        D = rng.standard_normal((6, 8))
        D /= np.linalg.norm(D, axis=0)
        Gamma = omp_batch(D, X, 2)
        before = reconstruction_objective(X, D, Gamma)
        D2, G2, _ = mod_update(X, Gamma)
        after = reconstruction_objective(X, D2, G2)
        assert after <= before * (1 + 1e-9) + 1e-12


def test_pinv_cutoff_matches_reference():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 15)), int(rng.integers(2, 30))
        G = rng.standard_normal((m, n))
        if seed % 4 == 0 and m > 1:
            G[0] = G[1]  # rank deficient
        if seed % 5 == 0:
            G[m // 2] = 0.0  # dead row
        if seed % 7 == 0:
            G = G.T
        P, _ = _pinv_cutoff(G)
        ref = np.linalg.pinv(G, rcond=1e-10)
        assert np.max(np.abs(P - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


# --------------------------------------------------------------- ksvd update


def test_ksvd_fixed_point_at_zero_objective():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((5, 4))
    D /= np.linalg.norm(D, axis=0)
    Gamma = rng.standard_normal((4, 20))
    X = D @ Gamma
    D2, G2, _ = ksvd_update(X, D, Gamma)
    assert reconstruction_objective(X, D2, G2) < 1e-20 * np.sum(X * X)


def test_ksvd_single_atom_is_principal_direction():
    X = _rand(6, 30, seed=3)
    D = np.ones((6, 1)) / np.sqrt(6)
    Gamma = np.ones((1, 30))
    D2, G2, _ = ksvd_update(X, D, Gamma)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    assert abs(abs(U[:, 0] @ D2[:, 0]) - 1.0) < 1e-8
    assert np.allclose(np.abs(G2[0]), np.abs(s[0] * Vt[0]), atol=1e-6)


def test_ksvd_objective_non_increasing_per_call():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((7, 40))
        D = rng.standard_normal((7, 10))
        D /= np.linalg.norm(D, axis=0)
        Gamma = omp_batch(D, X, 3)
        before = reconstruction_objective(X, D, Gamma)
        D2, G2, _ = ksvd_update(X, D, Gamma)
        assert reconstruction_objective(X, D2, G2) <= before * (1 + 1e-9)


def test_top_singular_triplet_matches_svd():
    E = _rand(8, 12, seed=4)
    u, s, v = _top_singular_triplet(E)
    U, sv, Vt = np.linalg.svd(E)
    assert s == pytest.approx(sv[0], rel=1e-8)
    assert abs(abs(u @ U[:, 0]) - 1.0) < 1e-6


# ----------------------------------------------------------------- learning


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_recovers_planted_dictionary(method):
    ds, D0, Gamma0 = synth_planted_sparse(16, 400, 8, 1, seed=0,
                                          max_coherence=0.5)
    D, Gamma, report = learn(ds.samples, 8, 1, 10, method=method, seed=5)
    assert report.objective_trace[-1] <= 1e-6 * np.sum(ds.samples**2)


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_zero_iterations_returns_initial_coding(method):
    X = _rand(6, 40, seed=6)
    D, Gamma, report = learn(X, 8, 2, 0, method=method, seed=1)
    assert len(report.objective_trace) == 1
    assert report.objective_trace[0] == pytest.approx(
        reconstruction_objective(X, D, Gamma)
    )


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_objective_trace_non_increasing(method):
    for seed in range(10):
        X = _rand(8, 60, seed=seed)
        _, _, report = learn(X, 12, 3, 6, method=method, seed=seed)
        tr = report.objective_trace
        for a, b in zip(tr, tr[1:]):
            assert b <= a * (1 + 1e-9) + 1e-9


def test_clear_dictionary_replaces_duplicates_and_unused():
    X = _rand(5, 30, seed=7)
    D = _rand(5, 6, seed=8)
    D /= np.linalg.norm(D, axis=0)
    D[:, 1] = D[:, 0]  # duplicate pair
    Gamma = omp_batch(D, X, 2)
    D2, replaced = clear_dictionary(X, D, Gamma)
    assert replaced >= 1
    G = np.abs(D2.T @ D2)
    np.fill_diagonal(G, 0.0)
    assert G.max() <= 0.99 + 1e-12


# ---------------------------------------------------------- kernel learning


def test_kernel_learn_matches_linear_on_planted_data():
    # kernel learning is the linear alternation in the space K = X^T X:
    # every objective of the trace and the replaced-atom count agree
    replaced = 0
    for n, data_seed, seed in ((150, 3, 4), (180, 0, 1)):
        ds, _, _ = synth_planted_sparse(12, n, 10, 2, seed=data_seed,
                                        max_coherence=0.6)
        X = ds.samples
        _, _, rep_lin = learn(X, 10, 2, 6, method="mod", seed=seed)
        _, _, rep_ker = kernel_mod_learn(X.T @ X, 10, 2, 6, seed=seed)
        assert rep_ker.objective_trace == pytest.approx(
            rep_lin.objective_trace, rel=1e-9
        )
        assert rep_ker.replaced_atoms == rep_lin.replaced_atoms
        replaced += rep_lin.replaced_atoms
    assert replaced > 0  # the clearing step took part


def test_kernel_learn_zero_iterations_objective_formula():
    # 5-sample toy set: the reported objective must equal the direct
    # expansion tr(K) - 2 tr(K A Gamma) + tr(Gamma^T A^T K A Gamma)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 5))
    K = X.T @ X
    A, Gamma, report = kernel_mod_learn(K, 3, 1, 0, seed=2)
    direct = (
        np.trace(K)
        - 2.0 * np.trace(K @ A @ Gamma)
        + np.trace(Gamma.T @ A.T @ K @ A @ Gamma)
    )
    assert report.objective_trace[0] == pytest.approx(direct, rel=1e-10)
    assert report.objective_trace[0] == pytest.approx(
        kernel_objective(K, A, Gamma), rel=1e-12
    )


def test_kernel_learn_trace_non_increasing():
    for seed in range(8):
        X = _rand(6, 50, seed=seed)
        _, _, report = kernel_mod_learn(X.T @ X, 10, 2, 6, seed=seed)
        tr = report.objective_trace
        for a, b in zip(tr, tr[1:]):
            assert b <= a * (1 + 1e-9) + 1e-9


def test_kernel_atoms_unit_feature_norm_after_learning():
    X = _rand(5, 40, seed=10)
    K = X.T @ X
    A, _, _ = kernel_mod_learn(K, 8, 2, 4, seed=1)
    norms = np.einsum("ij,ij->j", A, K @ A)
    assert np.allclose(norms, 1.0, atol=1e-8)


def test_clear_coefficient_dictionary_mirrors_linear_clearing():
    # incremental M update inside the kernel-domain clearing must leave
    # M = A^T K A consistent with direct recomputation
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 25))
    K = X.T @ X
    A = rng.standard_normal((25, 8))
    from lkdl.sparse_coding import normalize_coefficient_dictionary

    A = normalize_coefficient_dictionary(A, K)
    A[:, 2] = A[:, 1]  # duplicate feature atom
    Gamma = komp_batch(K, K, np.diag(K).copy(), A, 2)
    A2, replaced = clear_coefficient_dictionary(K, np.diag(K).copy(), A, Gamma)
    assert replaced >= 1
    M = A2.T @ K @ A2
    off = np.abs(M - np.diag(np.diag(M)))
    assert off.max() <= 0.99 * np.sqrt(np.diag(M).max() * np.diag(M).min()) + 1e-9
    # with K = X^T X the feature-space atoms are the columns of D = X A, and
    # the linear clearing replaces the same atoms by the same signals
    D2, replaced_lin = clear_dictionary(X, X @ A, Gamma)
    assert replaced_lin == replaced
    assert np.abs(X @ A2 - D2).max() <= 1e-12


def test_learn_rejects_unknown_method():
    with pytest.raises(ValueError):
        learn(_rand(3, 10), 4, 1, 2, method="nope")


def test_kernel_learn_rejects_too_many_atoms():
    X = _rand(3, 5)
    with pytest.raises(ValueError):
        kernel_mod_learn(X.T @ X, 6, 1, 2)
