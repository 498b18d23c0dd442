"""Greedy pursuit: orthogonal matching pursuit (OMP) and its kernelized
form (KOMP) that operates entirely through kernel values and a coefficient
dictionary A (feature-space atoms Phi(X) a_j).

Both run one batch pursuit over (correlations, atom Gram, signal
energies): pick the atom with the largest absolute correlation to the
residual (lowest index on ties), re-solve least squares on the support,
repeat until the code has q atoms or the residual is zero. Single-signal
calls are batches of one.

Every code is a least-squares fit on its support, so its residual energy
is ||x||^2 - gamma^T G gamma for the atom Gram G (``residual_energies``),
in either inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SparseCode:
    """Result of a single pursuit: ordered support, matching coefficients,
    final residual l2 norm and a degeneracy flag (singular support Gram)."""

    support: np.ndarray
    values: np.ndarray
    residual_norm: float
    degenerate: bool = False

    def to_dense(self, m: int) -> np.ndarray:
        g = np.zeros(m)
        g[self.support] = self.values
        return g


def _batch_pursuit(
    C0: np.ndarray,
    G: np.ndarray,
    norms2: np.ndarray,
    q: int,
):
    """Greedy pursuit of n signals at once (Batch-OMP: Rubinstein,
    Zibulevsky & Elad, "Efficient implementation of the K-SVD algorithm
    using Batch Orthogonal Matching Pursuit", Technion CS-2008-08).

    ``C0`` holds the m x n initial correlations <x_i, d_j> (in whatever
    inner product applies), ``G`` the m x m atom Gram in the same inner
    product and ``norms2`` the n squared signal norms. Each step adds one
    atom to every active column and extends that column's Cholesky factor
    of its support Gram by one row, so the Python loop runs min(q, m) times.

    A column stops when its residual energy drops to zero, when its best
    correlation is exactly 0 after the first atom, or when the new pivot
    is not positive (singular support Gram): that atom is dropped, the
    previous code kept and the column flagged degenerate.

    Returns (support, values, size, rnorm2, degenerate): row i holds column
    i's atoms in selection order and their coefficients in its first
    ``size[i]`` entries, its residual energy and its degeneracy flag.
    """
    m, n = C0.shape
    smax = max(min(q, m), 0)
    support = np.zeros((n, smax), dtype=np.int64)
    values = np.zeros((n, smax))
    size = np.zeros(n, dtype=np.int64)
    rnorm2 = np.maximum(norms2, 0.0)
    degenerate = np.zeros(n, dtype=bool)
    CT, GT = C0.T, np.ascontiguousarray(G.T)
    # state of the active columns: indices, atoms, Cholesky factors L of
    # the support Grams, c0_S, L^{-1} c0_S and the coefficients
    act = np.flatnonzero(rnorm2 > 0.0)
    S = np.zeros((act.size, smax), dtype=np.int64)
    L = np.zeros((act.size, smax, smax))
    cS = np.zeros((act.size, smax))
    y = np.zeros((act.size, smax))
    gam = np.zeros((act.size, smax))

    def keep_only(keep):
        nonlocal act, S, L, cS, y, gam
        act, S, L, cS, y, gam = (a[keep] for a in (act, S, L, cS, y, gam))

    for s in range(smax):
        if act.size == 0:
            break
        rows = np.arange(act.size)
        if s == 0:
            absC = np.abs(CT if act.size == n else CT[act])
        else:
            corr = CT[act]
            for k in range(s):
                corr = corr - gam[:, k, None] * GT[S[:, k]]
            absC = np.abs(corr)
            absC[rows[:, None], S[:, :s]] = 0.0
        j = absC.argmax(axis=1)
        if s:
            live = absC[rows, j] != 0.0
            if not live.all():
                keep_only(live)
                j = j[live]
        # new row of the support Gram's Cholesky factor: L w = G[S, j],
        # pivot d^2 = G[j, j] - |w|^2
        w = L[:, s, :s]
        for k in range(s):
            w[:, k] = (G[S[:, k], j] - np.einsum(
                "ij,ij->i", L[:, k, :k], w[:, :k])) / L[:, k, k]
        d2 = G[j, j] - np.einsum("ij,ij->i", w, w)
        ok = d2 > 0.0
        if not ok.all():
            degenerate[act[~ok]] = True
            keep_only(ok)
            j, d2 = j[ok], d2[ok]
        S[:, s] = j
        L[:, s, s] = np.sqrt(d2)
        cS[:, s] = CT[act, j]
        y[:, s] = (cS[:, s] - np.einsum(
            "ij,ij->i", L[:, s, :s], y[:, :s])) / L[:, s, s]
        # back substitution L^T gamma_S = y
        for k in range(s, -1, -1):
            gam[:, k] = (y[:, k] - np.einsum(
                "ij,ij->i", L[:, k + 1 : s + 1, k], gam[:, k + 1 : s + 1])
            ) / L[:, k, k]
        r = np.maximum(norms2[act] - np.einsum(
            "ij,ij->i", cS[:, : s + 1], gam[:, : s + 1]), 0.0)
        support[act, s] = j
        values[act, : s + 1] = gam[:, : s + 1]
        size[act] = s + 1
        rnorm2[act] = r
        going = r > 0.0
        if not going.all():
            keep_only(going)
    return support, values, size, rnorm2, degenerate


def _dense_codes(C0, G, norms2, q: int) -> np.ndarray:
    """Batch pursuit from (correlations ``C0``, atom Gram ``G``, signal
    energies ``norms2``), its codes scattered into the m x n coefficient
    matrix."""
    support, values, size, _, _ = _batch_pursuit(C0, G, norms2, q)
    Gamma = np.zeros((G.shape[0], size.shape[0]))
    filled = np.arange(support.shape[1]) < size[:, None]
    Gamma[support[filled], np.nonzero(filled)[0]] = values[filled]
    return Gamma


def _single_code(C0, G, norm2: float, q: int) -> SparseCode:
    support, values, size, rnorm2, degenerate = _batch_pursuit(
        C0.reshape(-1, 1), G, np.array([norm2]), q
    )
    s = int(size[0])
    return SparseCode(
        support=support[0, :s],
        values=values[0, :s],
        residual_norm=float(np.sqrt(rnorm2[0])),
        degenerate=bool(degenerate[0]),
    )


def omp(D: np.ndarray, x: np.ndarray, q: int) -> SparseCode:
    """Orthogonal matching pursuit of x over the unit-norm dictionary D."""
    D = np.atleast_2d(np.asarray(D, dtype=np.float64))
    x = np.ravel(np.asarray(x, dtype=np.float64))
    if q < 1:
        raise ValueError("cardinality q must be >= 1")
    if D.shape[0] != x.shape[0]:
        raise ValueError("signal dimension does not match dictionary")
    return _single_code(D.T @ x, D.T @ D, float(x @ x), q)


def omp_batch(D: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """OMP of every column of X in one batch pursuit, with the Gram matrix
    and D^T X computed once.

    Returns the dense m x N coefficient matrix.
    """
    D = np.atleast_2d(np.asarray(D, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return _dense_codes(D.T @ X, D.T @ D, np.sum(X * X, axis=0), q)


def normalize_coefficient_dictionary(A: np.ndarray, K_XX: np.ndarray) -> np.ndarray:
    """Scale the columns of A so each feature-space atom has unit norm,
    a_j^T K a_j = 1. Zero-norm atoms are left untouched."""
    A = np.asarray(A, dtype=np.float64)
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", A, K_XX @ A), 0.0))
    scale = np.where(norms > 1e-12, norms, 1.0)
    return A / scale


def komp(
    K_XX: np.ndarray,
    K_zX: np.ndarray,
    kzz: float,
    A: np.ndarray,
    q: int,
) -> SparseCode:
    """Kernel OMP of a signal z over the coefficient dictionary A.

    Correlations are K(z,X) a_j - gamma_S^T A_S^T K(X,X) a_j and the support
    solve is [A_S^T K A_S]^{-1} (K(z,X) A_S)^T; the residual norm is tracked
    through kzz and the same quantities, so the feature space is never
    touched.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    K_zX = np.ravel(np.asarray(K_zX, dtype=np.float64))
    if q < 1:
        raise ValueError("cardinality q must be >= 1")
    if K_zX.shape[0] != A.shape[0]:
        raise ValueError("K(z,X) length does not match coefficient dictionary")
    M = A.T @ (np.asarray(K_XX, dtype=np.float64) @ A)
    return _single_code(K_zX @ A, M, float(kzz), q)


def komp_batch(
    K_XX: np.ndarray,
    K_ZX: np.ndarray,
    kzz: np.ndarray,
    A: np.ndarray,
    q: int,
) -> np.ndarray:
    """KOMP over many signals in one batch pursuit; rows of K_ZX are
    K(z_i, X). Returns the dense m x n_z coefficient matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    K_ZX = np.atleast_2d(np.asarray(K_ZX, dtype=np.float64))
    kzz = np.ravel(np.asarray(kzz, dtype=np.float64))
    M = A.T @ (np.asarray(K_XX, dtype=np.float64) @ A)
    return _dense_codes((K_ZX @ A).T, M, kzz, q)


def residual_energies(
    Gamma: np.ndarray, G: np.ndarray, norms2: np.ndarray
) -> np.ndarray:
    """Squared residuals max(||x_i||^2 - gamma_i^T G gamma_i, 0) of
    least-squares codes (the columns of Gamma, as the pursuits return them)
    over atoms with Gram G, given the signals' squared norms ``norms2``."""
    return np.maximum(norms2 - np.einsum("ij,ij->j", Gamma, G @ Gamma), 0.0)
