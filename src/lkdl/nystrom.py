"""Virtual-sample embeddings via landmark-based low-rank kernel factorization.

The fitted map holds the landmark set X_R and the top-k eigenpairs of
W = K(X_R, X_R). A sample x maps to f = Sigma_k^{-1/2} V_k^T K(X_R, x), so
that f^T f' approximates kappa(x, x'). The exact (full-eigendecomposition)
path is kept as a reference for tests and for the c = N configuration.

Which solver runs: when k is given and c >= LANCZOS_C_PER_K k, block
Lanczos computes only the top k pairs (``_lanczos_top``), after a Cholesky
factorization of W + PSD_RTOL tr(W) I has shown W is not indefinite. For
k = None, for larger k, and in the rare case that Lanczos has not converged
within c/2 basis vectors, a full ``eigh`` computes every pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import _BLOCK, KernelSpec, kernel_matrix
from .sampling import LandmarkSet, SamplerSpec, select_landmarks

#: Relative eigenvalue cutoff used in place of an exact pseudo-inverse.
EIG_RTOL = 1e-10
#: Relative (to the trace) tolerance for negative eigenvalues of a kernel matrix.
PSD_RTOL = 1e-8
#: Lanczos block size, at most: each pass multiplies W by this many vectors
#: at once, and an eigenvalue repeated up to this many times among the top k
#: is found as surely as a simple one.
LANCZOS_BLOCK = 4
#: Lanczos stops once every one of the top k Ritz pairs has a residual norm
#: of at most this fraction of the largest Ritz value. A new basis vector
#: whose norm before normalization is at most this fraction of the largest
#: ||W q|| seen marks an invariant subspace; a fresh start vector replaces it.
LANCZOS_RTOL = 1e-13
#: The top-k path runs when c is at least this many times k. On perfbench's
#: W at one BLAS thread (``scalebench/topk.py``, ``BENCH_26_topk.json``)
#: Lanczos took 0.5-0.8 of the full eigh's time at c/k = 16 and 0.7-1.06
#: at 12, but 0.95-1.14 at c/k = 8-10 for c = 400 and 1.13-1.37 at 8 for
#: c = 800. With c/2 basis vectors, its limit, it costs about one to two
#: eighs, which a fallback adds to the eigh's own time.
LANCZOS_C_PER_K = 12


@dataclass
class NystromMap:
    """Fitted virtual-sample embedding.

    ``sigma_k`` holds the surviving top eigenvalues of W in descending order
    and ``V_k`` the matching orthonormal eigenvectors. ``k`` is the effective
    embedding dimension, which may be smaller than requested when trailing
    eigenvalues fall below the rank cutoff (``truncated`` is set then).
    """

    kernel: KernelSpec
    X_R: np.ndarray
    V_k: np.ndarray
    sigma_k: np.ndarray
    truncated: bool = False
    landmark_indices: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.sigma_k.shape[0]

    @property
    def c(self) -> int:
        return self.X_R.shape[1]

    @property
    def p(self) -> int:
        return self.X_R.shape[0]


def _indefinite(context: str, min_eigenvalue: float) -> ValueError:
    return ValueError(f"{context}: matrix is numerically indefinite "
                      f"(min eigenvalue {min_eigenvalue:.3e})")


def _next_block(Z, Q, floor, rng):
    """Orthonormal rows spanning the rows of Z, which are orthogonal to the
    rows of Q up to rounding. A row that loses more than half its norm to
    the rows before it is projected off Q and them again, since what is left
    of it along Q grows relative to it; a row whose norm falls to ``floor``
    or below is replaced by a fresh random direction orthogonal to both."""
    out = np.empty_like(Z)
    for i, z in enumerate(Z):
        before = np.linalg.norm(z)
        z = z - (out[:i] @ z) @ out[:i]
        norm = np.linalg.norm(z)
        if norm < before / 2:
            if norm <= floor:
                z = rng.standard_normal(z.size)
            for _ in range(2):
                z -= (Q @ z) @ Q
                z -= (out[:i] @ z) @ out[:i]
            norm = np.linalg.norm(z)
        out[i] = z / norm
    return out


def _lanczos_top(K: np.ndarray, k: int):
    """Top-k eigenpairs (values descending, vectors as columns) of the
    symmetric c x c matrix K by block Lanczos with full reorthogonalization
    (Golub & Van Loan, Matrix Computations), or None if they have not
    converged once the basis holds c/2 vectors.

    The basis grows from a fixed pseudo-random block, so a repeated call
    gives identical results. Each pass multiplies K by the newest block,
    orthogonalizes the product against the whole basis twice and keeps the
    coefficients: they are the rows of H = Q K Q^T, the Rayleigh quotient
    the Ritz pairs come from. A Ritz pair's residual is the part of K Q^T s
    outside the basis, which only the newest product holds.
    """
    c = K.shape[0]
    b = min(LANCZOS_BLOCK, k)
    limit = c // 2
    rng = np.random.default_rng(0)
    Q = np.empty((limit, c))  # rows: the orthonormal basis
    H = np.zeros((limit, limit))  # lower triangle: Q K Q^T
    Q[:b] = np.linalg.qr(rng.standard_normal((c, b)))[0].T
    j0, check, scale = 0, k, 0.0
    while True:
        j1 = j0 + b
        Z = Q[j0:j1] @ K
        scale = max(scale, np.linalg.norm(Z, axis=1).max())
        for _ in range(2):
            h = Z @ Q[:j1].T
            Z -= h @ Q[:j1]
            H[j0:j1, :j1] += h
        last = j1 + b > limit
        if j1 >= check or last:
            theta, S = np.linalg.eigh(H[:j1, :j1])  # reads the lower triangle
            theta, S = theta[: -k - 1 : -1], S[:, : -k - 1 : -1]
            worst = np.linalg.norm(S[j0:j1].T @ Z, axis=1).max()
            tolerance = LANCZOS_RTOL * max(theta[0], 0.0)
            if worst <= tolerance:
                return theta, Q[:j1].T @ S
            check = j1 + max(b, max(k, j1) // 2)  # the basis grows by half
        if last:
            return None
        Q[j1 : j1 + b] = _next_block(Z, Q[:j1], LANCZOS_RTOL * scale, rng)
        j0 = j1


def _top_eigpairs(K: np.ndarray, k: int | None, context: str):
    """Top-k eigenpairs of a symmetric PSD matrix, descending, with the
    numerical-rank cutoff applied; k = None keeps every pair above the
    cutoff. Returns (values, vectors, truncated).

    With k given and c >= LANCZOS_C_PER_K k, only the top k pairs are computed
    (``_lanczos_top``); the rank cutoff is then read from them, which
    decides the same truncation. An indefinite matrix is refused on either
    path: from the full spectrum, or when the Cholesky factorization of
    K + PSD_RTOL tr(K) I fails, which happens iff its least eigenvalue is
    below -PSD_RTOL tr(K), up to rounding."""
    K = np.asarray(K, dtype=np.float64)
    Ks = (K + K.T) / 2.0
    c = Ks.shape[0]
    tr = max(np.trace(Ks), np.finfo(float).tiny)
    pairs = None
    if k is not None and LANCZOS_C_PER_K * k <= c:
        shifted = Ks.copy()
        shifted.flat[:: c + 1] += PSD_RTOL * tr
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise _indefinite(context, np.linalg.eigvalsh(Ks)[0]) from None
        del shifted
        pairs = _lanczos_top(Ks, k)
    if pairs is None:
        w, V = np.linalg.eigh(Ks)
        w, V = w[::-1], V[:, ::-1]
        if w[-1] < -PSD_RTOL * tr:
            raise _indefinite(context, w[-1])
    else:
        w, V = pairs
    cutoff = EIG_RTOL * max(w[0], 0.0)
    keep = w > cutoff
    rank = int(np.count_nonzero(keep))
    truncated = False
    if k is None:
        k = rank
    elif k > rank:
        warnings.warn(
            f"{context}: requested dimension {k} exceeds numerical rank "
            f"{rank}; truncating"
        )
        truncated = True
        k = rank
    if k == 0:
        raise ValueError(f"{context}: matrix has numerical rank zero")
    return w[:k], V[:, :k], truncated


def fit(
    X_train: np.ndarray,
    kernel: KernelSpec,
    sampler: SamplerSpec,
    k: int,
) -> NystromMap:
    """Select landmarks, build W = K(X_R, X_R) and keep its top-k eigenpairs."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=np.float64))
    if k < 1:
        raise ValueError("embedding dimension k must be >= 1")
    if k > sampler.c:
        raise ValueError(f"k={k} exceeds the number of landmarks c={sampler.c}")
    landmarks = select_landmarks(X_train, sampler, kernel)
    return fit_from_landmarks(landmarks, kernel, k)


def fit_from_landmarks(
    landmarks: LandmarkSet, kernel: KernelSpec, k: int | None
) -> NystromMap:
    """Keep the top-k eigenpairs of W = K(X_R, X_R); k = None keeps all
    above the rank cutoff."""
    W = kernel_matrix(kernel, landmarks.X_R, landmarks.X_R)
    sigma, V, truncated = _top_eigpairs(W, k, f"{kernel.kind} kernel landmark matrix")
    return NystromMap(
        kernel=kernel,
        X_R=landmarks.X_R.copy(),
        V_k=V,
        sigma_k=sigma,
        truncated=truncated,
        landmark_indices=landmarks.source_indices,
    )


def transform(nmap: NystromMap, X: np.ndarray) -> np.ndarray:
    """Map samples (columns of X) to k-dimensional virtual samples
    F = Sigma_k^{-1/2} V_k^T K(X_R, X), identical for train and test sets,
    _BLOCK samples at a time: no c x N block of K(X_R, X) is ever held."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] != nmap.p:
        raise ValueError(
            f"sample dimension {X.shape[0]} does not match landmarks ({nmap.p})"
        )
    F = np.empty((nmap.k, X.shape[1]))
    root_sigma = np.sqrt(nmap.sigma_k)[:, None]
    for start in range(0, X.shape[1], _BLOCK):
        C = kernel_matrix(nmap.kernel, nmap.X_R, X[:, start : start + _BLOCK])
        np.divide(nmap.V_k.T @ C, root_sigma, out=F[:, start : start + _BLOCK])
    return F


def exact_virtual_samples(K: np.ndarray, k: int) -> np.ndarray:
    """Reference path: rank-k eigendecomposition of the full kernel matrix,
    F_k = Lambda_k^{1/2} U_k^T, so F^T F reconstructs K at full rank."""
    K = np.asarray(K, dtype=np.float64)
    if K.shape[0] != K.shape[1]:
        raise ValueError("kernel matrix must be square")
    lam, U, _ = _top_eigpairs(K, k, "kernel matrix")
    return np.sqrt(lam)[:, None] * U.T


def nystrom_kernel_approximation(
    kernel: KernelSpec, X: np.ndarray, landmarks: LandmarkSet
) -> np.ndarray:
    """Nystrom approximation K ~ C W^+ C^T with C = K(X, X_R), computed as
    F^T F for the virtual samples F of a map that keeps every eigenpair of
    W above the rank cutoff; benchmark-only path, never used for training."""
    F = transform(fit_from_landmarks(landmarks, kernel, None), X)
    return F.T @ F


def approximation_error(K: np.ndarray, K_approx: np.ndarray) -> float:
    """Normalized approximation error ||K - K_approx||_F / ||K||_F."""
    K = np.asarray(K, dtype=np.float64)
    K_approx = np.asarray(K_approx, dtype=np.float64)
    if K.shape != K_approx.shape:
        raise ValueError("shape mismatch between K and its approximation")
    denom = np.linalg.norm(K)
    if denom == 0:
        raise ValueError("reference kernel matrix has zero Frobenius norm")
    return float(np.linalg.norm(K - K_approx) / denom)
