"""Virtual-sample embeddings via landmark-based low-rank kernel factorization.

The fitted map holds the landmark set X_R and the top-k eigenpairs of
W = K(X_R, X_R). A sample x maps to f = Sigma_k^{-1/2} V_k^T K(X_R, x), so
that f^T f' approximates kappa(x, x'). The exact (full-eigendecomposition)
path is kept as a reference for tests and for the c = N configuration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, kernel_matrix
from .sampling import LandmarkSet, SamplerSpec, select_landmarks

#: Relative eigenvalue cutoff used in place of an exact pseudo-inverse.
EIG_RTOL = 1e-10
#: Relative (to the trace) tolerance for negative eigenvalues of a kernel matrix.
PSD_RTOL = 1e-8


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


def _top_eigpairs(K: np.ndarray, k: int | None, context: str):
    """Top-k eigenpairs of a symmetric PSD matrix, descending, with the
    numerical-rank cutoff applied; k = None keeps every pair above the
    cutoff. Returns (values, vectors, truncated)."""
    K = np.asarray(K, dtype=np.float64)
    Ks = (K + K.T) / 2.0
    w, V = np.linalg.eigh(Ks)
    w, V = w[::-1], V[:, ::-1]
    tr = max(np.trace(Ks), np.finfo(float).tiny)
    if w[-1] < -PSD_RTOL * tr:
        raise ValueError(
            f"{context}: matrix is numerically indefinite "
            f"(min eigenvalue {w[-1]:.3e})"
        )
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
    F = Sigma_k^{-1/2} V_k^T K(X_R, X). Identical for train and test sets."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] != nmap.p:
        raise ValueError(
            f"sample dimension {X.shape[0]} does not match landmarks ({nmap.p})"
        )
    C = kernel_matrix(nmap.kernel, nmap.X_R, X)
    return (nmap.V_k.T @ C) / np.sqrt(nmap.sigma_k)[:, None]


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
