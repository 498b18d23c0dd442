"""Mercer kernel evaluation and kernel-matrix construction.

Supported kernels: linear, homogeneous polynomial ``(x.y + coef0)^degree``
(coef0 defaults to 0) and Gaussian ``exp(-||x-y||^2 / (2 sigma^2))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Columns of Y per block of a kernel-matrix evaluation.
_BLOCK = 512
#: Entries per row tile of a block that the elementwise steps finish in
#: cache (64 rows of a full block, 256 KB).
_TILE = 1 << 15


@dataclass(frozen=True)
class KernelSpec:
    """Closed description of a Mercer kernel.

    kind is one of "linear", "polynomial", "gaussian". ``degree`` applies to
    the polynomial kernel only, ``sigma`` to the Gaussian only. ``coef0`` is
    an optional additive constant for the polynomial kernel (default 0, i.e.
    the homogeneous form).
    """

    kind: str = "linear"
    degree: int = 2
    sigma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if not (np.isfinite(self.sigma) and np.isfinite(self.coef0)):
            raise ValueError("kernel sigma and coef0 must be finite")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("gaussian sigma must be positive")


def _check_samples(X: np.ndarray, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def kernel_eval(kernel: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate kappa(x, y) for a single pair of vectors."""
    x = _check_samples(np.ravel(x), "x")
    y = _check_samples(np.ravel(y), "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 1:
        raise ValueError("empty input vectors")
    if kernel.kind == "linear":
        return float(x @ y)
    if kernel.kind == "polynomial":
        return float((x @ y + kernel.coef0) ** kernel.degree)
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / (2.0 * kernel.sigma**2)))


def kernel_matrix(kernel: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dense kernel matrix K[i, j] = kappa(X[:, i], Y[:, j]).

    Samples are columns. Each block of ``_BLOCK`` columns of Y is evaluated
    in place in its slice of K: one BLAS product, then the elementwise
    operations of the one-shot closed form, run on row tiles of about
    ``_TILE`` entries so that each pass over a tile stays in cache. Every
    entry goes through the same operations as in the untiled form, so K is
    bit for bit the same; the products are left whole because BLAS may
    round a split product differently.
    """
    X = _check_samples(np.atleast_2d(X), "X")
    Y = _check_samples(np.atleast_2d(Y), "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"sample dimension mismatch: {X.shape[0]} vs {Y.shape[0]}"
        )
    K = np.empty((X.shape[1], Y.shape[1]))
    if kernel.kind == "gaussian":
        sx = np.sum(X * X, axis=0)[:, None]
    for start in range(0, Y.shape[1], _BLOCK):
        Yb, G = Y[:, start : start + _BLOCK], K[:, start : start + _BLOCK]
        np.matmul(X.T, Yb, out=G)
        if kernel.kind == "linear":
            continue
        rows = max(1, _TILE // G.shape[1])
        if kernel.kind == "gaussian":
            sy = np.sum(Yb * Yb, axis=0)
            norms = np.empty((min(rows, G.shape[0]), G.shape[1]))
        for r in range(0, G.shape[0], rows):
            T = G[r : r + rows]
            if kernel.kind == "polynomial":
                T += kernel.coef0
                T **= kernel.degree
            else:
                # d2 = max(|x|^2 + |y|^2 - 2 x.y, 0), then
                # exp(-d2 / (2 sigma^2))
                T *= 2.0
                sxy = np.add(sx[r : r + rows], sy, out=norms[: T.shape[0]])
                np.subtract(sxy, T, out=T)
                np.maximum(T, 0.0, out=T)
                T /= -(2.0 * kernel.sigma**2)
                np.exp(T, out=T)
    return K


def kernel_diagonal(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Diagonal of kernel_matrix(kernel, X, X) in O(N) space."""
    X = _check_samples(np.atleast_2d(X), "X")
    if kernel.kind == "gaussian":
        return np.ones(X.shape[1])
    s = np.sum(X * X, axis=0)
    if kernel.kind == "linear":
        return s
    return (s + kernel.coef0) ** kernel.degree

