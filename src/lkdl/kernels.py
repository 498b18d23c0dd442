"""Mercer kernel evaluation and kernel-matrix construction.

Supported kernels: linear, homogeneous polynomial ``(x.y + coef0)^degree``
(coef0 defaults to 0) and Gaussian ``exp(-||x-y||^2 / (2 sigma^2))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Columns of Y per block of a kernel-matrix evaluation.
_BLOCK = 512


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
    in place in its slice of K, with O(N_X * _BLOCK) scratch and the
    elementwise operations of the one-shot closed form.
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
        if kernel.kind == "polynomial":
            G += kernel.coef0
            G **= kernel.degree
        elif kernel.kind == "gaussian":
            # d2 = max(|x|^2 + |y|^2 - 2 x.y, 0), then exp(-d2 / (2 sigma^2))
            G *= 2.0
            np.subtract(sx + np.sum(Yb * Yb, axis=0), G, out=G)
            np.maximum(G, 0.0, out=G)
            G /= -(2.0 * kernel.sigma**2)
            np.exp(G, out=G)
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

