"""Mercer kernel evaluation and kernel-matrix construction.

Supported kernels: linear, homogeneous polynomial ``(x.y + coef0)^degree``
(coef0 defaults to 0) and Gaussian ``exp(-||x-y||^2 / (2 sigma^2))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Memory budget (bytes) above which kernel matrices are evaluated block-wise.
DEFAULT_MEMORY_BUDGET = 2 << 30


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


def _kernel_block(kernel: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    G = X.T @ Y
    if kernel.kind == "linear":
        return G
    if kernel.kind == "polynomial":
        return (G + kernel.coef0) ** kernel.degree
    sx = np.sum(X * X, axis=0)[:, None]
    sy = np.sum(Y * Y, axis=0)[None, :]
    d2 = np.maximum(sx + sy - 2.0 * G, 0.0)
    return np.exp(-d2 / (2.0 * kernel.sigma**2))


def kernel_matrix(
    kernel: KernelSpec,
    X: np.ndarray,
    Y: np.ndarray,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Dense kernel matrix K[i, j] = kappa(X[:, i], Y[:, j]).

    Samples are columns. Evaluation proceeds in column blocks of Y when the
    result would exceed ``memory_budget`` bytes of scratch per block, so only
    O(N_X * block) temporaries are live at a time. The result itself is
    always materialized dense.
    """
    X = _check_samples(np.atleast_2d(X), "X")
    Y = _check_samples(np.atleast_2d(Y), "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"sample dimension mismatch: {X.shape[0]} vs {Y.shape[0]}"
        )
    n_x, n_y = X.shape[1], Y.shape[1]
    out = np.empty((n_x, n_y), dtype=np.float64)
    # 3 float64 temporaries of shape (n_x, block) live during a block.
    block = max(1, int(memory_budget // max(1, 24 * n_x)))
    for start in range(0, n_y, block):
        stop = min(start + block, n_y)
        out[:, start:stop] = _kernel_block(kernel, X, Y[:, start:stop])
    return out


def kernel_diagonal(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Diagonal of kernel_matrix(kernel, X, X) in O(N) space."""
    X = _check_samples(np.atleast_2d(X), "X")
    if kernel.kind == "gaussian":
        return np.ones(X.shape[1])
    s = np.sum(X * X, axis=0)
    if kernel.kind == "linear":
        return s
    return (s + kernel.coef0) ** kernel.degree

