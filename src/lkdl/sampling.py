"""Landmark selection for the low-rank kernel approximation.

One entry point, ``select_landmarks``, runs the five schemes: uniform,
diagonal-weighted, column-norm-weighted, k-means centers and coreset
(representation-error) weighting. The three weighted schemes differ only in
their weight function (``diagonal_weights``, ``column_norm_weights``,
``coreset_weights``, all unnormalized) and share one draw without
replacement. All are deterministic given the seed; the RNG is pinned to
numpy's PCG64.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import _BLOCK, KernelSpec, kernel_diagonal, kernel_matrix

SAMPLER_METHODS = ("uniform", "diagonal", "column_norm", "kmeans", "coreset")


@dataclass(frozen=True)
class SamplerSpec:
    method: str = "uniform"
    c: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in SAMPLER_METHODS:
            raise ValueError(f"unknown sampling method: {self.method!r}")
        if self.c < 1:
            raise ValueError("number of landmarks c must be >= 1")


@dataclass
class LandmarkSet:
    """Selected landmark columns X_R; source_indices is None for k-means,
    whose landmarks are synthesized cluster centers."""

    X_R: np.ndarray
    source_indices: np.ndarray | None = None

    @property
    def c(self) -> int:
        return self.X_R.shape[1]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_c(c: int, n: int) -> None:
    if c > n:
        raise ValueError(f"cannot select c={c} landmarks from N={n} samples")


def _weighted_without_replacement(
    weights: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """c distinct indices drawn one at a time with probability proportional
    to their weight among those not yet drawn, in draw order.

    Efraimidis & Spirakis (IPL 2006) exponential keys: index i draws
    E_i / w_i with E_i ~ Exp(1), and the c smallest keys are the draws. One
    O(N log N) pass; zero weights are never drawn.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("sampling weights must be finite and non-negative")
    positive = w > 0
    n_pos = int(np.count_nonzero(positive))
    if n_pos < c:
        raise ValueError(
            f"only {n_pos} of {w.size} sampling weights are positive; cannot "
            f"draw c={c} landmarks without replacement"
        )
    keys = np.full(w.size, np.inf)
    keys[positive] = rng.standard_exponential(n_pos) / w[positive]
    return np.argsort(keys, kind="stable")[:c]


def diagonal_weights(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Diagonal sampling weights K_ii^2, unnormalized; O(N) space."""
    d = kernel_diagonal(kernel, X)
    w = d * d
    if w.sum() <= 0:
        raise ValueError("kernel diagonal is identically zero")
    return w


def column_norm_weights(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Column-norm sampling weights ||k^i||^2, unnormalized (they sum to
    ||K||_F^2), from _BLOCK columns of K at a time: K is never whole."""
    w = np.empty(X.shape[1])
    for start in range(0, X.shape[1], _BLOCK):
        K = kernel_matrix(kernel, X, X[:, start : start + _BLOCK])
        w[start : start + _BLOCK] = np.sum(K * K, axis=0)
    if w.sum() <= 0:
        raise ValueError("kernel matrix is identically zero")
    return w


def coreset_weights(X: np.ndarray) -> np.ndarray | None:
    """Per-sample representation errors against the dataset mean,
    unnormalized; None, with a warning, when every sample is collinear with
    the mean, so the draw falls back to uniform.

    err_i = ||x_i - mu * g_i||^2 with g_i the least-squares scalar
    (mu.x_i)/(mu.mu).
    """
    mu = X.mean(axis=1)
    mtm = float(mu @ mu)
    if mtm <= 0:
        raise ValueError("dataset mean is zero; coreset weights undefined")
    g = (mu @ X) / mtm
    resid = X - np.outer(mu, g)
    err = np.sum(resid * resid, axis=0)
    if err.sum() <= 1e-300 or err.max() <= 1e-12 * max(1.0, np.abs(X).max() ** 2):
        warnings.warn(
            "all samples are collinear with the mean; "
            "coreset sampling falls back to uniform"
        )
        return None
    return err


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(p.size, p=p)`` draws, from the same random
    stream, without choice's O(N) validation of p."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def kmeans(X: np.ndarray, c: int, seed: int, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding on the columns of X, until
    no center moves by more than 1e-6 or for ``max_iters`` iterations.

    Deterministic given the seed: assignment ties go to the lowest-index
    center, and empty clusters are re-seeded from the point farthest from
    its assigned center. Returns a p x c matrix of centers.

    Seeding makes one BLAS pass over X per center: the new center's squared
    distances are ||x||^2 - 2 c.x + ||c||^2, with the exact sum of squares
    only where that is at rounding level. Duplicates of a center still get
    exactly 0, and elsewhere d2 moves by at most about
    3p eps (||x||^2 + ||c||^2) from the three-pass sum((x - c)^2) update's,
    a few ulps of d2 unless the points sit far from the origin for their
    spread. So the centers are that update's unless a draw's uniform lands
    within that bound of a boundary of the cumulative weights.

    An iteration costs O(pNc) BLAS work and O(_BLOCK * c) scratch: point-to-
    center distances are formed _BLOCK points at a time, never as N x c.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    p, n = X.shape
    _check_c(c, n)
    if c == n:
        return X.copy()
    rng = _rng(seed)
    sq_x = np.sum(X * X, axis=0)

    # k-means++ initialization
    centers = np.empty((p, c))
    centers[:, 0] = X[:, rng.integers(n)]
    d2 = np.sum((X - centers[:, [0]]) ** 2, axis=0)
    d2_j = np.empty(n)
    # the rounding error of ||x||^2 - 2 c.x + ||c||^2 stays below about
    # 3p eps (||x||^2 + ||c||^2), so every point at distance 0 from the new
    # center (the center itself, its duplicates) falls under this bound and
    # gets the exact sum of squares: total <= 0 exactly when it did before
    tol = 64 * p * np.finfo(np.float64).eps
    tol_x = tol * sq_x
    for j in range(1, c):
        total = d2.sum()
        if total <= 0:
            centers[:, j] = X[:, rng.integers(n)]
            continue
        i = _draw(d2 / total, rng)
        centers[:, j] = X[:, i]
        np.matmul(-2.0 * X[:, i], X, out=d2_j)
        d2_j += sq_x
        d2_j += sq_x[i]
        near = np.flatnonzero(d2_j - tol * sq_x[i] <= tol_x)
        diff = X[:, near] - X[:, [i]]
        d2_j[near] = np.sum(diff * diff, axis=0)
        np.minimum(d2, d2_j, out=d2)

    Xt = np.ascontiguousarray(X.T)
    block = np.empty((min(_BLOCK, n), c))
    assign = np.empty(n, dtype=np.intp)
    own = np.empty(n)  # squared distance to the assigned center, less sq_x
    for _ in range(max_iters):
        sq_c = np.sum(centers * centers, axis=0)
        minus_2c = -2.0 * centers
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            # ||c_j||^2 - 2 x_i.c_j. BLAS may round a block of rows unlike
            # the same rows of the whole product (OpenBLAS 0.3.31 does at
            # p = 20 with c = 60 or 500), so the centers equal those of the
            # one-shot N x c form unless an argmin meets a rounding-level tie
            rows = block[: stop - start]
            np.matmul(Xt[start:stop], minus_2c, out=rows)
            rows += sq_c
            a = np.argmin(rows, axis=1)  # ties go to the lowest index
            assign[start:stop] = a
            own[start:stop] = rows[np.arange(stop - start), a]
        counts = np.bincount(assign, minlength=c)
        # per-center sums; bincount adds each center's members in point order
        sums = np.stack([np.bincount(assign, weights=x, minlength=c) for x in X])
        new_centers = centers.copy()
        np.divide(sums, counts, out=new_centers, where=counts > 0)
        empty = counts == 0
        if empty.any():
            # re-seed empty clusters from the point farthest from its assigned
            # center. Re-seeding them one at a time, each from the point then
            # farthest, picks this point every time: moving it to another
            # center only raises its distance (its own center was the
            # nearest), and a cluster it leaves empty had it as its only
            # member and mean
            new_centers[:, empty] = X[:, [int(np.argmax(own + sq_x))]]
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=0)).max()
        centers = new_centers
        if shift <= 1e-6:
            break
    return centers


def select_landmarks(
    X: np.ndarray, spec: SamplerSpec, kernel: KernelSpec
) -> LandmarkSet:
    """The ``spec.c`` landmarks ``spec.method`` selects from the columns of
    X: the k-means centers, or columns drawn without replacement, uniformly
    or with the method's weights."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_c(spec.c, X.shape[1])
    if spec.method == "kmeans":
        return LandmarkSet(kmeans(X, spec.c, spec.seed), None)
    w = None
    if spec.method == "diagonal":
        w = diagonal_weights(kernel, X)
    elif spec.method == "column_norm":
        w = column_norm_weights(kernel, X)
    elif spec.method == "coreset":
        w = coreset_weights(X)
    rng = _rng(spec.seed)
    if w is None:
        idx = rng.choice(X.shape[1], size=spec.c, replace=False)
    else:
        idx = _weighted_without_replacement(w, spec.c, rng)
    return LandmarkSet(X[:, idx].copy(), idx)
