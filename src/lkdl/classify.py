"""Per-class dictionary training and minimum-reconstruction-error
classification, plus the test-set corruption utilities used in the
robustness experiments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dict_learning import learn
# ``omp_batch`` is re-exported: code that looks up ``classify.omp_batch``,
# such as the benchmark's tracer tests, keeps working
from .sparse_coding import omp_batch  # noqa: F401
from .sparse_coding import residual_energies


@dataclass
class ClassDictionaryModel:
    """One dictionary per class; ``q`` is the cardinality used at test time."""

    labels: np.ndarray          # distinct class labels, sorted
    dictionaries: list[np.ndarray]  # d x m_i, aligned with labels
    q: int

    @property
    def space_dim(self) -> int:
        return self.dictionaries[0].shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.dictionaries)


def fit_per_class(X: np.ndarray, labels: np.ndarray, m: int, seed: int, fit):
    """Split the columns of X by label; returns the sorted distinct labels
    and ``fit(X_i, min(m, n_i), seed + i)`` for the i-th of them, of n_i
    samples, in that order: no class gets more atoms than samples."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.ravel(np.asarray(labels))
    if labels.shape[0] != X.shape[1]:
        raise ValueError("label count does not match sample count")
    classes = np.unique(labels)
    fits = []
    for i, lab in enumerate(classes):
        X_i = X[:, labels == lab]
        fits.append(fit(X_i, min(m, X_i.shape[1]), seed + i))
    return classes, fits


def train_per_class(
    F_train: np.ndarray,
    labels: np.ndarray,
    m_per_class: int,
    q: int,
    iterations: int,
    method: str = "ksvd",
    seed: int = 0,
) -> ClassDictionaryModel:
    """Learn an independent dictionary on each class partition, with
    ``min(m_per_class, n_i)`` atoms for a class of n_i samples."""
    def fit(F_i, m_i, s):
        return learn(F_i, m_i, q, iterations, method=method, seed=s)[0]

    classes, dicts = fit_per_class(F_train, labels, m_per_class, seed, fit)
    return ClassDictionaryModel(labels=classes, dictionaries=dicts, q=q)


def class_residuals(model: ClassDictionaryModel, F: np.ndarray) -> np.ndarray:
    """Squared reconstruction errors; shape (n_classes, n_samples)."""
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    if F.shape[0] != model.space_dim:
        raise ValueError(
            f"sample dimension {F.shape[0]} does not match model "
            f"({model.space_dim})"
        )
    norms2 = np.sum(F * F, axis=0)
    return np.stack([
        residual_energies(D.T @ F, D.T @ D, norms2, model.q)
        for D in model.dictionaries
    ])


def classify_batch(model: ClassDictionaryModel, F: np.ndarray) -> np.ndarray:
    """Predicted labels for each column of F; ties break to the lowest
    label."""
    res = class_residuals(model, F)
    return model.labels[np.argmin(res, axis=0)]


def corrupt_gaussian(
    X: np.ndarray,
    sigma_noise: float,
    seed: int = 0,
    renormalize: bool = True,
) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise; by default columns are then
    re-normalized to unit l2 norm, matching the dataset pipeline."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if sigma_noise < 0:
        raise ValueError("noise standard deviation must be nonnegative")
    if sigma_noise == 0:
        return X.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    Y = X + sigma_noise * rng.standard_normal(X.shape)
    if renormalize:
        norms = np.linalg.norm(Y, axis=0)
        Y = Y / np.where(norms > 0, norms, 1.0)
    return Y


def corrupt_missing(
    X: np.ndarray,
    fraction: float,
    seed: int = 0,
    renormalize: bool = True,
) -> np.ndarray:
    """Zero a uniformly chosen fraction of entries per column
    (floor(fraction * p) entries); by default surviving columns are then
    re-normalized to unit l2 norm, matching the dataset pipeline."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("missing fraction must lie in [0, 1]")
    if fraction == 0:
        return X.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    p, n = X.shape
    n_zero = int(np.floor(fraction * p))
    Y = X.copy()
    for i in range(n):
        idx = rng.choice(p, size=n_zero, replace=False)
        Y[idx, i] = 0.0
    if not renormalize:
        return Y
    norms = np.linalg.norm(Y, axis=0)
    if np.any(norms == 0):
        warnings.warn("corruption produced all-zero columns; left unnormalized")
    return Y / np.where(norms > 0, norms, 1.0)
