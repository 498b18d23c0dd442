"""Label-consistent dictionary learning (variants 1 and 2).

Both variants reduce to plain dictionary learning on a stacked data matrix:
variant 2 stacks the signals, the scaled ideal discriminative codes
sqrt(alpha) Q and the scaled one-hot labels sqrt(beta) H, learning the
classifier jointly; variant 1 stacks only the signals and sqrt(alpha) Q and
solves the ridge system Theta = (Gamma Gamma^T + tau2 I)^{-1} Gamma H^T for
the classifier afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dict_learning import init_dictionary_from_columns, learn
from .sparse_coding import omp_batch


@dataclass
class LabelStructures:
    H: np.ndarray               # L x N one-hot labels
    Q: np.ndarray               # m x N ideal discriminative codes
    atom_labels: np.ndarray     # class label of each atom
    classes: np.ndarray


@dataclass
class LCKSVDModel:
    D: np.ndarray               # d x m dictionary, unit-norm atoms
    T: np.ndarray               # m x m code transform
    Theta: np.ndarray           # L x m linear classifier
    sqrt_alpha: float
    sqrt_beta: float
    variant: int
    tau2: float
    q: int
    classes: np.ndarray
    atom_scales: np.ndarray     # per-atom stacked-column norms (extraction record)


def build_label_structures(labels: np.ndarray, m: int) -> LabelStructures:
    """One-hot label matrix H and ideal code matrix Q with the m atoms split
    evenly and contiguously over the classes in label order."""
    labels = np.ravel(np.asarray(labels))
    classes = np.unique(labels)
    L = classes.shape[0]
    if m % L != 0:
        raise ValueError(
            f"m={m} atoms cannot be split evenly over {L} classes; "
            "learner.m must be a multiple of the class count"
        )
    H = (labels == classes[:, None]).astype(np.float64)
    return LabelStructures(
        H=H, Q=np.repeat(H, m // L, axis=0),
        atom_labels=np.repeat(classes, m // L), classes=classes,
    )


def ridge_classifier(H: np.ndarray, Gamma: np.ndarray, tau2: float) -> np.ndarray:
    """Closed-form classifier Theta (L x m) from codes and one-hot labels."""
    if tau2 <= 0:
        raise ValueError("ridge parameter tau2 must be positive")
    m = Gamma.shape[0]
    M = Gamma @ Gamma.T + tau2 * np.eye(m)
    return np.linalg.solve(M, Gamma @ H.T).T


def train(
    X: np.ndarray,
    labels: np.ndarray,
    m: int,
    q: int,
    alpha: float,
    beta: float,
    iterations: int,
    variant: int = 2,
    tau2: float = 1e-4,
    seed: int = 0,
) -> LCKSVDModel:
    """Learn (D, T, Theta) through the stacked reformulation.

    The stacked dictionary is initialized from data columns (same column
    choice as plain learning with this seed), T from the identity and, in
    variant 2, Theta from the ridge closed form on the initial codes. After
    learning, the blocks are extracted and every column is divided by its
    atom's norm, so reconstruction, code-transform and classifier scores are
    all invariant to the normalization. Theta is the ridge closed form on
    the learned codes wherever no classifier block is learned (variant 1,
    or beta = 0).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    p, n = X.shape
    structures = build_label_structures(labels, m)
    sa, sb = float(np.sqrt(alpha)), float(np.sqrt(beta))

    rng = np.random.Generator(np.random.PCG64(seed))
    D0 = init_dictionary_from_columns(X, m, rng)

    blocks = [X, sa * structures.Q]
    init_blocks = [D0, sa * np.eye(m)]
    if variant == 2:
        Theta0 = ridge_classifier(
            structures.H, omp_batch(D0, X, q), max(tau2, 1e-12)
        )
        blocks.append(sb * structures.H)
        init_blocks.append(sb * Theta0)
    X_new = np.concatenate(blocks, axis=0)
    D_new0 = np.concatenate(init_blocks, axis=0)
    norms0 = np.linalg.norm(D_new0, axis=0)
    # snap norms within rounding error of 1 so that already-normalized
    # atoms are left bit-for-bit untouched (alpha=beta=0 then reproduces
    # plain learning exactly instead of drifting through greedy tie flips)
    norms0 = np.where(np.abs(norms0 - 1.0) < 1e-12, 1.0, norms0)
    D_new0 = D_new0 / np.where(norms0 > 0, norms0, 1.0)

    D_new, Gamma, _ = learn(
        X_new, m, q, iterations, method="ksvd", init=D_new0, seed=seed
    )

    Db = D_new[:p]
    Tb = D_new[p : p + m] / sa if sa > 0 else np.zeros((m, m))
    scales = np.linalg.norm(Db, axis=0)
    safe = np.where(scales > 0, scales, 1.0)
    D = Db / safe
    T = Tb / safe
    # no classifier block is learned in variant 1 or at beta = 0
    if variant == 2 and sb > 0:
        Theta = D_new[p + m :] / sb / safe
    else:
        Theta = ridge_classifier(structures.H, Gamma, tau2)
    return LCKSVDModel(
        D=D, T=T, Theta=Theta,
        sqrt_alpha=sa, sqrt_beta=sb,
        variant=variant, tau2=tau2, q=q,
        classes=structures.classes,
        atom_scales=scales,
    )


def predict(model: LCKSVDModel, x: np.ndarray):
    """Sparse code x over D with the training cardinality, apply the
    classifier; returns (label, scores). Ties break to the lowest label."""
    scores = class_scores(model, np.reshape(x, (-1, 1)))[:, 0]
    return model.classes[int(np.argmax(scores))], scores


def class_scores(model: LCKSVDModel, X: np.ndarray) -> np.ndarray:
    """Classifier scores Theta gamma_i of each column of X; shape
    (n_classes, n_samples)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] != model.D.shape[0]:
        raise ValueError(
            f"sample dimension {X.shape[0]} does not match model "
            f"({model.D.shape[0]})"
        )
    return model.Theta @ omp_batch(model.D, X, model.q)


def predict_batch(model: LCKSVDModel, X: np.ndarray) -> np.ndarray:
    scores = class_scores(model, X)
    return model.classes[np.argmax(scores, axis=0)]
