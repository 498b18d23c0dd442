"""Dictionary learning by alternating sparse coding and dictionary updates.

Two linear updates are provided: the batch least-squares update
D = X Gamma^+ (method of optimal directions) and the atom-by-atom rank-1
update (K-SVD). The kernelized learner replaces the dictionary with a
coefficient dictionary A and updates it as A = Gamma^+, coding with KOMP;
this is the learning scheme used as the exact-kernel baseline. Both run one
alternation (``_alternate``): the kernel learner is the linear scheme in the
inner-product space given by K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .sparse_coding import (
    komp_batch,
    normalize_coefficient_dictionary,
    omp_batch,
)

PINV_RTOL = 1e-10


@dataclass
class LearnReport:
    """Observability of a learning run: per-iteration objective values
    (entry 0 is the initial coding objective), iteration count and the
    number of dead-atom replacements."""

    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    replaced_atoms: int = 0


def _check_atom_count(m: int, n: int) -> None:
    """Refuse m outside [1, N]: every learner starts each atom from a
    distinct sample, so no class has more atoms than samples."""
    if m < 1:
        raise ValueError(f"m={m} atoms: a dictionary needs at least one")
    if m > n:
        raise ValueError(f"m={m} atoms exceed N={n} training samples")


def init_dictionary_from_columns(
    X: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Initial dictionary: a random subset of m distinct columns of X,
    unit-normalized; m outside [1, N] is refused. A zero column drawn gives
    a zero atom, which the atom clearing replaces, as in
    ``kernel_mod_learn``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[1]
    _check_atom_count(m, n)
    # take gives a C-ordered D (X[:, idx] is F-ordered); BLAS products
    # round differently on the two layouts
    D = X.take(rng.choice(n, size=m, replace=False), axis=1)
    norms = np.linalg.norm(D, axis=0)
    return D / np.where(norms > 0, norms, 1.0)


def _pinv_cutoff(G: np.ndarray):
    """Moore-Penrose pseudo-inverse with the PINV_RTOL singular-value
    cutoff of a code matrix (m <= N), computed through the smaller Gram
    factor (eigh on an m x m matrix instead of a full SVD of the m x N one).
    Returns (pinv, degenerate) where ``degenerate`` reports that the cutoff
    discarded at least one direction."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    m, n = G.shape
    nz = np.any(G != 0.0, axis=1)
    Gs = G[nz]
    r = Gs.shape[0]
    full = np.zeros((n, m))
    if r == 0:
        return full, True
    w, U = np.linalg.eigh(Gs @ Gs.T)
    s = np.sqrt(np.maximum(w, 0.0))
    smax = float(s[-1])
    # eigh resolves eigenvalues only to ~eps * smax^2, so singular values
    # below ~sqrt(eps) * smax cannot be compared against the much smaller
    # cutoff; defer those rare cases to the SVD-based pseudo-inverse
    floor = 8.0 * np.sqrt(np.finfo(float).eps) * smax
    if smax == 0.0 or float(s[0]) <= floor:
        sv = np.linalg.svd(G, compute_uv=False)
        degenerate = bool(sv.min() <= PINV_RTOL * sv.max())
        return np.linalg.pinv(G, rcond=PINV_RTOL), degenerate
    core = (U / w) @ U.T
    full[:, nz] = Gs.T @ core
    return full, bool(r < min(m, n))


def mod_update(X: np.ndarray, Gamma: np.ndarray):
    """Least-squares-optimal dictionary D = X Gamma^+ for fixed codes.

    Atoms are renormalized and the matching rows of Gamma rescaled so the
    product D Gamma is preserved. Returns (D, Gamma, degenerate) where
    ``degenerate`` reports a rank-deficient Gamma (pseudo-inverse cutoff
    applied).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=np.float64))
    Gamma_pinv, degenerate = _pinv_cutoff(Gamma)
    D = X @ Gamma_pinv
    norms = np.linalg.norm(D, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    return D / scale, Gamma * scale[:, None], degenerate


def _top_singular_triplet(E: np.ndarray):
    """Dominant singular triplet (u, s, v) of E, or None when E is zero.

    Power iteration on M^4, M the Gram matrix of E on its smaller side
    (E E^T when E has no more rows than columns, else E^T E) scaled to unit
    trace, so one step is four alternating steps on E. It starts from E's
    largest column and stops when a step moves the iterate by less than
    1e-10, or after 250 steps (1000 alternating steps)."""
    energy = np.einsum("ij,ij->j", E, E)
    start = int(np.argmax(energy))
    if energy[start] == 0:
        return None
    rows = E.shape[0] <= E.shape[1]
    M = (E @ E.T if rows else E.T @ E) / float(energy.sum())
    # on the E^T E side, E's largest column enters as E^T E e_start
    x = E[:, start] if rows else M[:, start]
    x = x / math.sqrt(x @ x)
    M = M @ M
    M = M @ M
    for _ in range(250):
        y = M @ x
        s = math.sqrt(y @ y)
        if s == 0:
            break
        y /= s
        d = y - x
        x = y
        if math.sqrt(d @ d) < 1e-10:
            break
    w = E.T @ x if rows else E @ x
    s = math.sqrt(w @ w)
    if s == 0:
        return None
    return (x, s, w / s) if rows else (w / s, s, x)


def ksvd_update(X: np.ndarray, D: np.ndarray, Gamma: np.ndarray):
    """Sequential atom-by-atom update: each atom and its coefficient row are
    replaced by the rank-1 factorization of the residual restricted to the
    signals that use the atom (``_top_singular_triplet``). Supports are
    unchanged. The residual R = X - D Gamma is formed once and kept current:
    after atom j changes only its users' columns are rewritten. Atoms used
    by no signal are replaced by the worst-represented signal, the largest
    column of R.

    Returns (D, Gamma, replaced) with ``replaced`` the dead-atom count.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    D = np.array(D, dtype=np.float64)
    Gamma = np.array(Gamma, dtype=np.float64)
    R = X - D @ Gamma
    m = D.shape[1]
    replaced = 0
    for j in range(m):
        users = np.flatnonzero(Gamma[j, :] != 0)
        if users.size == 0:
            worst = int(np.argmax(np.sum(R * R, axis=0)))
            col = X[:, worst]
            norm = np.linalg.norm(col)
            if norm > 0:
                D[:, j] = col / norm
                replaced += 1
            continue
        E = R[:, users] + np.outer(D[:, j], Gamma[j, users])
        triplet = _top_singular_triplet(E)
        if triplet is None:
            continue
        u, s, v = triplet
        D[:, j] = u
        Gamma[j, users] = s * v
        R[:, users] = E - np.outer(u, Gamma[j, users])
    return D, Gamma, replaced


def _column_errors(X, D, Gamma) -> np.ndarray:
    """Per-column squared residuals of X ~ D Gamma."""
    return np.sum((X - D @ Gamma) ** 2, axis=0)


def _clear_atoms(M, Gamma, err, replace) -> int:
    """Replace degenerate atoms, given their Gram matrix M: near-duplicates
    (|M_ij| above 0.99) and atoms used by fewer than 4 signals are swapped,
    in atom order, for the signals with the largest errors ``err``.
    ``replace(j, w)`` makes atom j the normalized signal w and returns atom
    j's new Gram row, or None if signal w is zero (the next-worst signal is
    tried). Returns the number of replaced atoms."""
    order = np.argsort(err)[::-1]
    next_worst = 0
    replaced = 0
    usage = np.sum(np.abs(Gamma) > 1e-7, axis=1)
    for j in range(M.shape[0]):
        G_j = np.abs(M[:, j])
        G_j[j] = 0.0
        if G_j.max() > 0.99 or usage[j] < 4:
            while next_worst < order.size:
                row = replace(j, int(order[next_worst]))
                next_worst += 1
                if row is not None:
                    M[j, :] = row
                    M[:, j] = row
                    replaced += 1
                    break
    return replaced


def clear_dictionary(
    X: np.ndarray, D: np.ndarray, Gamma: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, int]:
    """Replace degenerate atoms: near-duplicates (coherence above 0.99) and
    atoms used by fewer than 4 signals are swapped for the signals with the
    largest squared residuals ``err`` under D Gamma, normalized."""
    D = np.array(D, dtype=np.float64)

    def replace(j, w):
        norm = np.linalg.norm(X[:, w])
        if not norm > 0:
            return None
        D[:, j] = X[:, w] / norm
        return D.T @ D[:, j]

    replaced = _clear_atoms(D.T @ D, Gamma, err, replace)
    return D, replaced


def _alternate(atoms, iterations, code, errors, update, clear):
    """Alternate sparse coding and dictionary updates in one inner-product
    space, which supplies four steps:

    * ``code(atoms)`` -> codes of all signals;
    * ``errors(atoms, Gamma)`` -> per-signal squared residuals, whose sum
      is the objective;
    * ``update(atoms, Gamma)`` -> (atoms, Gamma, replaced atoms);
    * ``clear(atoms, Gamma, err)`` -> (atoms, replaced atoms).

    The first pass reuses the initial coding. Later passes clear degenerate
    atoms first and fall back to the plain pass if that raised the
    objective. Re-coding keeps the previous code of any signal it would
    make worse, so the plain pass cannot increase the objective. The errors
    ``err`` of the current (atoms, Gamma) are formed once and serve the
    objective, ``clear`` and that test: a pass evaluates ``errors`` twice,
    and a kernel pass forms 6 products K A instead of 8. A negative
    ``iterations`` is refused. Returns (atoms, Gamma, LearnReport).
    """
    if iterations < 0:
        raise ValueError(f"iterations={iterations} must be >= 0")
    report = LearnReport(iterations=iterations)
    Gamma = code(atoms)
    err = errors(atoms, Gamma)
    obj = float(np.sum(err))
    report.objective_trace.append(obj)

    def step(cur, G, keep_better):
        if keep_better:
            worse = errors(cur, G) > err
            G[:, worse] = Gamma[:, worse]
        new, G, rep = update(cur, G)
        return new, G, rep, errors(new, G)

    for t in range(iterations):
        if t == 0:
            new, G_new, rep, err_new = step(atoms, Gamma, False)
        else:
            cleared_atoms, cleared = clear(atoms, Gamma, err)
            new, G_new, rep, err_new = step(
                cleared_atoms, code(cleared_atoms), cleared == 0
            )
            rep += cleared
            if np.sum(err_new) > obj * (1 + 1e-12) and cleared > 0:
                new, G_new, rep, err_new = step(atoms, code(atoms), True)
        obj = float(np.sum(err_new))
        if not np.isfinite(obj):
            raise FloatingPointError("non-finite learning objective")
        atoms, Gamma, err = new, G_new, err_new
        report.replaced_atoms += rep
        report.objective_trace.append(obj)
    return atoms, Gamma, report


def check_update_method(method: str) -> None:
    """Refuse a dictionary update method other than ``mod`` or ``ksvd``."""
    if method not in ("mod", "ksvd"):
        raise ValueError(f"unknown dictionary update method: {method!r}")


def learn(
    X: np.ndarray,
    m: int,
    q: int,
    iterations: int,
    method: str = "ksvd",
    init: np.ndarray | None = None,
    seed: int = 0,
):
    """Alternate batch OMP coding and the chosen dictionary update.

    ``init`` may be a provided p x m dictionary; otherwise atoms start from
    a random subset of data columns. Either way m outside [1, N], q < 1 and
    iterations < 0 are refused. Returns (D, Gamma, LearnReport).
    """
    check_update_method(method)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_atom_count(m, X.shape[1])
    if init is None:
        D = init_dictionary_from_columns(
            X, m, np.random.Generator(np.random.PCG64(seed))
        )
    else:
        # C order whatever init's: BLAS rounds an F-ordered D differently
        D = np.array(init, dtype=np.float64, order="C")
        if D.shape != (X.shape[0], m):
            raise ValueError("provided initial dictionary has wrong shape")

    def update(D_cur, G):
        if method == "mod":
            D_new, G, _ = mod_update(X, G)
            return D_new, G, 0
        return ksvd_update(X, D_cur, G)

    return _alternate(
        D, iterations,
        code=lambda D_cur: omp_batch(D_cur, X, q),
        errors=partial(_column_errors, X),
        update=update,
        clear=partial(clear_dictionary, X),
    )


def _kernel_column_errors(K, kdiag, A, Gamma) -> np.ndarray:
    """Per-column feature-space squared residuals through kernel values."""
    KA = K @ A
    M = A.T @ KA
    cross = np.sum(KA.T * Gamma, axis=0)
    quad = np.sum(Gamma * (M @ Gamma), axis=0)
    return kdiag - 2.0 * cross + quad


def clear_coefficient_dictionary(
    K: np.ndarray,
    kdiag: np.ndarray,
    A: np.ndarray,
    Gamma: np.ndarray,
    err: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Kernel-domain mirror of clear_dictionary: degenerate feature-space
    atoms are replaced by the mapped signals with the largest ``err``."""
    A = np.array(A, dtype=np.float64)
    KA = K @ A

    def replace(j, w):
        norm = np.sqrt(max(kdiag[w], 0.0))
        if not norm > 0:
            return None
        A[:, j] = 0.0
        A[w, j] = 1.0 / norm
        # the new atom is e_w / norm, so its Gram row is K[w] A / norm: an
        # O(n + m) update instead of recomputing A^T K A
        KA[:, j] = K[:, w] / norm
        return KA[w, :] / norm

    replaced = _clear_atoms(A.T @ KA, Gamma, err, replace)
    return A, replaced


def kernel_mod_learn(
    K_XX: np.ndarray,
    m: int,
    q: int,
    iterations: int,
    seed: int = 0,
):
    """Kernel dictionary learning with KOMP coding and the batch update
    A = Gamma^+; atoms are renormalized to unit feature-space norm after
    each update (matching row rescale preserves A Gamma).

    ``K_XX`` is the train-set kernel matrix. Atoms start from m distinct
    mapped training samples (identity columns of A) and follow ``learn``'s
    rules and alternation in the space given by K, so on samples F with
    F^T F = K (X itself when K = X^T X) the two give the same objective
    sequence. Returns (A, Gamma, LearnReport).
    """
    K = np.asarray(K_XX, dtype=np.float64)
    n = K.shape[0]
    if K.shape[0] != K.shape[1]:
        raise ValueError("kernel matrix must be square")
    rng = np.random.Generator(np.random.PCG64(seed))
    _check_atom_count(m, n)
    idx = rng.choice(n, size=m, replace=False)
    A = np.zeros((n, m))
    A[idx, np.arange(m)] = 1.0
    A, _ = normalize_coefficient_dictionary(A, K)
    kdiag = np.diag(K).copy()

    def update(A_cur, G):
        A_new, scale = normalize_coefficient_dictionary(_pinv_cutoff(G)[0], K)
        return A_new, G * scale[:, None], 0

    return _alternate(
        A, iterations,
        code=lambda A_cur: komp_batch(K, K, kdiag, A_cur, q),
        errors=partial(_kernel_column_errors, K, kdiag),
        update=update,
        clear=partial(clear_coefficient_dictionary, K, kdiag),
    )
