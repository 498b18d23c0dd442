import numpy as np
import pytest

from lkdl import dict_learning
from lkdl.datasets import synth_circles, synth_planted_sparse
from lkdl.dict_learning import (
    LearnReport,
    _column_errors,
    _kernel_column_errors,
    _pinv_cutoff,
    _top_singular_triplet,
    clear_coefficient_dictionary,
    clear_dictionary,
    kernel_mod_learn,
    ksvd_update,
    learn,
    mod_update,
)
from lkdl.kernels import KernelSpec, kernel_matrix
from lkdl.nystrom import exact_virtual_samples
from lkdl.sparse_coding import komp_batch, omp_batch


def _rand(p, n, seed=0):
    return np.random.default_rng(seed).standard_normal((p, n))


# ---------------------------------------------------------------- mod update


def test_mod_exact_model_recovery():
    # X = D Gamma with full-row-rank Gamma: the LS update returns D up to
    # column scaling (absorbed into the rescaled Gamma rows)
    rng = np.random.default_rng(0)
    D0 = rng.standard_normal((6, 4))
    Gamma = rng.standard_normal((4, 30))
    X = D0 @ Gamma
    D, G, degenerate = mod_update(X, Gamma)
    assert not degenerate
    assert np.allclose(D @ G, X, atol=1e-9)
    cos = np.abs(np.sum(D * (D0 / np.linalg.norm(D0, axis=0)), axis=0))
    assert np.allclose(cos, 1.0, atol=1e-9)


def test_mod_identity_codes_normalize_data():
    X = _rand(5, 4, seed=1)
    D, G, _ = mod_update(X, np.eye(4))
    assert np.allclose(D, X / np.linalg.norm(X, axis=0), atol=1e-12)


def test_mod_update_never_increases_objective():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 25))
        D = rng.standard_normal((6, 8))
        D /= np.linalg.norm(D, axis=0)
        Gamma = omp_batch(D, X, 2)
        before = _column_errors(X, D, Gamma).sum()
        D2, G2, _ = mod_update(X, Gamma)
        after = _column_errors(X, D2, G2).sum()
        assert after <= before * (1 + 1e-9) + 1e-12


def test_pinv_cutoff_matches_reference():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 15)), int(rng.integers(2, 30))
        G = rng.standard_normal((m, n))
        if seed % 4 == 0 and m > 1:
            G[0] = G[1]  # rank deficient
        if seed % 5 == 0:
            G[m // 2] = 0.0  # dead row
        if seed % 7 == 0:
            G = G.T
        P, _ = _pinv_cutoff(G)
        ref = np.linalg.pinv(G, rcond=1e-10)
        assert np.max(np.abs(P - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


# --------------------------------------------------------------- ksvd update


def test_ksvd_fixed_point_at_zero_objective():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((5, 4))
    D /= np.linalg.norm(D, axis=0)
    Gamma = rng.standard_normal((4, 20))
    X = D @ Gamma
    D2, G2, _ = ksvd_update(X, D, Gamma)
    assert _column_errors(X, D2, G2).sum() < 1e-20 * np.sum(X * X)


def test_ksvd_single_atom_is_principal_direction():
    X = _rand(6, 30, seed=3)
    D = np.ones((6, 1)) / np.sqrt(6)
    Gamma = np.ones((1, 30))
    D2, G2, _ = ksvd_update(X, D, Gamma)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    assert abs(abs(U[:, 0] @ D2[:, 0]) - 1.0) < 1e-8
    assert np.allclose(np.abs(G2[0]), np.abs(s[0] * Vt[0]), atol=1e-6)


def test_ksvd_objective_non_increasing_per_call():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((7, 40))
        D = rng.standard_normal((7, 10))
        D /= np.linalg.norm(D, axis=0)
        Gamma = omp_batch(D, X, 3)
        before = _column_errors(X, D, Gamma).sum()
        D2, G2, _ = ksvd_update(X, D, Gamma)
        assert _column_errors(X, D2, G2).sum() <= before * (1 + 1e-9)


def test_top_singular_triplet_matches_svd():
    # E E^T side (p < n), the square case and the E^T E side (p > n)
    for shape in ((8, 12), (9, 9), (12, 5)):
        for seed in range(4, 9):
            E = _rand(*shape, seed=seed)
            u, s, v = _top_singular_triplet(E)
            U, sv, Vt = np.linalg.svd(E)
            assert s == pytest.approx(sv[0], rel=1e-12)
            assert abs(abs(u @ U[:, 0]) - 1.0) < 1e-8
            assert abs(abs(v @ Vt[0]) - 1.0) < 1e-8
            # one triplet: E v = s u and E^T u = s v
            assert np.allclose(E @ v, s * u, rtol=0.0, atol=1e-8 * s)
            assert np.allclose(E.T @ u, s * v, rtol=0.0, atol=1e-8 * s)


@pytest.mark.parametrize("shape", [(6, 10), (10, 6)])
def test_top_singular_triplet_of_rank_one_matrix(shape):
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    u, s, v = _top_singular_triplet(np.outer(a, b))
    assert s == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)
    assert abs(abs(u @ a) / np.linalg.norm(a) - 1.0) < 1e-12
    assert abs(abs(v @ b) / np.linalg.norm(b) - 1.0) < 1e-12


@pytest.mark.parametrize("shape", [(4, 7), (7, 4), (1, 1)])
def test_top_singular_triplet_of_zero_matrix_is_none(shape):
    assert _top_singular_triplet(np.zeros(shape)) is None


@pytest.mark.parametrize("scale", [1e100, 1e-100])
@pytest.mark.parametrize("shape", [(6, 11), (11, 6)])
def test_top_singular_triplet_of_extreme_scales(scale, shape):
    # the Gram matrix is scaled to unit trace before its fourth power, so
    # neither overflows nor underflows
    E = _rand(*shape, seed=14) * scale
    u, s, v = _top_singular_triplet(E)
    U, sv, Vt = np.linalg.svd(E)
    assert s == pytest.approx(sv[0], rel=1e-12)
    assert abs(abs(u @ U[:, 0]) - 1.0) < 1e-8
    assert abs(abs(v @ Vt[0]) - 1.0) < 1e-8


@pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
def test_top_singular_triplet_of_near_tied_pair(shape):
    # sigma_1 / sigma_2 = 1 + 1e-9: the iterate cannot settle inside the
    # top pair's plane, but it leaves the rest of the spectrum and the step
    # cap ends the iteration with unit vectors in that plane
    rng = np.random.default_rng(15)
    U, _ = np.linalg.qr(rng.standard_normal((shape[0], 4)))
    V, _ = np.linalg.qr(rng.standard_normal((shape[1], 4)))
    sv = np.array([1.0, 1.0 - 1e-9, 0.6, 0.2])
    E = (U * sv) @ V.T
    u, s, v = _top_singular_triplet(E)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(u - U[:, :2] @ (U[:, :2].T @ u)) < 1e-8
    assert np.linalg.norm(v - V[:, :2] @ (V[:, :2].T @ v)) < 1e-8
    assert s == pytest.approx(1.0, abs=2e-9)


# Reference: the K-SVD update before the kept residual and the M^4 power
# steps, verbatim; it rebuilt every atom's residual from X - D Gamma,
# recomputed X - D Gamma for each dead atom and made alternating power
# steps on E.

def _reference_top_singular_triplet(E: np.ndarray):
    """Dominant singular triplet of E by alternating power iteration, until
    the left vector moves by less than 1e-10 or for at most 1000 steps."""
    start = int(np.argmax(np.sum(E * E, axis=0)))
    u = E[:, start]
    nu = np.linalg.norm(u)
    if nu == 0:
        return None
    u = u / nu
    for _ in range(1000):
        w = E.T @ u
        v = E @ w
        s_new = np.linalg.norm(v)
        if s_new == 0:
            break
        u_new = v / s_new
        if np.linalg.norm(u_new - u) < 1e-10:
            u = u_new
            break
        u = u_new
    v = E.T @ u
    s = np.linalg.norm(v)
    if s == 0:
        return None
    return u, s, v / s


def _reference_ksvd_update(X: np.ndarray, D: np.ndarray, Gamma: np.ndarray):
    """Sequential atom-by-atom update: each atom and its coefficient row are
    replaced by the rank-1 factorization of the residual restricted to the
    signals that use the atom. Supports are unchanged. Atoms used by no
    signal are replaced by the currently worst-represented signal.

    Returns (D, Gamma, replaced) with ``replaced`` the dead-atom count.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    D = np.array(D, dtype=np.float64)
    Gamma = np.array(Gamma, dtype=np.float64)
    m = D.shape[1]
    replaced = 0
    for j in range(m):
        users = np.flatnonzero(Gamma[j, :] != 0)
        if users.size == 0:
            R = X - D @ Gamma
            worst = int(np.argmax(np.sum(R * R, axis=0)))
            col = X[:, worst]
            norm = np.linalg.norm(col)
            if norm > 0:
                D[:, j] = col / norm
                replaced += 1
            continue
        E = (
            X[:, users]
            - D @ Gamma[:, users]
            + np.outer(D[:, j], Gamma[j, users])
        )
        triplet = _reference_top_singular_triplet(E)
        if triplet is None:
            continue
        u, s, v = triplet
        D[:, j] = u
        Gamma[j, users] = s * v
    return D, Gamma, replaced


def _svd_ksvd_update(X, D, Gamma):
    """The reference sweep with exact triplets from np.linalg.svd, signed
    like the power iterations (u along the start column)."""
    D, Gamma = D.copy(), Gamma.copy()
    for j in range(D.shape[1]):
        users = np.flatnonzero(Gamma[j, :] != 0)
        if users.size == 0:
            R = X - D @ Gamma
            worst = int(np.argmax(np.sum(R * R, axis=0)))
            D[:, j] = X[:, worst] / np.linalg.norm(X[:, worst])
            continue
        E = X[:, users] - D @ Gamma[:, users] + np.outer(D[:, j], Gamma[j, users])
        U, sv, Vt = np.linalg.svd(E, full_matrices=False)
        sign = 1.0 if U[:, 0] @ E[:, np.argmax(np.sum(E * E, axis=0))] >= 0 else -1.0
        D[:, j] = sign * U[:, 0]
        Gamma[j, users] = sign * sv[0] * Vt[0]
    return D, Gamma


def _random_ksvd_case(p, n, m, q, seed, dead=0, duplicates=False):
    """Gaussian signals and atoms: the atoms' residuals have top singular
    pairs as close as chance makes them."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    if duplicates:
        X[:, n // 2:] = X[:, : n - n // 2]  # every signal twice
        D[:, 1] = D[:, 0]
    D /= np.linalg.norm(D, axis=0)
    Gamma = omp_batch(D, X, q)
    if dead:
        # dead atoms late in the order, after updates moved the residual
        Gamma[rng.choice(np.arange(m // 2, m), dead, replace=False)] = 0.0
    return X, D, Gamma


def _planted_ksvd_case(p, n, m, q, seed, dead=0, duplicates=False):
    """Signals q-sparse in m - dead planted atoms plus 1 % noise, coded over
    the planted atoms perturbed by 2 %; ``dead`` more atoms, spread over the
    order, code nothing. Each atom's residual is then dominated by its own
    rank-1 part, so both power iterations converge to rounding."""
    rng = np.random.default_rng(seed)
    D0 = rng.standard_normal((p, m))
    D0 /= np.linalg.norm(D0, axis=0)
    G0 = np.zeros((m, n))
    for i in range(n):
        G0[rng.choice(m - dead, q, replace=False), i] = (
            rng.uniform(1.0, 2.0, q) * rng.choice([-1.0, 1.0], q)
        )
    X = D0 @ G0 + 0.01 * rng.standard_normal((p, n))
    if duplicates:
        X[:, n // 2:] = X[:, : n - n // 2]  # every signal twice
    D = D0 + 0.02 * rng.standard_normal((p, m))
    D /= np.linalg.norm(D, axis=0)
    order = rng.permutation(m)
    D = D[:, order]
    live = order < m - dead
    Gamma = np.zeros((m, n))
    Gamma[live] = omp_batch(D[:, live], X, q)
    return X, D, Gamma


# (p, n, m, q, dead, duplicates): q = 1 has disjoint supports, q > 1
# overlapping ones; p = 6 puts most atoms on the E E^T side, p = 30 all of
# them on the E^T E side, p = 8 and 12 both sides within one update
_KSVD_CASES = [
    (6, 80, 10, 1, 0, False),
    (6, 80, 10, 2, 0, False),
    (6, 80, 10, 3, 0, False),
    (30, 40, 20, 1, 0, False),
    (30, 40, 20, 2, 0, False),
    (30, 40, 20, 3, 0, False),
    (12, 60, 12, 2, 0, False),
    (8, 50, 12, 2, 4, False),
    (20, 30, 16, 3, 5, False),
    (8, 60, 10, 2, 0, True),
    (8, 60, 10, 3, 2, True),
]


@pytest.mark.parametrize("p, n, m, q, dead, duplicates", _KSVD_CASES)
def test_ksvd_update_matches_the_reference(p, n, m, q, dead, duplicates):
    for seed in range(10):
        X, D, Gamma = _planted_ksvd_case(p, n, m, q, seed, dead, duplicates)
        D0, G0, replaced0 = _reference_ksvd_update(X, D, Gamma)
        D1, G1, replaced1 = ksvd_update(X, D, Gamma)
        assert replaced1 == replaced0
        assert np.array_equal(G1 != 0, G0 != 0)
        assert np.max(np.abs(D1 - D0)) <= 1e-8
        assert np.max(np.abs(G1 - G0)) <= 1e-8
        assert _column_errors(X, D1, G1).sum() <= (
            _column_errors(X, D0, G0).sum() * (1 + 1e-12)
            + 1e-12 * np.sum(X * X)
        )


@pytest.mark.parametrize("p, n, m, q, dead, duplicates", _KSVD_CASES)
def test_ksvd_update_is_no_farther_from_the_svd_than_the_reference(
    p, n, m, q, dead, duplicates
):
    # with near-tied top pairs the reference's 1e-10 step rule leaves its
    # iterate up to ~2e-8 off the singular vector, and the sweep's objective
    # moves to first order with it; a step on M^4 is four reference steps,
    # so the same rule stops closer to the exact sweep
    for seed in range(10):
        X, D, Gamma = _random_ksvd_case(p, n, m, q, seed, dead, duplicates)
        D0, G0, replaced0 = _reference_ksvd_update(X, D, Gamma)
        D1, G1, replaced1 = ksvd_update(X, D, Gamma)
        assert replaced1 == replaced0
        assert np.array_equal(G1 != 0, G0 != 0)
        Ds, Gs = _svd_ksvd_update(X, D, Gamma)
        assert max(np.max(np.abs(D1 - Ds)), np.max(np.abs(G1 - Gs))) <= max(
            np.max(np.abs(D0 - Ds)), np.max(np.abs(G0 - Gs))
        ) + 1e-12


# ----------------------------------------------------------------- learning


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_recovers_planted_dictionary(method):
    ds, D0, Gamma0 = synth_planted_sparse(16, 400, 8, 1, seed=0,
                                          max_coherence=0.5)
    D, Gamma, report = learn(ds.samples, 8, 1, 10, method=method, seed=5)
    assert report.objective_trace[-1] <= 1e-6 * np.sum(ds.samples**2)


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_zero_iterations_returns_initial_coding(method):
    X = _rand(6, 40, seed=6)
    D, Gamma, report = learn(X, 8, 2, 0, method=method, seed=1)
    assert len(report.objective_trace) == 1
    assert report.objective_trace[0] == pytest.approx(
        _column_errors(X, D, Gamma).sum()
    )


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_objective_trace_non_increasing(method):
    for seed in range(10):
        X = _rand(8, 60, seed=seed)
        _, _, report = learn(X, 12, 3, 6, method=method, seed=seed)
        tr = report.objective_trace
        for a, b in zip(tr, tr[1:]):
            assert b <= a * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("method", ["mod", "ksvd"])
def test_learn_result_does_not_depend_on_init_memory_order(method):
    # an F-ordered init, such as a column draw X[:, idx], holds the same
    # values as its C-ordered copy and must learn the same dictionary
    for seed in range(3):
        X = _rand(24, 300, seed=seed)
        idx = np.random.default_rng(seed).choice(300, 40, replace=False)
        D0 = X[:, idx] / np.linalg.norm(X[:, idx], axis=0)
        runs = [
            learn(X, 40, 3, 5, method=method, init=init, seed=seed)
            for init in (np.ascontiguousarray(D0), np.asfortranarray(D0))
        ]
        (D_c, G_c, rep_c), (D_f, G_f, rep_f) = runs
        assert rep_c.objective_trace == rep_f.objective_trace
        assert np.array_equal(D_c, D_f) and np.array_equal(G_c, G_f)


# Reference: the learning loop before it carried the error vector of its
# current (atoms, Gamma), verbatim. Its ``clear(atoms, Gamma)`` formed the
# errors itself, and the keep-better test formed the previous codes' errors
# again.

def _reference_alternate(atoms, iterations, code, errors, update, clear):
    """Alternate sparse coding and dictionary updates in one inner-product
    space, which supplies four steps:

    * ``code(atoms)`` -> codes of all signals;
    * ``errors(atoms, Gamma)`` -> per-signal squared residuals, whose sum
      is the objective;
    * ``update(atoms, Gamma)`` -> (atoms, Gamma, replaced atoms);
    * ``clear(atoms, Gamma)`` -> (atoms, replaced atoms).

    The first pass reuses the initial coding. Later passes clear degenerate
    atoms first and fall back to the plain pass if that raised the
    objective. Re-coding keeps the previous code of any signal it would
    make worse, so the plain pass cannot increase the objective.
    Returns (atoms, Gamma, LearnReport).
    """
    report = LearnReport(iterations=iterations)
    Gamma = code(atoms)
    obj = float(np.sum(errors(atoms, Gamma)))
    report.objective_trace.append(obj)

    def step(cur, G, Gamma_prev=None):
        if Gamma_prev is not None:
            worse = errors(cur, G) > errors(cur, Gamma_prev)
            G[:, worse] = Gamma_prev[:, worse]
        new, G, rep = update(cur, G)
        return new, G, rep, float(np.sum(errors(new, G)))

    for t in range(iterations):
        if t == 0:
            new, G_new, rep, obj_new = step(atoms, Gamma)
        else:
            cleared_atoms, cleared = clear(atoms, Gamma)
            new, G_new, rep, obj_new = step(
                cleared_atoms, code(cleared_atoms),
                Gamma if cleared == 0 else None,
            )
            rep += cleared
            if obj_new > obj * (1 + 1e-12) and cleared > 0:
                new, G_new, rep, obj_new = step(atoms, code(atoms), Gamma)
        if not np.isfinite(obj_new):
            raise FloatingPointError("non-finite learning objective")
        atoms, Gamma, obj = new, G_new, obj_new
        report.replaced_atoms += rep
        report.objective_trace.append(obj)
    return atoms, Gamma, report


def _reference_loop(atoms, iterations, code, errors, update, clear):
    """The reference loop on the current steps: its ``clear`` forms the
    errors it ranks signals by, as the old clearing functions did."""
    return _reference_alternate(
        atoms, iterations, code, errors, update,
        lambda cur, G: clear(cur, G, errors(cur, G)),
    )


def _branch_run(learner, p, n, m, q, seed, monkeypatch):
    """Run a learner for 4 passes on Gaussian signals through the current
    loop, recording each pass's branch: "none" (no atom cleared), "kept"
    (atoms cleared and the new pass kept) or "fallback" (atoms cleared and
    the pass replaced by the plain one). Returns (run, result, branches)."""
    X = np.random.default_rng(seed).standard_normal((p, n))
    K = kernel_matrix(KernelSpec("gaussian", sigma=2.0), X, X)

    def run():
        if learner == "kernel":
            return kernel_mod_learn(K, m, q, 4, seed=seed)
        return learn(X, m, q, 4, method=learner, seed=seed)

    events = []
    loop = dict_learning._alternate

    def recorded(atoms, iterations, code, errors, update, clear):
        def rec_code(a):
            events.append("code")
            return code(a)

        def rec_clear(*args):
            out = clear(*args)
            events.append(out[1])
            return out

        return loop(atoms, iterations, rec_code, errors, update, rec_clear)

    with monkeypatch.context() as mp:
        mp.setattr(dict_learning, "_alternate", recorded)
        result = run()
    # events: the initial coding, then per later pass the cleared count, the
    # new pass's coding and, on the fallback, the plain pass's coding
    branches, i = set(), 1
    while i < len(events):
        cleared, i = events[i], i + 2
        if i < len(events) and events[i] == "code":
            branches.add("fallback")
            i += 1
        else:
            branches.add("kept" if cleared else "none")
    return run, result, branches


# (learner, p, n, m, q, seed, branch): (8, 60, 12, 3, 0) never clears an
# atom; (5, 30, 8, 2, 0) clears atoms and keeps every new pass; seed 9, and
# seed 1 for the Gaussian-kernel learner, fall back after clearing at least
# once
_BRANCH_CASES = [
    (learner, *case)
    for learner, fallback_seed in (("ksvd", 9), ("mod", 9), ("kernel", 1))
    for case in (
        (8, 60, 12, 3, 0, "none"),
        (5, 30, 8, 2, 0, "kept"),
        (5, 30, 8, 2, fallback_seed, "fallback"),
    )
]


@pytest.mark.parametrize("learner, p, n, m, q, seed, branch", _BRANCH_CASES)
def test_learning_loop_matches_the_reference(
    learner, p, n, m, q, seed, branch, monkeypatch
):
    run, (atoms, Gamma, report), branches = _branch_run(
        learner, p, n, m, q, seed, monkeypatch
    )
    assert branch in branches
    if branch == "none":
        assert branches == {"none"}
    with monkeypatch.context() as mp:
        mp.setattr(dict_learning, "_alternate", _reference_loop)
        atoms0, Gamma0, report0 = run()
    assert np.array_equal(report.objective_trace, report0.objective_trace)
    assert report.replaced_atoms == report0.replaced_atoms
    assert np.array_equal(atoms, atoms0)
    assert np.array_equal(Gamma, Gamma0)


@pytest.mark.parametrize("learner, p, n, m, q, seed, branch", _BRANCH_CASES)
def test_learning_loop_evaluates_each_error_vector_once(
    learner, p, n, m, q, seed, branch, monkeypatch
):
    # every (atoms, codes) pair whose per-signal errors are formed, by
    # content: the loop carries each error vector instead of forming it again
    seen = []

    def recording(errors_fn):
        def wrapped(*args):
            seen.append((args[-2].tobytes(), args[-1].tobytes()))
            return errors_fn(*args)
        return wrapped

    for name in ("_column_errors", "_kernel_column_errors"):
        monkeypatch.setattr(
            dict_learning, name, recording(getattr(dict_learning, name))
        )
    _, _, branches = _branch_run(learner, p, n, m, q, seed, monkeypatch)
    assert branch in branches
    assert len(seen) >= 5
    repeated = len(seen) - len(set(seen))
    assert repeated == 0, f"{repeated} of {len(seen)} evaluations repeat a pair"


def test_clear_dictionary_replaces_duplicates_and_unused():
    X = _rand(5, 30, seed=7)
    D = _rand(5, 6, seed=8)
    D /= np.linalg.norm(D, axis=0)
    D[:, 1] = D[:, 0]  # duplicate pair
    Gamma = omp_batch(D, X, 2)
    D2, replaced = clear_dictionary(X, D, Gamma, _column_errors(X, D, Gamma))
    assert replaced >= 1
    G = np.abs(D2.T @ D2)
    np.fill_diagonal(G, 0.0)
    assert G.max() <= 0.99 + 1e-12


# ---------------------------------------------------------- kernel learning


def test_kernel_learn_matches_linear_on_planted_data():
    # kernel learning is the linear alternation in the space K = X^T X:
    # every objective of the trace and the replaced-atom count agree. In
    # the third set every 7th column is zero; the initial draw takes zero
    # columns, which both learners keep as zero atoms for the clearing. In
    # the fourth every 3rd column is scaled by 1e-14: both learners scale
    # every atom of nonzero norm to unit norm, however small that norm
    replaced = 0
    for n, data_seed, seed, every, scale in (
        (150, 3, 4, 0, 1.0), (180, 0, 1, 0, 1.0), (150, 3, 4, 7, 0.0),
        (180, 0, 1, 3, 1e-14),
    ):
        ds, _, _ = synth_planted_sparse(12, n, 10, 2, seed=data_seed,
                                        max_coherence=0.6)
        X = ds.samples
        if every:
            X[:, ::every] *= scale
        _, _, rep_lin = learn(X, 10, 2, 6, method="mod", seed=seed)
        _, _, rep_ker = kernel_mod_learn(X.T @ X, 10, 2, 6, seed=seed)
        assert rep_ker.objective_trace == pytest.approx(
            rep_lin.objective_trace, rel=1e-9
        )
        assert rep_ker.replaced_atoms == rep_lin.replaced_atoms
        replaced += rep_lin.replaced_atoms
    assert replaced > 0  # the clearing step took part


@pytest.mark.filterwarnings("ignore:.*exceeds numerical rank")
@pytest.mark.parametrize("kernel, rel", [
    (KernelSpec(kind="polynomial", degree=2, coef0=1.0), 1e-10),
    (KernelSpec(kind="gaussian", sigma=1.0), 1e-6),
])
def test_kernel_learn_matches_linear_on_exact_virtual_samples(kernel, rel):
    # the paper's identity at a non-linear kernel: on each class's exact
    # virtual samples F_i (every sample a landmark, k its numerical rank),
    # F_i^T F_i = K_i, so linear MOD on F_i is kernel MOD on K_i. The
    # polynomial K_i has rank 6 and is reproduced to rounding; the rank
    # cutoff keeps 47 and 77 of the 150 Gaussian pairs. Largest relative
    # trace gaps, here and over seeds 0-39: 3.5e-13 and 5.9e-12
    # (polynomial), 1.9e-8 and 2.4e-8 (Gaussian)
    ds = synth_circles(150, seed=0)
    for label in (1, 2):
        X = ds.samples[:, ds.labels == label]
        K = kernel_matrix(kernel, X, X)
        F = exact_virtual_samples(K, X.shape[1])
        for q in (1, 3):
            _, _, rep_lin = learn(F, 20, q, 5, method="mod", seed=q)
            _, _, rep_ker = kernel_mod_learn(K, 20, q, 5, seed=q)
            assert rep_ker.objective_trace == pytest.approx(
                rep_lin.objective_trace, rel=rel
            )
            assert rep_ker.replaced_atoms == rep_lin.replaced_atoms


def test_kernel_learn_zero_iterations_objective_formula():
    # 5-sample toy set: the reported objective must equal the direct
    # expansion tr(K) - 2 tr(K A Gamma) + tr(Gamma^T A^T K A Gamma)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 5))
    K = X.T @ X
    A, Gamma, report = kernel_mod_learn(K, 3, 1, 0, seed=2)
    direct = (
        np.trace(K)
        - 2.0 * np.trace(K @ A @ Gamma)
        + np.trace(Gamma.T @ A.T @ K @ A @ Gamma)
    )
    assert report.objective_trace[0] == pytest.approx(direct, rel=1e-10)
    assert report.objective_trace[0] == pytest.approx(
        _kernel_column_errors(K, np.diag(K), A, Gamma).sum(), rel=1e-12
    )


def test_kernel_learn_trace_non_increasing():
    for seed in range(8):
        X = _rand(6, 50, seed=seed)
        _, _, report = kernel_mod_learn(X.T @ X, 10, 2, 6, seed=seed)
        tr = report.objective_trace
        for a, b in zip(tr, tr[1:]):
            assert b <= a * (1 + 1e-9) + 1e-9


def test_kernel_atoms_unit_feature_norm_after_learning():
    X = _rand(5, 40, seed=10)
    K = X.T @ X
    A, _, _ = kernel_mod_learn(K, 8, 2, 4, seed=1)
    norms = np.einsum("ij,ij->j", A, K @ A)
    assert np.allclose(norms, 1.0, atol=1e-8)


def test_clear_coefficient_dictionary_mirrors_linear_clearing():
    # incremental M update inside the kernel-domain clearing must leave
    # M = A^T K A consistent with direct recomputation
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 25))
    K = X.T @ X
    A = rng.standard_normal((25, 8))
    from lkdl.sparse_coding import normalize_coefficient_dictionary

    A, _ = normalize_coefficient_dictionary(A, K)
    A[:, 2] = A[:, 1]  # duplicate feature atom
    Gamma = komp_batch(K, K, np.diag(K).copy(), A, 2)
    kdiag = np.diag(K).copy()
    A2, replaced = clear_coefficient_dictionary(
        K, kdiag, A, Gamma, _kernel_column_errors(K, kdiag, A, Gamma)
    )
    assert replaced >= 1
    M = A2.T @ K @ A2
    off = np.abs(M - np.diag(np.diag(M)))
    assert off.max() <= 0.99 * np.sqrt(np.diag(M).max() * np.diag(M).min()) + 1e-9
    # with K = X^T X the feature-space atoms are the columns of D = X A, and
    # the linear clearing replaces the same atoms by the same signals
    D2, replaced_lin = clear_dictionary(
        X, X @ A, Gamma, _column_errors(X, X @ A, Gamma)
    )
    assert replaced_lin == replaced
    assert np.abs(X @ A2 - D2).max() <= 1e-12


def test_learn_rejects_non_finite_signals():
    X = _rand(5, 30, seed=12)
    X[2, 7] = np.nan
    for method in ("ksvd", "mod"):
        with pytest.raises(FloatingPointError):
            learn(X, 6, 2, 3, method=method, seed=0)


def test_learn_rejects_unknown_method():
    with pytest.raises(ValueError):
        learn(_rand(3, 10), 4, 1, 2, method="nope")


def test_kernel_learn_rejects_too_many_atoms():
    # no learner keeps more atoms than training samples: the linear learner
    # refuses with the kernel learner's message, whether or not init is given
    X = _rand(3, 5)
    messages = []
    for call in (
        lambda: kernel_mod_learn(X.T @ X, 6, 1, 2),
        lambda: learn(X, 6, 1, 2),
        lambda: learn(X, 6, 1, 2, init=_rand(3, 6)),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        messages.append(str(excinfo.value))
    assert messages == ["m=6 atoms exceed N=5 training samples"] * 3
