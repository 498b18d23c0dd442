import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lkdl.datasets import synth_gaussian_mixture
from lkdl.kernels import _BLOCK, KernelSpec, kernel_matrix
from lkdl.sampling import (
    SamplerSpec,
    _draw,
    _weighted_without_replacement,
    column_norm_weights,
    coreset_weights,
    kmeans,
    select_landmarks,
)

LINEAR = KernelSpec(kind="linear")
GAUSS = KernelSpec(kind="gaussian", sigma=1.0)


def _rand(p, n, seed=0):
    return np.random.default_rng(seed).standard_normal((p, n))


# Reference: the Lloyd loop the blocked one replaced, with an N x c distance
# matrix and a Python loop over centers for the update and the re-seed. Its
# member mean adds in point order, as bincount does, except for p = 1, where
# numpy sums the contiguous 1 x m member row pairwise; so the comparisons
# below use p >= 2 or small-integer coordinates, whose sums are exact.

def _reference_kmeans(
    X: np.ndarray,
    c: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    p, n = X.shape
    if c == n:
        return X.copy()
    rng = np.random.Generator(np.random.PCG64(seed))

    # k-means++ initialization
    centers = np.empty((p, c))
    centers[:, 0] = X[:, rng.integers(n)]
    d2 = np.sum((X - centers[:, [0]]) ** 2, axis=0)
    for j in range(1, c):
        total = d2.sum()
        if total <= 0:
            centers[:, j] = X[:, rng.integers(n)]
            continue
        centers[:, j] = X[:, rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[:, [j]]) ** 2, axis=0))

    sq_x = np.sum(X * X, axis=0)
    for _ in range(max_iters):
        # squared distances to each center; argmin breaks ties low-index
        sq_c = np.sum(centers * centers, axis=0)
        dist = sq_c[None, :] - 2.0 * (X.T @ centers)
        assign = np.argmin(dist, axis=1)
        new_centers = centers.copy()
        for j in range(c):
            members = assign == j
            if np.any(members):
                new_centers[:, j] = X[:, members].mean(axis=1)
        # re-seed empty clusters from the worst-represented point
        full_dist = dist + sq_x[:, None]
        for j in range(c):
            if not np.any(assign == j):
                worst = int(np.argmax(full_dist[np.arange(n), assign]))
                new_centers[:, j] = X[:, worst]
                assign[worst] = j
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=0)).max()
        centers = new_centers
        if shift <= tol:
            break
    return centers


def test_uniform_c_equals_n_is_permutation():
    X = _rand(3, 12)
    lm = select_landmarks(X, SamplerSpec("uniform", 12, 4), LINEAR)
    assert sorted(lm.source_indices.tolist()) == list(range(12))
    assert np.allclose(np.sort(lm.X_R[0]), np.sort(X[0]))


def test_uniform_single_column():
    X = _rand(3, 1)
    lm = select_landmarks(X, SamplerSpec("uniform", 1, 0), LINEAR)
    assert lm.source_indices.tolist() == [0]
    assert np.array_equal(lm.X_R, X)


def test_uniform_deterministic_by_seed():
    X = _rand(5, 100)
    a = select_landmarks(X, SamplerSpec("uniform", 10, 7), LINEAR)
    b = select_landmarks(X, SamplerSpec("uniform", 10, 7), LINEAR)
    assert np.array_equal(a.source_indices, b.source_indices)


def test_diagonal_gaussian_reduces_to_uniform_distribution():
    # K_ii == 1 for the Gaussian kernel, so the weights are constant; over
    # many seeds every index should appear with near-equal frequency
    X = _rand(4, 20)
    counts = np.zeros(20)
    for seed in range(400):
        lm = select_landmarks(X, SamplerSpec("diagonal", 5, seed), GAUSS)
        counts[lm.source_indices] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 20) < 0.025)


def test_diagonal_weight_of_scaled_column():
    # one column scaled x10 under the linear kernel: K_ii = 100, weight
    # 10^4 / (N - 1 + 10^4) over unit-norm remaining columns
    X = np.eye(3)
    X[:, 0] *= 10.0
    hits = 0
    trials = 2000
    for seed in range(trials):
        lm = select_landmarks(X, SamplerSpec("diagonal", 1, seed), LINEAR)
        hits += lm.source_indices[0] == 0
    expected = 1e4 / (2 + 1e4)
    assert hits / trials == pytest.approx(expected, abs=0.01)


def test_diagonal_c_equals_n_selects_all():
    X = _rand(3, 6)
    lm = select_landmarks(X, SamplerSpec("diagonal", 6, 1), LINEAR)
    assert sorted(lm.source_indices.tolist()) == list(range(6))


def test_column_norm_weights_hand_example():
    # K = [[1,0,1],[0,1,1],[1,1,2]] -> squared column norms {2, 2, 6}; the
    # weights are unnormalized, the draw takes them as they are
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    X = np.stack([e1, e2, e1 + e2], axis=1)
    w = column_norm_weights(LINEAR, X)
    assert np.allclose(w, np.array([2.0, 2.0, 6.0]))


def test_column_norm_identity_kernel_uniform_weights():
    # orthonormal columns under the linear kernel -> K = I -> equal weights
    Q, _ = np.linalg.qr(_rand(8, 5, seed=3))
    w = column_norm_weights(LINEAR, Q)
    assert np.allclose(w / w.sum(), 1 / 5)


def test_column_norm_weights_equal_the_dense_column_sums():
    # N crosses a block boundary, so K is formed in two blocks
    X = _rand(4, _BLOCK + 45, seed=7)
    for spec in (LINEAR, GAUSS):
        K = kernel_matrix(spec, X, X)
        w = column_norm_weights(spec, X)
        assert np.allclose(w, np.sum(K * K, axis=0), rtol=1e-12, atol=0)


def test_draw_matches_rng_choice():
    # skewed weights with zeros, as k-means++ sees them: same index as
    # rng.choice draw for draw, and the generator left in the same state
    source = np.random.default_rng(5)
    ours = np.random.Generator(np.random.PCG64(11))
    theirs = np.random.Generator(np.random.PCG64(11))
    for _ in range(1000):
        w = source.pareto(0.7, 400) * (source.random(400) < 0.8)
        p = w / w.sum()
        assert _draw(p, ours) == theirs.choice(p.size, p=p)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_kmeans_c_equals_n_returns_columns():
    X = _rand(4, 7)
    centers = kmeans(X, 7, seed=0)
    assert np.array_equal(centers, X)


def test_kmeans_two_separated_clouds():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 50)) * 0.01 + np.array([[10.0], [0.0]])
    b = rng.standard_normal((2, 50)) * 0.01 + np.array([[-10.0], [0.0]])
    X = np.concatenate([a, b], axis=1)
    centers = kmeans(X, 2, seed=0)
    means = np.stack([a.mean(axis=1), b.mean(axis=1)], axis=1)
    # match centers to means irrespective of order
    d = np.linalg.norm(centers[:, :, None] - means[:, None, :], axis=0)
    assert min(d[0, 0] + d[1, 1], d[0, 1] + d[1, 0]) < 1e-6


def test_kmeans_deterministic_by_seed():
    X = _rand(3, 40)
    assert np.array_equal(kmeans(X, 5, seed=9), kmeans(X, 5, seed=9))


@pytest.mark.parametrize("c", [1, 3, 17, 60])
@pytest.mark.parametrize("seed", [0, 1])
def test_kmeans_matches_reference_on_gaussian_mixtures(c, seed):
    # 1200 points span three distance blocks, the last one partial
    X = synth_gaussian_mixture(300, 4, 5, spread=2.0, seed=seed).samples
    assert np.array_equal(kmeans(X, c, seed), _reference_kmeans(X, c, seed))


@pytest.mark.parametrize("seed, offset", [
    pytest.param(seed, offset, id=f"{seed}-{offset:g}" if offset else f"{seed}")
    for offset in (0.0, 1e3, 1e4)
    for seed in range(4)
])
def test_kmeans_matches_reference_where_blocks_round_differently(seed, offset):
    # at p = 20, c = 60 the 512-row blocks of the distance product round
    # unlike the whole product; the centers still agree, also far from the
    # origin, where ||c||^2 - 2 x.c rounds on the scale of ||x||^2
    X = synth_gaussian_mixture(300, 4, 20, spread=2.0, seed=seed).samples + offset
    assert np.array_equal(kmeans(X, 60, seed), _reference_kmeans(X, 60, seed))


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_kmeans_matches_reference_while_some_centers_rest(seed, max_iters):
    # stopped after each of the first iterations: from the second on, a
    # point keeps its distance to its center unless that center moved
    X = synth_gaussian_mixture(300, 4, 20, spread=2.0, seed=seed).samples
    centers = kmeans(X, 60, seed, max_iters=max_iters)
    assert np.array_equal(
        centers, _reference_kmeans(X, 60, seed, max_iters=max_iters)
    )
    if max_iters > 2:
        # the last pass met centers of which the update before it moved
        # some and kept others
        before = [kmeans(X, 60, seed, max_iters - i) for i in (1, 2)]
        assert 0 < np.any(before[0] != before[1], axis=0).sum() < 60


@pytest.mark.parametrize("points, c, seed", [
    ([12, 15, 4, 1, 10, 12, 9, 7, 9, 11, 16, 11, 14, 2, 15, 5], 3, 44903),
    ([1, 1, 16, 3, 1, 14, 5, 7, 5, 10, 3, 7, 1, 13, 1, 7, 10, 11], 4, 436),
])
def test_kmeans_matches_reference_on_ties_with_a_moved_center(points, c, seed):
    # integer points on a line: some pass finds a point exactly as far from
    # a moved lower-index center as from its own, unmoved one, and the point
    # must go to the lower index (found by a random search; keeping the
    # point where the tie leaves it gives other centers on both)
    X = np.array([points], dtype=np.float64)
    assert np.array_equal(kmeans(X, c, seed), _reference_kmeans(X, c, seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_kmeans_matches_reference_to_convergence(seed):
    X = synth_gaussian_mixture(500, 4, 20, spread=2.0, seed=seed).samples
    assert np.array_equal(kmeans(X, 200, seed), _reference_kmeans(X, 200, seed))


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e4])
@pytest.mark.parametrize("c_fraction", [0.1, 0.2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_seeding_matches_reference(c_fraction, seed, offset):
    # the one-pass distance update draws the centers the three-pass one
    # drew, also when a shift away from the origin makes ||x||^2 dwarf the
    # spread and the rounding of ||x||^2 - 2 c.x + ||c||^2 grows with it
    X = synth_gaussian_mixture(300, 4, 20, spread=4.0, seed=seed).samples + offset
    c = int(c_fraction * X.shape[1])
    assert np.array_equal(
        kmeans(X, c, seed, max_iters=0),
        _reference_kmeans(X, c, seed, max_iters=0),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_seeding_matches_reference_on_repeated_columns(seed):
    # seven distinct real points, each repeated: once all seven are centers
    # every distance must be exactly 0, so the remaining centers come from
    # the uniform fallback, as in the reference
    X = np.repeat(_rand(20, 7, seed=seed) * 3.0 + 5.0, 40, axis=1)
    X = X[:, np.random.default_rng(seed).permutation(X.shape[1])]
    centers = kmeans(X, 12, seed, max_iters=0)
    assert np.unique(centers, axis=1).shape[1] == 7
    assert np.array_equal(centers, _reference_kmeans(X, 12, seed, max_iters=0))


def test_kmeans_matches_reference_when_reseeding():
    # six distinct points, each repeated 200 times: with c = 10 the surplus
    # centers coincide, lose every tie and are re-seeded; the distances of
    # points to their own centers are then rounding residues, spread over
    # all three distance blocks
    X = np.repeat(_rand(2, 6, seed=3), 200, axis=1)
    X = X[:, np.random.default_rng(0).permutation(X.shape[1])]
    for seed in range(3):
        assert np.array_equal(kmeans(X, 10, seed), _reference_kmeans(X, 10, seed))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    p=st.integers(1, 3),
    columns=st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=6
    ),
    repeats=st.lists(st.integers(0, 5), min_size=2, max_size=24),
    extra_c=st.integers(0, 4),
    max_iters=st.integers(0, 6),
)
@example(  # the re-seed takes the only member of a lower-index cluster
    seed=0, p=1, columns=[[5, 0, 0], [0, 0, 0]], repeats=[0] + [1] * 7,
    extra_c=1, max_iters=3,
)
def test_kmeans_matches_reference_on_integer_points(
    seed, p, columns, repeats, extra_c, max_iters
):
    # exact arithmetic on small-integer coordinates with repeated columns:
    # coincident centers, distance ties and empty clusters, with c above the
    # number of distinct columns whenever extra_c > 0
    base = np.array(columns, dtype=np.float64).T[:p]
    X = base[:, np.array(repeats) % base.shape[1]]
    distinct = np.unique(X, axis=1).shape[1]
    c = min(distinct + extra_c, X.shape[1])
    assert np.array_equal(
        kmeans(X, c, seed, max_iters=max_iters),
        _reference_kmeans(X, c, seed, max_iters=max_iters),
    )


def test_weighted_draws_skip_zero_weights():
    # zero columns have K_ii = 0 under the linear kernel
    X = _rand(3, 10)
    X[:, [1, 4, 7]] = 0.0
    for seed in range(50):
        lm = select_landmarks(X, SamplerSpec("diagonal", 7, seed), LINEAR)
        assert sorted(lm.source_indices.tolist()) == [0, 2, 3, 5, 6, 8, 9]


def test_weighted_draws_need_c_positive_weights():
    X = _rand(3, 6)
    X[:, 2:] = 0.0
    with pytest.raises(ValueError, match="only 2 of 6 sampling weights are positive"):
        select_landmarks(X, SamplerSpec("diagonal", 3, 0), LINEAR)


def test_weighted_draws_follow_the_sequential_law():
    # P(first = i, second = k) = w_i / W * w_k / (W - w_i)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(5)
    trials = 20_000
    pairs = np.zeros((4, 4))
    for _ in range(trials):
        i, k = _weighted_without_replacement(w, 2, rng)
        pairs[i, k] += 1
    W = w.sum()
    expected = np.outer(w / W, w) / (W - w)[:, None]
    np.fill_diagonal(expected, 0.0)
    assert np.abs(pairs / trials - expected).max() < 0.01


def test_coreset_identical_columns_falls_back_to_uniform():
    X = np.tile(np.array([[1.0], [2.0]]), (1, 10))
    with pytest.warns(UserWarning, match="uniform"):
        lm = select_landmarks(X, SamplerSpec("coreset", 3, 0), LINEAR)
    assert lm.c == 3


def test_coreset_orthogonal_column_takes_nearly_all_weight():
    # a dominant cluster pins the mean; its members have ~zero representation
    # error while the single orthogonal outlier carries ~all of it
    X = np.concatenate(
        [np.tile(np.array([[1.0], [0.0]]), (1, 200)), [[0.0], [1.0]]], axis=1
    )
    err = coreset_weights(X)
    w = err / err.sum()
    assert w[-1] > 0.99
    assert np.all(err[:-1] < 1e-3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(3, 15))
def test_weight_vectors_normalize(seed, p, n):
    # the unnormalized weights sum to ||K||_F^2
    X = np.random.default_rng(seed).standard_normal((p, n))
    w = column_norm_weights(GAUSS, X)
    K = kernel_matrix(GAUSS, X, X)
    assert w.min() >= 0
    assert abs(w.sum() / np.sum(K * K) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["uniform", "diagonal", "column_norm", "coreset"]),
)
def test_selected_landmarks_are_data_columns(seed, method):
    X = np.random.default_rng(seed).standard_normal((4, 12))
    spec = SamplerSpec(method=method, c=5, seed=seed)
    lm = select_landmarks(X, spec, GAUSS)
    assert lm.c == 5
    assert np.array_equal(lm.X_R, X[:, lm.source_indices])
    assert len(set(lm.source_indices.tolist())) == 5


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(method="nope", c=2)
    with pytest.raises(ValueError):
        SamplerSpec(method="uniform", c=0)
    with pytest.raises(ValueError):
        select_landmarks(_rand(2, 3), SamplerSpec("uniform", 4, 0), LINEAR)
