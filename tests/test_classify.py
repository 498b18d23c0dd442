import tracemalloc
import warnings

import numpy as np
import pytest

from lkdl.classify import (
    class_residuals,
    classify_batch,
    corrupt_gaussian,
    corrupt_missing,
    train_per_class,
)
from lkdl.datasets import split_per_class, synth_circles
from lkdl.experiment import kernel_baseline_train
from lkdl.kernels import _BLOCK, KernelSpec
from lkdl.lcksvd import train as lcksvd_train
from lkdl.nystrom import fit, transform
from lkdl.sampling import SamplerSpec
from lkdl.sparse_coding import residual_energies


@pytest.mark.parametrize("n", [1, _BLOCK, 2 * _BLOCK + 3])
def test_class_residuals_equal_the_one_shot_pursuit(n):
    X, y = _two_subspace_data(seed=3, n=30)
    model = train_per_class(X, y, m_per_class=6, q=2, iterations=2, seed=1)
    F = np.random.default_rng(4).standard_normal((4, n))
    one_shot = np.stack([
        residual_energies(D.T @ F, D.T @ D, np.sum(F * F, axis=0), model.q)
        for D in model.dictionaries
    ])
    assert np.array_equal(class_residuals(model, F), one_shot)


def test_class_residuals_scratch_does_not_grow_with_the_test_set():
    # 20000 test columns against 40 atoms per class: one 40 x N product
    # alone would take 6.4 MB
    X, y = _two_subspace_data(seed=5, n=60)
    model = train_per_class(X, y, m_per_class=40, q=2, iterations=1, seed=2)
    F = np.random.default_rng(6).standard_normal((4, 20_000))
    tracemalloc.start()
    try:
        class_residuals(model, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def _two_subspace_data(seed=0, n=40):
    # class 1 lives in span(e1, e2), class 2 in span(e3, e4)
    rng = np.random.default_rng(seed)
    X1 = np.zeros((4, n))
    X1[:2] = rng.standard_normal((2, n))
    X2 = np.zeros((4, n))
    X2[2:] = rng.standard_normal((2, n))
    X = np.concatenate([X1, X2], axis=1)
    y = np.concatenate([np.ones(n, dtype=int), 2 * np.ones(n, dtype=int)])
    return X, y


def test_disjoint_subspaces_classified_perfectly():
    X, y = _two_subspace_data(seed=0)
    model = train_per_class(X, y, m_per_class=2, q=2, iterations=5, seed=1)
    pred = classify_batch(model, X)
    assert np.array_equal(pred, y)


def test_atom_of_a_class_gets_that_label():
    X, y = _two_subspace_data(seed=2)
    model = train_per_class(X, y, m_per_class=2, q=1, iterations=5, seed=3)
    for i, lab in enumerate(model.labels):
        for j in range(model.dictionaries[i].shape[1]):
            atom = model.dictionaries[i][:, j : j + 1]
            assert classify_batch(model, atom).tolist() == [lab]
            assert class_residuals(model, atom)[i, 0] == pytest.approx(
                0.0, abs=1e-16
            )


def test_tie_breaks_to_lowest_label():
    # both class dictionaries reconstruct x equally badly (x orthogonal to
    # both); argmin must resolve to the first (lowest) label
    from lkdl.classify import ClassDictionaryModel

    D1 = np.eye(4)[:, :1]
    D2 = np.eye(4)[:, 1:2]
    model = ClassDictionaryModel(
        labels=np.array([3, 7]), dictionaries=[D1, D2], q=1
    )
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    res = class_residuals(model, x)[:, 0]
    assert res[0] == pytest.approx(res[1])
    assert classify_batch(model, x).tolist() == [3]


def test_classify_batch_agrees_with_scalar():
    X, y = _two_subspace_data(seed=4, n=15)
    model = train_per_class(X, y, m_per_class=2, q=1, iterations=3, seed=0)
    F = np.random.default_rng(5).standard_normal((4, 10))
    batch = classify_batch(model, F)
    # each column is coded on its own: a batch of one gives the same label
    for i in range(10):
        assert classify_batch(model, F[:, i : i + 1]).tolist() == [batch[i]]


def test_corrupt_gaussian_sigma_zero_is_identity():
    X = np.random.default_rng(6).standard_normal((5, 8))
    Y = corrupt_gaussian(X, 0.0, seed=1)
    assert np.array_equal(X, Y)
    assert Y is not X  # a copy, not the same buffer


def test_corrupt_gaussian_renormalizes_columns():
    X = np.random.default_rng(7).standard_normal((6, 30))
    X /= np.linalg.norm(X, axis=0)
    Y = corrupt_gaussian(X, 0.3, seed=2)
    assert np.allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-12)


def test_corrupt_gaussian_noise_standard_deviation():
    # without renormalization Y - X is pure N(0, sigma^2) noise; over 1e5
    # entries the sample std should land within 2 percent
    X = np.zeros((100, 1000))
    sigma = 0.7
    Y = corrupt_gaussian(X, sigma, seed=3, renormalize=False)
    assert np.std(Y - X) == pytest.approx(sigma, rel=0.02)


def test_corrupt_gaussian_rejects_negative_sigma():
    with pytest.raises(ValueError):
        corrupt_gaussian(np.ones((2, 2)), -0.1)


def test_corrupt_missing_fraction_zero_is_identity():
    X = np.random.default_rng(8).standard_normal((5, 6))
    assert np.array_equal(corrupt_missing(X, 0.0), X)


def test_corrupt_missing_zeroes_floor_fraction_p_entries_per_column():
    p = 10
    X = np.ones((p, 40))
    for fraction, expect in [(0.25, 2), (0.5, 5), (0.99, 9)]:
        Y = corrupt_missing(X, fraction, seed=4)
        zeros = np.sum(Y == 0.0, axis=0)
        assert np.all(zeros == expect)
        # survivors are renormalized
        assert np.allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-12)


def test_corrupt_missing_full_fraction_warns_on_zero_columns():
    X = np.ones((4, 3))
    with pytest.warns(UserWarning, match="all-zero"):
        Y = corrupt_missing(X, 1.0, seed=0)
    assert np.all(Y == 0.0)


def test_corrupt_missing_rejects_bad_fraction():
    with pytest.raises(ValueError):
        corrupt_missing(np.ones((2, 2)), 1.5)


def _nearest_class_mean_accuracy(train, test):
    classes = train.classes
    means = np.stack(
        [train.samples[:, train.labels == c].mean(axis=1) for c in classes],
        axis=1,
    )
    d = np.linalg.norm(test.samples[:, :, None] - means[:, None, :], axis=0)
    pred = classes[np.argmin(d, axis=1)]
    return float(np.mean(pred == test.labels))


def test_concentric_circles_end_to_end():
    # the two annuli are not linearly separable: the per-class linear
    # dictionaries and the nearest-mean oracle both sit near chance, while
    # the Gaussian-kernel virtual-sample pipeline separates them
    # no unit normalization here: projecting the annuli onto the unit
    # circle would erase the radius, which is the class signal
    full = synth_circles(300, seed=42)
    train, test = split_per_class(full, 150)

    nmap = fit(
        train.samples,
        KernelSpec(kind="gaussian", sigma=1.0),
        SamplerSpec(method="uniform", c=60, seed=0),
        k=20,
    )
    F_train = transform(nmap, train.samples)
    F_test = transform(nmap, test.samples)
    model = train_per_class(F_train, train.labels, 10, 1, 5, seed=1)
    acc_kernel = float(np.mean(classify_batch(model, F_test) == test.labels))

    lin = train_per_class(train.samples, train.labels, 10, 1, 5, seed=1)
    acc_linear = float(np.mean(classify_batch(lin, test.samples) == test.labels))

    assert acc_kernel >= 0.95
    assert acc_linear <= 0.75
    assert _nearest_class_mean_accuracy(train, test) <= 0.75


def test_label_count_mismatch_rejected():
    with pytest.raises(ValueError):
        train_per_class(np.ones((3, 4)), np.array([1, 2]), 2, 1, 1)


def test_oversized_dictionary_warns():
    # a dictionary larger than its training set was once padded with random
    # atoms under a warning; now it is refused with the kernel learner's
    # message, also by LC-KSVD, whose one dictionary spans every class
    X, y = _two_subspace_data(seed=9, n=3)
    with pytest.raises(ValueError, match="^m=8 atoms exceed N=6 training"):
        lcksvd_train(X, y, m_per_class=4, q=1, alpha=1.0, beta=1.0,
                     iterations=1)


def test_oversized_class_warns_once():
    # classes of 3, 8 and 2 samples against 5 atoms were once padded, with
    # one warning per padded class; now both pipelines give each class
    # min(5, n_i) atoms, and nothing warns
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 13))
    y = np.repeat([1, 2, 3], [3, 8, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_per_class(X, y, m_per_class=5, q=1, iterations=3)
        baseline = kernel_baseline_train(
            X, y, KernelSpec(kind="gaussian", sigma=1.0), 5, 1, 3, seed=0
        )
    assert [D.shape[1] for D in model.dictionaries] == [3, 5, 2]
    assert [A.shape[1] for A in baseline.coefficient_dicts] == [3, 5, 2]
    assert classify_batch(model, X).shape == y.shape
