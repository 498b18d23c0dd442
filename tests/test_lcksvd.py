import numpy as np
import pytest

from lkdl.dict_learning import learn
from lkdl.lcksvd import (
    LCKSVDModel,
    build_label_structures,
    class_scores,
    predict_batch,
    ridge_classifier,
    train,
)
from lkdl.sparse_coding import omp_batch


def _blob_data(seed=0, n=30, p=6, classes=3, separation=6.0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for lab in range(1, classes + 1):
        center = np.zeros(p)
        center[lab - 1] = separation
        xs.append(center[:, None] + rng.standard_normal((p, n)))
        ys.append(np.full(n, lab, dtype=int))
    return np.concatenate(xs, axis=1), np.concatenate(ys)


# ----------------------------------------------------------- label structures


def test_label_structures_hand_example():
    labels = np.array([2, 1, 2, 1])
    s = build_label_structures(labels, 2)
    assert s.classes.tolist() == [1, 2]
    # H rows follow sorted class order
    assert s.H.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0]]
    # atoms 0-1 belong to class 1, atoms 2-3 to class 2
    assert s.atom_labels.tolist() == [1, 1, 2, 2]
    expected_Q = np.array(
        [[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0]], dtype=float
    )
    assert np.array_equal(s.Q, expected_Q)


def test_label_structures_single_class():
    s = build_label_structures(np.array([5, 5, 5]), 2)
    assert np.all(s.H == 1.0)
    assert np.all(s.Q == 1.0)
    assert s.atom_labels.tolist() == [5, 5]


def test_label_structures_column_sums():
    labels = np.random.default_rng(1).integers(1, 5, size=40)
    s = build_label_structures(labels, 2)
    # exactly one class per sample
    assert np.allclose(s.H.sum(axis=0), 1.0)


# ---------------------------------------------------------------- classifier


def test_ridge_classifier_solves_normal_equations():
    rng = np.random.default_rng(2)
    Gamma = rng.standard_normal((5, 20))
    H = (rng.integers(0, 2, size=(3, 20))).astype(float)
    tau2 = 0.05
    Theta = ridge_classifier(H, Gamma, tau2)
    # stationarity of ||H - Theta Gamma||^2 + tau2 ||Theta||^2
    grad = (Theta @ Gamma - H) @ Gamma.T + tau2 * Theta
    assert np.max(np.abs(grad)) < 1e-10


def test_ridge_classifier_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        ridge_classifier(np.ones((2, 3)), np.ones((2, 3)), 0.0)


# ------------------------------------------------------------------ training


def test_zero_weights_reduce_to_plain_dictionary_learning():
    # with alpha = beta = 0 the stacked problem is exactly the plain one;
    # compare the dictionaries and fresh codes over them
    X, y = _blob_data(seed=3, n=20)
    model = train(X, y, m_per_class=2, q=1, alpha=0.0, beta=0.0, iterations=4,
                  seed=7)
    D_plain, _, _ = learn(X, 6, 1, 4, method="ksvd", seed=7)
    assert np.max(np.abs(model.D - D_plain)) < 1e-12
    G1 = omp_batch(model.D, X, 1)
    G2 = omp_batch(D_plain, X, 1)
    assert np.array_equal(G1 != 0, G2 != 0)


def test_perfect_codes_give_zero_training_error():
    # signals that are exactly their class's ideal code pattern: with Gamma
    # equal to Q the classifier separates training data perfectly
    X, y = _blob_data(seed=4, n=25, separation=8.0)
    model = train(X, y, m_per_class=2, q=2, alpha=4.0, beta=2.0, iterations=8,
                  seed=1)
    pred = predict_batch(model, X)
    assert np.mean(pred == y) == 1.0


def test_ridge_on_ideal_codes_maps_atoms_to_their_class():
    # a classifier fit to the ideal discriminative codes scores each atom's
    # indicator vector highest on that atom's own class
    labels = np.repeat([1, 2, 3], 10)
    s = build_label_structures(labels, 2)
    Theta = ridge_classifier(s.H, s.Q, 1e-6)
    atom_class_idx = np.searchsorted(s.classes, s.atom_labels)
    for j in range(6):
        assert np.argmax(Theta[:, j]) == atom_class_idx[j]


def test_scores_invariant_to_atom_normalization():
    # D and Theta are divided by the same per-atom scale after extraction;
    # over a fixed (full) support the least-squares code picks up the
    # inverse scaling, so the classifier scores cannot change
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base_model = LCKSVDModel(
        D=Q, T=np.eye(6), Theta=rng.standard_normal((3, 6)),
        sqrt_alpha=1.0, sqrt_beta=1.0, variant=2, tau2=1e-4, q=6,
        classes=np.array([1, 2, 3]), atom_scales=np.ones(6),
    )
    x = rng.standard_normal((6, 1))
    base = class_scores(base_model, x)
    scale = rng.uniform(0.5, 2.0, size=6)
    scaled_model = LCKSVDModel(
        D=Q / scale, T=base_model.T, Theta=base_model.Theta / scale,
        sqrt_alpha=1.0, sqrt_beta=1.0, variant=2, tau2=1e-4, q=6,
        classes=base_model.classes, atom_scales=scale,
    )
    scores = class_scores(scaled_model, x)
    assert np.allclose(scores, base, atol=1e-8)


@pytest.mark.parametrize("variant", [1, 2])
def test_both_variants_beat_nearest_mean_within_margin(variant):
    X, y = _blob_data(seed=8, n=60, separation=4.0)
    Xte, yte = _blob_data(seed=9, n=40, separation=4.0)
    model = train(
        X, y, m_per_class=3, q=2, alpha=2.0, beta=2.0, iterations=10,
        variant=variant, seed=4,
    )
    acc = float(np.mean(predict_batch(model, Xte) == yte))

    classes = np.unique(y)
    means = np.stack([X[:, y == c].mean(axis=1) for c in classes], axis=1)
    d = np.linalg.norm(Xte[:, :, None] - means[:, None, :], axis=0)
    acc_nm = float(np.mean(classes[np.argmin(d, axis=1)] == yte))
    assert acc >= acc_nm - 0.05


def test_prediction_tie_breaks_to_lowest_label():
    X, y = _blob_data(seed=10, n=15)
    model = train(X, y, m_per_class=2, q=1, alpha=1.0, beta=1.0, iterations=3,
                  seed=5)
    model.Theta = np.zeros_like(model.Theta)  # every score ties at zero
    pred, scores = predict_batch(model, X[:, :1]), class_scores(model, X[:, :1])
    assert pred.tolist() == [model.classes[0]]
    assert np.all(scores == 0.0)


def test_invalid_arguments_rejected():
    X, y = _blob_data(seed=11, n=10)
    with pytest.raises(ValueError):
        train(X, y, m_per_class=2, q=1, alpha=-1.0, beta=0.0, iterations=1)
    with pytest.raises(ValueError):
        train(X, y, m_per_class=2, q=1, alpha=0.0, beta=0.0, iterations=1,
              variant=3)
