import json
import warnings

import numpy as np
import pytest

from lkdl import experiment
from lkdl.experiment import (
    CSV_FIELDS,
    RNG_NAME,
    ExperimentConfig,
    derive_seeds,
    kernel_baseline_classify,
    kernel_baseline_train,
    load_split,
    run_experiment,
    run_single,
    run_sweep,
    write_csv,
    write_manifest,
)
from lkdl.kernels import KernelSpec, kernel_diagonal, kernel_matrix
from lkdl.sparse_coding import komp_batch, residual_energies


def _mixture_config(**overrides):
    raw = {
        "dataset": {"synthetic": "gaussian_mixture", "n_per_class": 40,
                    "n_classes": 2, "p": 5, "seed": 1},
        "kernel": {"kind": "gaussian", "sigma": 2.0},
        "sampler": {"method": "uniform", "c_fraction": 0.3},
        "k": 8,
        "pipeline": "lkdl",
        "learner": {"m_per_class": 8, "q": 1, "iterations": 2},
        "seed": 7,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_config_from_dict_round_trip():
    cfg = _mixture_config()
    assert cfg.kernel == KernelSpec(kind="gaussian", sigma=2.0)
    assert cfg.sampler_method == "uniform"
    assert cfg.c_fraction == 0.3
    assert cfg.landmark_count(80) == 24
    assert cfg.c_over_n(80) == pytest.approx(0.3)


def test_config_validation():
    with pytest.raises(ValueError, match="pipeline"):
        _mixture_config(pipeline="nope")
    with pytest.raises(ValueError, match="repeats"):
        _mixture_config(repeats=0)
    with pytest.raises(ValueError, match="c_fraction"):
        _mixture_config(sampler={"method": "uniform", "c_fraction": 1.5})


def test_load_split_normalize_gives_unit_columns():
    plain = _mixture_config()
    plain_train, plain_test = load_split(plain)
    cfg = _mixture_config(dataset={**plain.dataset, "normalize": True})
    train, test = load_split(cfg)
    for part, ref in ((train, plain_train), (test, plain_test)):
        assert np.allclose(np.linalg.norm(part.samples, axis=0), 1.0)
        assert np.allclose(
            part.samples * np.linalg.norm(ref.samples, axis=0), ref.samples
        )
        assert np.array_equal(part.labels, ref.labels)
    assert run_experiment(cfg).accuracy_mean >= 0.95


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(3, 5)
    b = derive_seeds(3, 5)
    assert a == b
    assert len(set(a)) == 5
    assert derive_seeds(4, 5) != a


def test_load_split_mixture_shares_one_draw():
    # train and test must come from the same mixture: well-separated blobs
    # put every test sample near its own class's training mean
    cfg = _mixture_config()
    train, test = load_split(cfg)
    assert train.n == 80 and test.n == 80
    for lab in (1, 2):
        mu = train.samples[:, train.labels == lab].mean(axis=1)
        d_own = np.linalg.norm(
            test.samples[:, test.labels == lab] - mu[:, None], axis=0
        )
        assert np.median(d_own) < 5.0


def test_run_experiment_report_and_rows():
    report = run_experiment(_mixture_config(repeats=2))
    assert len(report.rows) == 2
    assert [r["repeat"] for r in report.rows] == [0, 1]
    for row in report.rows:
        assert list(row.keys()) == CSV_FIELDS
        assert 0.0 <= row["accuracy"] <= 1.0
    assert report.accuracy_mean == pytest.approx(
        np.mean(report.accuracies)
    )


def test_single_repeat_has_zero_std():
    report = run_experiment(_mixture_config(repeats=1))
    assert report.accuracy_std == 0.0


def test_well_separated_mixture_classified_perfectly():
    report = run_experiment(_mixture_config(pipeline="linear"))
    assert report.accuracy_mean == 1.0


def test_kernel_baseline_matches_pipeline_quality():
    cfg = _mixture_config(pipeline="kernel_baseline")
    report = run_experiment(cfg)
    assert report.accuracy_mean >= 0.95


def test_kernel_baseline_train_classify_direct():
    cfg = _mixture_config()
    train, test = load_split(cfg)
    model = kernel_baseline_train(
        train.samples, train.labels, cfg.kernel, 8, 1, 2, seed=0
    )
    assert model.labels.tolist() == [1, 2]
    pred = kernel_baseline_classify(model, test.samples)
    assert np.mean(pred == test.labels) >= 0.95



def test_kernel_baseline_train_checks_label_count():
    cfg = _mixture_config()
    train, _ = load_split(cfg)
    with pytest.raises(ValueError, match="label count does not match sample count"):
        kernel_baseline_train(
            train.samples, train.labels[:-1], cfg.kernel, 8, 1, 2, seed=0
        )


def test_kernel_baseline_learns_at_most_one_atom_per_sample():
    # unlike train_per_class, which warns and pads, the exact-kernel
    # baseline silently learns min(m_per_class, n_i) atoms per class
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 12))
    labels = np.array([1] * 5 + [2] * 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = kernel_baseline_train(
            X, labels, KernelSpec(kind="gaussian", sigma=1.0), 50, 1, 2, seed=0
        )
    assert [A.shape for A in model.coefficient_dicts] == [(5, 5), (7, 7)]
    assert [M.shape for M in model.atom_grams] == [(5, 5), (7, 7)]
    for X_i, A_i, M_i in zip(
        model.class_samples, model.coefficient_dicts, model.atom_grams
    ):
        K_i = kernel_matrix(model.kernel, X_i, X_i)
        assert np.array_equal(M_i, A_i.T @ (K_i @ A_i))


def _reference_kernel_baseline_classify(model, X_test):
    # the classifier as it was when the model kept each class's kernel
    # matrix and formed A_i^T K_i A_i on every call
    kzz = kernel_diagonal(model.kernel, X_test)
    res = []
    for X_i, A_i in zip(model.class_samples, model.coefficient_dicts):
        K_i = kernel_matrix(model.kernel, X_i, X_i)
        Gamma = komp_batch(
            K_i, kernel_matrix(model.kernel, X_test, X_i), kzz, A_i, model.q
        )
        res.append(residual_energies(Gamma, A_i.T @ (K_i @ A_i), kzz))
    return model.labels[np.argmin(res, axis=0)]


@pytest.mark.parametrize("q", [1, 3])
def test_kernel_baseline_classify_matches_reference(q):
    cfg = _mixture_config(dataset={
        "synthetic": "gaussian_mixture", "n_per_class": 60, "n_classes": 3,
        "p": 5, "seed": 2,
    })
    train, test = load_split(cfg)
    model = kernel_baseline_train(
        train.samples, train.labels, cfg.kernel, 12, q, 3, seed=5
    )
    assert np.array_equal(
        kernel_baseline_classify(model, test.samples),
        _reference_kernel_baseline_classify(model, test.samples),
    )


@pytest.mark.parametrize("learner_type", ["lcksvd", "foo"])
def test_kernel_baseline_refuses_other_learners(learner_type):
    # the exact-kernel baseline is the per-class learner on raw samples; any
    # other learner type must not silently run it
    cfg = _mixture_config(
        pipeline="kernel_baseline",
        learner={"type": learner_type, "m_per_class": 8, "q": 1, "iterations": 2},
    )
    train, test = load_split(cfg)
    with pytest.raises(ValueError, match="kernel_baseline"):
        run_single(cfg, train, test, seed=0)

@pytest.mark.parametrize("pipeline", ["lkdl", "kernel_baseline"])
def test_unknown_update_method_refused(pipeline):
    # the exact-kernel baseline runs kernel MOD for ksvd and mod alike, but
    # refuses a method no pipeline knows, as learn does
    cfg = _mixture_config(
        pipeline=pipeline,
        learner={"method": "foo", "m_per_class": 8, "q": 1, "iterations": 2},
    )
    train, test = load_split(cfg)
    with pytest.raises(ValueError, match="unknown dictionary update method: 'foo'"):
        run_single(cfg, train, test, seed=0)


class _Stop(Exception):
    pass


def test_pipelines_share_learner_defaults(monkeypatch):
    # a config that omits m_per_class / q / iterations gets the same values
    # in every pipeline (the kernel baseline used to run 2 iterations)
    seen = {}

    def kernel_baseline(X, labels, kernel, m_per_class, q, iterations, seed):
        seen["kernel_baseline"] = (m_per_class, q, iterations)
        raise _Stop

    def per_class(F, labels, m_per_class, q, iterations, method, seed):
        seen["per_class"] = (m_per_class, q, iterations)
        raise _Stop

    monkeypatch.setattr(experiment, "kernel_baseline_train", kernel_baseline)
    monkeypatch.setattr(experiment, "train_per_class", per_class)
    for pipeline in ("kernel_baseline", "lkdl"):
        cfg = _mixture_config(pipeline=pipeline, learner={})
        train, test = load_split(cfg)
        with pytest.raises(_Stop):
            run_single(cfg, train, test, seed=0)
    assert seen == {"kernel_baseline": (50, 5, 5), "per_class": (50, 5, 5)}


def test_run_sweep_c_over_n_rows(tmp_path):
    cfg = _mixture_config()
    rows = run_sweep(cfg, "c_over_N", [0.2, 0.5])
    assert len(rows) == 2
    assert [r["c_over_N"] for r in rows] == [0.2, 0.5]
    write_csv(rows, tmp_path / "sweep.csv")
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "c_over_N"


def test_run_sweep_rejects_bad_axis_and_empty_values():
    cfg = _mixture_config()
    with pytest.raises(ValueError, match="axis"):
        run_sweep(cfg, "bogus", [0.1])
    with pytest.raises(ValueError, match="empty"):
        run_sweep(cfg, "c_over_N", [])


@pytest.mark.parametrize("values", [[2.5], [0], [-3], [8, float("nan")]])
def test_run_sweep_k_refuses_non_integers_and_values_below_one(values):
    with pytest.raises(ValueError, match="integers >= 1"):
        run_sweep(_mixture_config(), "k", values)


def test_write_csv_and_manifest(tmp_path):
    cfg = _mixture_config()
    report = run_experiment(cfg)
    csv_path = tmp_path / "experiment.csv"
    write_csv(report.rows, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 2

    manifest_path = tmp_path / "manifest.json"
    write_manifest(cfg, manifest_path, {"stage": "test"})
    payload = json.loads(manifest_path.read_text())
    assert payload["rng"] == RNG_NAME == "numpy-PCG64"
    assert payload["stage"] == "test"
    assert payload["config"]["kernel"]["kind"] == "gaussian"
    assert "library_version" in payload and "timestamp" in payload


def test_corruption_config_dispatch():
    cfg = _mixture_config(
        corruption={"gaussian_sigma": 0.1, "renormalize": False}
    )
    report = run_experiment(cfg)
    assert report.accuracy_mean >= 0.9
    with pytest.raises(ValueError, match="corruption"):
        run_experiment(_mixture_config(corruption={"bogus": 1}))


def test_corruption_keeps_the_dataset_scale():
    # unnormalized samples (column norms 5.7-10 here): noisy columns are the
    # samples plus noise and surviving entries keep their values; with
    # dataset.normalize, or an explicit renormalize key, they are unit norm
    for corruption in ({"gaussian_sigma": 0.3}, {"missing_fraction": 0.4}):
        cfg = _mixture_config(corruption=corruption)
        _, test = load_split(cfg)
        X = experiment.apply_corruption(cfg, test.samples, seed=3)
        if "gaussian_sigma" in corruption:
            noise = np.random.Generator(np.random.PCG64(3)).standard_normal(X.shape)
            assert np.array_equal(X, test.samples + 0.3 * noise)
        else:
            kept = X != 0
            assert np.array_equal(X[kept], test.samples[kept])
        for dataset, extra in (
            ({**cfg.dataset, "normalize": True}, {}),
            (cfg.dataset, {"renormalize": True}),
        ):
            unit = _mixture_config(dataset=dataset, corruption={**corruption, **extra})
            _, test = load_split(unit)
            X = experiment.apply_corruption(unit, test.samples, seed=3)
            assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)


def test_unknown_synthetic_dataset_rejected():
    cfg = _mixture_config()
    cfg.dataset = {"synthetic": "bogus"}
    with pytest.raises(ValueError, match="synthetic"):
        load_split(cfg)
