import json
import re
import tracemalloc
import warnings
from dataclasses import replace

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
from lkdl.classify import class_residuals
from lkdl.kernels import _BLOCK, KernelSpec, kernel_diagonal, kernel_matrix
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
    # misspelled keys would otherwise fall back to the defaults: every
    # sample a landmark, or the default learner settings
    with pytest.raises(
        ValueError,
        match="unknown sampler key 'c_frac'; known keys: method, c, c_fraction",
    ):
        _mixture_config(sampler={"method": "uniform", "c_frac": 0.3})
    with pytest.raises(ValueError, match="unknown learner key 'iteration'"):
        _mixture_config(learner={"iteration": 2, "m_per_clas": 6})
    dataset = {"synthetic": "gaussian_mixture", "n_per_clas": 10, "seed": 1}
    with pytest.raises(ValueError, match="unknown dataset key 'n_per_clas'"):
        _mixture_config(dataset=dataset)
    corruption = {"gaussian_sigma": 0.1, "renormalise": True}
    with pytest.raises(ValueError, match="unknown corruption key 'renormalise'"):
        _mixture_config(corruption=corruption)
    # refused as ValueError before the dataclass constructors see them
    with pytest.raises(
        ValueError,
        match="unknown kernel key 'sigm'; known keys: kind, degree, sigma, coef0",
    ):
        _mixture_config(kernel={"kind": "gaussian", "sigm": 2.0})
    with pytest.raises(ValueError, match="unknown top-level key 'pipelin'"):
        _mixture_config(pipelin="lkdl")
    # LC-KSVD counts its atoms in m_per_class, as every learner does
    with pytest.raises(ValueError, match="unknown learner key 'm'"):
        _mixture_config(learner={"type": "lcksvd", "m": 8})
    # a run applies one corruption kind
    corruption = {"gaussian_sigma": 0.1, "missing_fraction": 0.2}
    with pytest.raises(ValueError, match="not both"):
        _mixture_config(corruption=corruption)


def test_config_without_dataset_section_is_refused():
    # refused by name, not as a KeyError
    with pytest.raises(ValueError, match="the config has no dataset section"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ValueError, match="the config has no dataset section"):
        ExperimentConfig.from_dict({"kernel": {"kind": "linear"}, "k": 4})


@pytest.mark.parametrize("section", [
    "dataset", "kernel", "sampler", "learner", "corruption",
])
@pytest.mark.parametrize("value, kind", [("gaussian", "str"), (None, "NoneType")])
def test_config_section_that_is_not_a_mapping_is_refused(section, value, kind):
    # refused by name, not read key by key as a string's letters
    with pytest.raises(
        ValueError, match=f"the {section} section must be a mapping, not {kind}"
    ):
        _mixture_config(**{section: value})


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
    # the exact-kernel baseline learns min(m_per_class, n_i) atoms per
    # class, silently, as train_per_class does
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
    # matrix, formed A_i^T K_i A_i on every call and recomputed each
    # residual energy as kzz - gamma^T M_i gamma from the dense codes
    kzz = kernel_diagonal(model.kernel, X_test)
    res = []
    for X_i, A_i in zip(model.class_samples, model.coefficient_dicts):
        K_i = kernel_matrix(model.kernel, X_i, X_i)
        Gamma = komp_batch(
            K_i, kernel_matrix(model.kernel, X_test, X_i), kzz, A_i, model.q
        )
        M_i = A_i.T @ (K_i @ A_i)
        res.append(np.maximum(
            kzz - np.einsum("ij,ij->j", Gamma, M_i @ Gamma), 0.0
        ))
    return model.labels[np.argmin(res, axis=0)]


@pytest.mark.parametrize("q", [1, 3])
def test_kernel_baseline_classify_matches_reference(q):
    # 180 test columns fit in one block; 600 are classified in two
    for n_per_class in (60, 200):
        cfg = _mixture_config(dataset={
            "synthetic": "gaussian_mixture", "n_per_class": n_per_class,
            "n_classes": 3, "p": 5, "seed": 2,
        })
        train, test = load_split(cfg)
        model = kernel_baseline_train(
            train.samples, train.labels, cfg.kernel, 12, q, 3, seed=5
        )
        assert np.array_equal(
            kernel_baseline_classify(model, test.samples),
            _reference_kernel_baseline_classify(model, test.samples),
        )
    assert test.n > _BLOCK


def test_kernel_baseline_classify_holds_no_whole_test_kernel_block():
    # 20000 test columns against classes of 300: one whole K(Z, X_i) would
    # take 48 MB
    rng = np.random.default_rng(6)
    X_train = rng.standard_normal((3, 600))
    labels = np.repeat([0, 1], 300)
    model = kernel_baseline_train(
        X_train, labels, KernelSpec(kind="gaussian", sigma=1.0), 10, 2, 1,
        seed=0,
    )
    Z = rng.standard_normal((3, 20_000))
    tracemalloc.start()
    try:
        kernel_baseline_classify(model, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.filterwarnings("ignore:.*exceeds numerical rank")
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("kernel", [
    {"kind": "gaussian", "sigma": 1.0},
    {"kind": "polynomial", "degree": 2, "coef0": 1.0},
])
def test_lkdl_with_every_sample_a_landmark_classifies_as_the_baseline(
    kernel, q
):
    # the paper's identity: with every training sample a landmark and k up
    # to the numerical rank, the virtual samples satisfy F_i^T F_i = K_i,
    # so MOD on F_i learns what kernel MOD learns on K_i and both pipelines
    # code each test sample alike. Their residual energies differ by the
    # mismatch term k(z, z) - ||f(z)||^2, the energy of phi(z) outside the
    # span of the mapped training samples; it is shared by every class, so
    # the argmin ignores it.
    raw = {
        "dataset": {"synthetic": "circles", "n_per_class": 100,
                    "noise_sigma": 0.3, "seed": 3},
        "kernel": kernel,
        "sampler": {"method": "uniform", "c_fraction": 1.0},
        "k": 200,
        "pipeline": "lkdl",
        "learner": {"m_per_class": 20, "q": q, "method": "mod"},
    }
    cfg = ExperimentConfig.from_dict(raw)
    cfg_kb = ExperimentConfig.from_dict({**raw, "pipeline": "kernel_baseline"})
    train, test = load_split(cfg)
    seed = 11
    _, F_train, F_test = experiment.preprocess(
        cfg, train.samples, test.samples, seed
    )
    model = experiment.train_learner(cfg, F_train, train.labels, seed)
    model_kb = experiment.train_learner(
        cfg_kb, train.samples, train.labels, seed
    )
    pred = experiment.predict(model, F_test)
    assert np.array_equal(pred, experiment.predict(model_kb, test.samples))
    assert np.mean(pred == test.labels) >= 0.8

    kzz = kernel_diagonal(cfg.kernel, test.samples)
    mismatch = kzz - np.sum(F_test * F_test, axis=0)
    res_kb = np.stack([
        residual_energies(
            (kernel_matrix(cfg.kernel, test.samples, X_i) @ A_i).T, M_i, kzz, q
        )
        for X_i, A_i, M_i in zip(
            model_kb.class_samples, model_kb.coefficient_dicts,
            model_kb.atom_grams,
        )
    ])
    gap = res_kb - class_residuals(model, F_test) - mismatch
    assert np.all(np.abs(gap) <= 1e-6 * kzz)


@pytest.mark.parametrize("learner_type", ["lcksvd", "foo"])
def test_kernel_baseline_refuses_other_learners(learner_type):
    # the exact-kernel baseline is the per-class learner on raw samples; any
    # other learner type must not silently run it
    with pytest.raises(ValueError, match="kernel_baseline"):
        _mixture_config(
            pipeline="kernel_baseline",
            learner={"type": learner_type, "m_per_class": 8, "q": 1,
                     "iterations": 2},
        )


@pytest.mark.parametrize("pipeline", ["lkdl", "kernel_baseline"])
def test_unknown_update_method_refused(pipeline):
    # the exact-kernel baseline runs kernel MOD for ksvd and mod alike, but
    # refuses a method no pipeline knows, as learn does
    with pytest.raises(ValueError, match="unknown dictionary update method: 'foo'"):
        _mixture_config(
            pipeline=pipeline,
            learner={"method": "foo", "m_per_class": 8, "q": 1, "iterations": 2},
        )


@pytest.mark.parametrize("method", ["ksvd", "mod"])
def test_lcksvd_refuses_the_update_method_key(method):
    # LC-KSVD always updates with K-SVD: a method key would change nothing
    with pytest.raises(ValueError, match=(
        "the lcksvd learner does not read learner key 'method'; "
        "only per_class does"
    )):
        _mixture_config(learner={"type": "lcksvd", "method": method})


@pytest.mark.parametrize("learner_type", ["lcksv", ["lcksvd"]])
def test_unknown_learner_type_refused(learner_type):
    # a list is refused by name too, not with an unhashable-type TypeError
    with pytest.raises(ValueError, match=(
        f"unknown learner type: {re.escape(repr(learner_type))}"
    )):
        _mixture_config(learner={"type": learner_type})


def test_config_built_directly_or_replaced_is_checked():
    # the checks run on every construction, not only in from_dict
    with pytest.raises(ValueError, match="unknown pipeline: 'lkdll'"):
        replace(_mixture_config(), pipeline="lkdll")
    with pytest.raises(ValueError, match="unknown learner type: 'lcksv'"):
        ExperimentConfig(dataset={}, learner={"type": "lcksv"})
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        ExperimentConfig(dataset={}, repeats=0)
    with pytest.raises(ValueError, match="the learner section must be a mapping"):
        ExperimentConfig(dataset={}, learner="lcksvd")
    cfg = ExperimentConfig(dataset={}, pipeline="linear", learner={"q": 2})
    assert replace(cfg, k=4).k == 4


@pytest.mark.parametrize("part, message", [
    ({"csv": "train.csv", "label_colum": 1},
     "unknown dataset.train key 'label_colum'"),
    ({"images": "train-images.idx"},
     "dataset.train takes csv, or images and labels"),
    ({}, "dataset.train takes csv, or images and labels"),
    ("train.csv", "the dataset.train section must be a mapping, not str"),
])
def test_dataset_part_is_checked(part, message):
    # a misspelled key would fall back to label column 0, and a part with
    # no file would fail at load with a KeyError
    test = {"images": "test-images.idx", "labels": "test-labels.idx"}
    with pytest.raises(ValueError, match=message):
        _mixture_config(dataset={"train": part, "test": test})
    ExperimentConfig(dataset={
        "train": {"csv": "train.csv", "label_column": 1, "header": True},
        "test": test,
    })


@pytest.mark.parametrize("pipeline, learner_type", [
    ("linear", "per_class"), ("lkdl", "per_class"),
    ("kernel_baseline", "per_class"), ("lkdl", "lcksvd"),
])
@pytest.mark.parametrize("key, value", [
    ("q", 0), ("q", -1), ("atoms", 0), ("iterations", -2),
])
def test_out_of_range_learner_settings_refused(
    pipeline, learner_type, key, value
):
    # q <= 0 and zero atoms would code nothing and give every sample one
    # label, and a negative pass count would run no pass: each pipeline
    # refuses them instead
    message = {
        "q": "cardinality q must be >= 1",
        "atoms": "m=0 atoms: a dictionary needs at least one",
        "iterations": "iterations=-2 must be >= 0",
    }[key]
    if key == "atoms":
        key = "m_per_class"
    learner = {"type": learner_type, "m_per_class": 8, "q": 1,
               "iterations": 2, key: value}
    cfg = _mixture_config(pipeline=pipeline, learner=learner)
    train, test = load_split(cfg)
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("pipeline, learner_type", [
    ("lkdl", None), ("lkdl", "per_class"), ("kernel_baseline", None),
])
@pytest.mark.parametrize("key", ["alpha", "beta", "variant", "tau2"])
def test_lcksvd_keys_refused_for_other_learners(pipeline, learner_type, key):
    # per_class and the kernel baseline never read LC-KSVD's weights
    learner = {"m_per_class": 8, "q": 1, "iterations": 2, key: 1}
    if learner_type is not None:
        learner["type"] = learner_type
    with pytest.raises(ValueError, match=(
        f"the per_class learner does not read learner key '{key}'; "
        "only lcksvd does"
    )):
        _mixture_config(pipeline=pipeline, learner=learner)


def test_lcksvd_reads_its_own_learner_keys(monkeypatch):
    seen = {}

    def lcksvd_train(F, labels, m_per_class, q, alpha, beta, iterations,
                     variant, tau2, seed):
        seen.update(alpha=alpha, beta=beta, variant=variant, tau2=tau2)
        raise _Stop

    monkeypatch.setattr(experiment._lcksvd, "train", lcksvd_train)
    keys = {"alpha": 0.5, "beta": 2.0, "variant": 1, "tau2": 1e-3}
    cfg = _mixture_config(learner={
        "type": "lcksvd", "m_per_class": 8, "q": 1, "iterations": 1, **keys,
    })
    train, test = load_split(cfg)
    with pytest.raises(_Stop):
        run_single(cfg, train, test, seed=0)
    assert seen == keys


def test_run_sweep_c_over_n_rows(tmp_path):
    cfg = _mixture_config()
    rows = run_sweep(cfg, "c_over_N", [0.2, 0.5])
    assert len(rows) == 2
    assert [r["c_over_N"] for r in rows] == [0.2, 0.5]
    write_csv(rows, tmp_path / "sweep.csv")
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "c_over_N"


def test_run_sweep_corruption_axes_replace_only_the_corruption_kind(
    monkeypatch,
):
    # an axis sets its corruption kind, drops the other kind's key and
    # keeps the rest of the section, such as renormalize
    seen = []

    def record(cfg):
        seen.append(cfg.corruption)
        return experiment.RunReport(rows=[], accuracy_mean=0.0, accuracy_std=0.0)

    monkeypatch.setattr(experiment, "run_experiment", record)
    for kind in ("gaussian_sigma", "missing_fraction"):
        cfg = _mixture_config(corruption={kind: 0.1, "renormalize": False})
        run_sweep(cfg, "noise_sigma", [0.3])
        run_sweep(cfg, "missing_fraction", [0.25])
    assert seen == [
        {"gaussian_sigma": 0.3, "renormalize": False},
        {"missing_fraction": 0.25, "renormalize": False},
    ] * 2


def test_lcksvd_learns_m_per_class_atoms_for_any_class_count():
    # LC-KSVD learns m_per_class atoms per class for any class count: 4
    # atoms for each of 7 classes
    dataset = {"synthetic": "gaussian_mixture", "n_per_class": 10,
               "n_classes": 7, "p": 5, "seed": 1}
    cfg = _mixture_config(
        dataset=dataset, pipeline="linear",
        learner={"type": "lcksvd", "m_per_class": 4, "q": 1, "iterations": 1},
    )
    train, _ = load_split(cfg)
    model = experiment.train_learner(cfg, train.samples, train.labels, seed=0)
    assert model.D.shape == (5, 28)
    assert model.classes.tolist() == list(range(1, 8))


def test_lcksvd_refuses_more_atoms_than_samples_where_per_class_caps():
    # per_class learns min(m_per_class, n_i) atoms for each class; LC-KSVD's
    # one dictionary of m_per_class * L atoms has no per-class cap and is
    # refused once it exceeds the N training samples
    cfg = _mixture_config(pipeline="linear")
    train, _ = load_split(cfg)
    n_class = train.n // 2
    learner = {"m_per_class": n_class + 1, "q": 1, "iterations": 1}
    cfg.learner = {**learner, "type": "per_class"}
    model = experiment.train_learner(cfg, train.samples, train.labels, seed=0)
    assert [D.shape[1] for D in model.dictionaries] == [n_class, n_class]
    cfg.learner = {**learner, "type": "lcksvd"}
    message = f"m={2 * n_class + 2} atoms exceed N={train.n} training samples"
    with pytest.raises(ValueError, match=message):
        experiment.train_learner(cfg, train.samples, train.labels, seed=0)


def test_run_sweep_checks_every_value_before_the_first_run(monkeypatch):
    # a value out of range is refused before any value's data loads
    def load_split(cfg):
        raise _Stop

    monkeypatch.setattr(experiment, "load_split", load_split)
    with pytest.raises(ValueError, match=r"c_fraction must lie in \(0, 1\]"):
        run_sweep(_mixture_config(), "c_over_N", [0.2, 1.5])
    with pytest.raises(_Stop):
        run_sweep(_mixture_config(), "c_over_N", [0.2, 1.0])


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
    # numpy scalars and tuples in the config are written as plain JSON
    cfg.k = np.int64(8)
    cfg.dataset = {**cfg.dataset, "radii": (1.0, 2.5)}
    write_manifest(cfg, manifest_path)
    config = json.loads(manifest_path.read_text())["config"]
    assert config["k"] == 8 and config["dataset"]["radii"] == [1.0, 2.5]


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
