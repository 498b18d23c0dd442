import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import lkdl
from lkdl import experiment, lcksvd, nystrom, serialization
from lkdl.classify import class_residuals
from lkdl.cli import apply_overrides, main
from lkdl.datasets import save_csv


@pytest.fixture
def mixture_config(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        """\
dataset:
  synthetic: gaussian_mixture
  n_per_class: 40
  n_classes: 2
  p: 5
  seed: 1
kernel:
  kind: gaussian
  sigma: 2.0
sampler:
  method: uniform
  c_fraction: 0.3
k: 8
pipeline: lkdl
learner:
  m_per_class: 8
  q: 1
  iterations: 2
seed: 7
"""
    )
    return cfg


def test_apply_overrides_nested_and_typed():
    raw = {"sampler": {"method": "uniform"}, "k": 4}
    out = apply_overrides(
        raw, ["sampler.method=kmeans", "k=16", "learner.q=2"]
    )
    assert out["sampler"]["method"] == "kmeans"
    assert out["k"] == 16  # YAML-parsed, not a string
    assert out["learner"] == {"q": 2}


def test_apply_overrides_refuses_a_section_that_is_not_a_mapping():
    # as ExperimentConfig.from_dict does, not with a TypeError
    with pytest.raises(
        ValueError, match="the kernel section must be a mapping, not str"
    ):
        apply_overrides({"kernel": "gaussian"}, ["kernel.kind=linear"])


def test_apply_overrides_rejects_missing_equals():
    with pytest.raises(SystemExit):
        apply_overrides({}, ["novalue"])


def test_experiment_command_writes_csv_and_manifest(mixture_config, tmp_path):
    out = tmp_path / "run"
    rc = main(["experiment", "--config", str(mixture_config),
               "--out", str(out)])
    assert rc == 0
    with (out / "experiment.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["pipeline"] == "lkdl"
    assert rows[0]["kernel"] == "gaussian"
    assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0

    payload = json.loads((out / "manifest.json").read_text())
    assert payload["rng"] == "numpy-PCG64"
    assert payload["stage"] == "experiment"
    assert payload["config"]["seed"] == 7


def test_seed_and_set_overrides_reach_the_run(mixture_config, tmp_path):
    out = tmp_path / "run"
    main(["experiment", "--config", str(mixture_config), "--out", str(out),
          "--seed", "99", "--set", "sampler.method=kmeans",
          "--set", "repeats=2"])
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["config"]["seed"] == 99
    assert payload["config"]["sampler_method"] == "kmeans"
    with (out / "experiment.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["sampler"] == "kmeans" for r in rows)


def test_preprocess_command_outputs(mixture_config, tmp_path):
    out = tmp_path / "pre"
    rc = main(["preprocess", "--config", str(mixture_config),
               "--out", str(out)])
    assert rc == 0
    F_train = np.load(out / "F_train.npy")
    F_test = np.load(out / "F_test.npy")
    assert F_train.shape == (8, 80)
    assert F_test.shape == (8, 80)
    assert (out / "nystrom_map.lkdl").exists()
    labels = np.load(out / "labels_train.npy")
    assert sorted(np.unique(labels).tolist()) == [1, 2]
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["stage"] == "preprocess"
    assert payload["k_effective"] == 8


def test_train_then_classify_round_trip(mixture_config, tmp_path):
    out = tmp_path / "model_dir"
    rc = main(["train", "--config", str(mixture_config), "--out", str(out)])
    assert rc == 0
    assert (out / "model.lkdl").exists()
    assert (out / "nystrom_map.lkdl").exists()

    pred_out = tmp_path / "pred_dir"
    rc = main(["classify", "--config", str(mixture_config),
               "--out", str(pred_out),
               "--model", str(out / "model.lkdl"),
               "--map", str(out / "nystrom_map.lkdl")])
    assert rc == 0
    with (pred_out / "predictions.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["sample_index", "true_label", "predicted_label",
                      "residual_1", "residual_2"]
    assert len(rows) == 80
    # the blobs are well separated; the round-tripped model should be good
    acc = np.mean([r[1] == r[2] for r in rows])
    assert acc >= 0.95


def test_train_maps_the_training_set_only(mixture_config, tmp_path, monkeypatch):
    # the test set is classify's input; train has no use for its features
    mapped, transform = [], nystrom.transform

    def counted(nmap, X):
        mapped.append(X.shape[1])
        return transform(nmap, X)

    monkeypatch.setattr(nystrom, "transform", counted)
    out = tmp_path / "model_dir"
    assert main(["train", "--config", str(mixture_config), "--out", str(out)]) == 0
    cfg = experiment.ExperimentConfig.from_dict(
        yaml.safe_load(mixture_config.read_text()))
    train, _ = experiment.load_split(cfg)
    assert mapped == [train.n]
    # the written map and model are those of the in-process pipeline
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    nmap, F_train = experiment.preprocess(cfg, train.samples, seed)
    model = experiment.train_learner(cfg, F_train, train.labels, seed)
    own = tmp_path / "own"
    own.mkdir()
    serialization.save_nystrom_map(nmap, own / "nystrom_map.lkdl")
    serialization.save_model(model, own / "model.lkdl")
    for name in ("nystrom_map.lkdl", "model.lkdl"):
        assert (out / name).read_bytes() == (own / name).read_bytes()


def test_train_refuses_kernel_baseline_pipeline(mixture_config, tmp_path):
    # the exact-kernel baseline has no model container; training must not
    # fall back to a linear model on the raw samples
    out = tmp_path / "model_dir"
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--config", str(mixture_config), "--out", str(out),
              "--set", "pipeline=kernel_baseline"])
    assert excinfo.value.code not in (0, None)
    assert "kernel_baseline" in str(excinfo.value.code)
    assert not (out / "model.lkdl").exists()


def test_train_refuses_unknown_learner_type(mixture_config, tmp_path):
    # an unknown learner type must not fall back to another learner, and
    # nothing (not even the map) is written before the refusal
    out = tmp_path / "model_dir"
    with pytest.raises(SystemExit, match="unknown learner type: 'foo'"):
        main(["train", "--config", str(mixture_config), "--out", str(out),
              "--set", "learner.type=foo"])
    assert not list(tmp_path.rglob("*.lkdl"))


def test_experiment_refuses_misspelled_learner_key(mixture_config, tmp_path):
    # a misspelled key must not run with the default it meant to override
    out = tmp_path / "exp_dir"
    with pytest.raises(SystemExit, match="unknown learner key 'iteration'"):
        main(["experiment", "--config", str(mixture_config), "--out", str(out),
              "--set", "learner.iteration=3"])
    assert not out.exists()


def test_experiment_refuses_misspelled_dataset_key(mixture_config, tmp_path):
    # a misspelled key must not load the default 500 samples per class
    out = tmp_path / "exp_dir"
    with pytest.raises(SystemExit, match="unknown dataset key 'n_per_clas'"):
        main(["experiment", "--config", str(mixture_config), "--out", str(out),
              "--set", "dataset.n_per_clas=10"])
    assert not out.exists()


class _Loaded(Exception):
    pass


@pytest.mark.parametrize("overrides, message", [
    (["learner.type=lcksv"], "unknown learner type: 'lcksv'"),
    (["learner.method=kvsd"], "unknown dictionary update method: 'kvsd'"),
    (["learner.type=lcksvd", "learner.method=mod"],
     "the lcksvd learner does not read learner key 'method'"),
    (["learner.alpha=2"], "the per_class learner does not read learner key 'alpha'"),
    (["pipeline=kernel_baseline", "learner.type=lcksvd"],
     "pipeline 'kernel_baseline' takes only the 'per_class' learner"),
])
def test_refused_learner_configs_load_no_data(
    mixture_config, tmp_path, monkeypatch, overrides, message
):
    # each refusal comes from building the config, before any data loads
    def load_split(cfg):
        raise _Loaded

    monkeypatch.setattr(experiment, "load_split", load_split)
    sets = [arg for item in overrides for arg in ("--set", item)]
    with pytest.raises(SystemExit, match=f"^lkdl: {message}"):
        main(["experiment", "--config", str(mixture_config),
              "--out", str(tmp_path / "exp_dir")] + sets)
    with pytest.raises(_Loaded):
        main(["experiment", "--config", str(mixture_config),
              "--out", str(tmp_path / "exp_dir")])


def test_refused_config_exits_with_one_line(tmp_path):
    # a refusal is the reason on one line, not a ValueError traceback
    config = tmp_path / "config.yaml"
    config.write_text("k: 4\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "--config", str(config), "--out", str(tmp_path)])
    assert excinfo.value.code == "lkdl: the config has no dataset section"


@pytest.mark.parametrize("text, reason", [
    (None, "cannot read config {path}: No such file or directory"),
    ("dataset: [1, 2\n", "config {path} is not YAML: "),
    ("- 1\n- 2\n", "config {path} must be a mapping, not list"),
])
def test_unreadable_config_exits_with_one_line(tmp_path, text, reason):
    # a missing file, a file that is not YAML and one that holds no mapping
    # each end in one `lkdl: <reason>` line with exit status 1
    config = tmp_path / "config.yaml"
    if text is not None:
        config.write_text(text)
    expected = "lkdl: " + reason.format(path=config)
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "--config", str(config), "--out", str(tmp_path)])
    assert excinfo.value.code.startswith(expected)
    assert "\n" not in excinfo.value.code
    proc = _run_lkdl(["experiment", "--config", str(config)])
    assert proc.returncode == 1
    assert proc.stderr.startswith(expected) and proc.stderr.count("\n") == 1


def _run_lkdl(args):
    """``lkdl`` with these arguments in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(lkdl.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run([sys.executable, "-m", "lkdl.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("override, shown", [
    ("kernel.coef0=-1", "degree 2 and coef0 -1"),
    ("kernel.degree=2.5", "degree 2.5 and coef0 0.0"),
])
def test_polynomial_kernel_that_is_no_mercer_kernel_is_refused_before_data_loads(
    mixture_config, tmp_path, monkeypatch, override, shown
):
    # (x.y - 1)^3 gives indefinite matrices; a fractional power of a
    # negative x.y is NaN, and the map container stores the degree as u32
    args = ["experiment", "--config", str(mixture_config), "--out",
            str(tmp_path / "exp_dir"), "--set", "kernel.kind=polynomial",
            "--set", override]
    expected = ("lkdl: a polynomial kernel takes an integer degree >= 1 and "
                f"coef0 >= 0, not {shown}")
    proc = _run_lkdl(args)
    assert (proc.returncode, proc.stderr) == (1, expected + "\n")

    def load_split(cfg):
        raise _Loaded

    monkeypatch.setattr(experiment, "load_split", load_split)
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == expected
    assert not (tmp_path / "exp_dir").exists()


@pytest.mark.parametrize("command, part", [
    (["experiment"], "train"), (["experiment"], "test"),
    (["preprocess"], "train"), (["train"], "train"),
    (["classify", "--model", "model.lkdl"], "test"),
])
@pytest.mark.parametrize("pipeline", ["linear", "lkdl"])
def test_non_finite_samples_are_refused_before_any_pipeline_runs(
    mixture_config, tmp_path, monkeypatch, command, part, pipeline
):
    # the split as CSV files, with one NaN in the training or the test set
    raw = yaml.safe_load(mixture_config.read_text())
    split = experiment.load_split(experiment.ExperimentConfig.from_dict(raw))
    raw["dataset"] = {}
    for name, data in zip(("train", "test"), split):
        if name == part:
            data.samples[2, 5] = np.nan
        save_csv(data, tmp_path / f"{name}.csv")
        raw["dataset"][name] = {"csv": str(tmp_path / f"{name}.csv")}
    config = tmp_path / "nan.yaml"
    config.write_text(yaml.safe_dump(raw))

    def reached(*args, **kwargs):
        raise _Loaded

    for stage in ("apply_corruption", "preprocess", "train_learner", "predict"):
        monkeypatch.setattr(experiment, stage, reached)
    monkeypatch.setattr(serialization, "load_model", reached)
    name = "training" if part == "train" else "test"
    with pytest.raises(SystemExit,
                       match=f"^lkdl: the {name} set contains non-finite entries$"):
        main(command + ["--config", str(config), "--out", str(tmp_path / "out"),
                        "--set", f"pipeline={pipeline}"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["preprocess"], ["train"], ["classify", "--model", "model.lkdl"],
    ["experiment"], ["approx-error"], ["sweep", "--axis", "k", "--values", "4"],
])
def test_corruption_without_a_kind_is_refused_before_data_loads(
    mixture_config, tmp_path, monkeypatch, command
):
    # only a noise_sigma or missing_fraction sweep fills in the kind
    def draw(*args, **kwargs):
        raise _Loaded

    monkeypatch.setattr(experiment._datasets, "synth_gaussian_mixture", draw)
    with pytest.raises(SystemExit, match="^lkdl: the corruption section names no kind"):
        main(command + ["--config", str(mixture_config), "--out", str(tmp_path),
                        "--set", "corruption.renormalize=true"])


def test_sweep_fills_in_the_corruption_kind(mixture_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(mixture_config), "--out", str(out),
                 "--axis", "noise_sigma", "--values", "0.1,0.2",
                 "--set", "corruption.renormalize=false"]) == 0
    with (out / "sweep.csv").open() as fh:
        assert [row["noise_sigma"] for row in csv.DictReader(fh)] == ["0.1", "0.2"]


def test_preprocess_maps_the_corrupted_test_set(mixture_config, tmp_path):
    # as experiment and classify do, preprocess corrupts the test samples
    # before mapping them
    out, corruption = tmp_path / "pre", "corruption.gaussian_sigma=0.5"
    assert main(["preprocess", "--config", str(mixture_config),
                 "--out", str(out), "--set", corruption]) == 0
    raw = apply_overrides(yaml.safe_load(mixture_config.read_text()),
                          [corruption])
    cfg = experiment.ExperimentConfig.from_dict(raw)
    _, test = experiment.load_split(cfg)
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    X_test = experiment.apply_corruption(cfg, test.samples, seed)
    assert not np.array_equal(X_test, test.samples)
    nmap = serialization.load_nystrom_map(out / "nystrom_map.lkdl")
    assert np.array_equal(np.load(out / "F_test.npy"), nystrom.transform(nmap, X_test))


@pytest.mark.parametrize("learner, column, method", [
    ("per_class", "residual", "ksvd"),
    ("per_class", "residual", "mod"),
    ("lcksvd", "score", None),
])
@pytest.mark.parametrize("pipeline", ["linear", "lkdl"])
def test_train_classify_accuracy_equals_run_single(
    mixture_config, tmp_path, pipeline, learner, column, method
):
    # q = 2: K-SVD runs on overlapping supports through train -> save ->
    # load -> classify; the linear pipeline has no map to pass. LC-KSVD
    # always updates with K-SVD and refuses a method key.
    overrides = [f"pipeline={pipeline}", f"learner.type={learner}",
                 "learner.m_per_class=4", "learner.q=2"]
    if method is not None:
        overrides.append(f"learner.method={method}")
    sets = [arg for item in overrides for arg in ("--set", item)]
    model_dir, pred_dir = tmp_path / "model_dir", tmp_path / "pred_dir"
    assert main(["train", "--config", str(mixture_config),
                 "--out", str(model_dir)] + sets) == 0
    map_path = model_dir / "nystrom_map.lkdl"
    assert map_path.exists() == (pipeline == "lkdl")
    map_args = ["--map", str(map_path)] if pipeline == "lkdl" else []
    assert main(["classify", "--config", str(mixture_config),
                 "--out", str(pred_dir),
                 "--model", str(model_dir / "model.lkdl")]
                + map_args + sets) == 0
    with (pred_dir / "predictions.csv").open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header[3:] == [f"{column}_1", f"{column}_2"]
    cli_accuracy = float(np.mean([r[1] == r[2] for r in rows]))

    raw = apply_overrides(yaml.safe_load(mixture_config.read_text()), overrides)
    cfg = experiment.ExperimentConfig.from_dict(raw)
    train, test = experiment.load_split(cfg)
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    assert cli_accuracy == experiment.run_single(cfg, train, test, seed)["accuracy"]
    # two label vectors can share an accuracy: the labels and every value
    # column must equal the in-process model's, bit for bit
    F_train, F_test = train.samples, test.samples
    if pipeline == "lkdl":
        nmap, F_train = experiment.preprocess(cfg, train.samples, seed)
        F_test = nystrom.transform(nmap, test.samples)
    model = experiment.train_learner(cfg, F_train, train.labels, seed)
    values = (lcksvd.class_scores if learner == "lcksvd" else class_residuals)(
        model, F_test)
    assert [int(r[2]) for r in rows] == experiment.predict(model, F_test).tolist()
    assert np.array_equal(np.array([r[3:] for r in rows], dtype=float), values.T)


@pytest.mark.parametrize("learner, column", [
    ("per_class", "residual"),
    ("lcksvd", "score"),
])
def test_classify_columns_are_plain_floats(
    mixture_config, tmp_path, learner, column
):
    # the residual and score columns hold the classifier's values as plain
    # float literals (not numpy scalar reprs) that parse back exactly
    sets = ["--set", f"learner.type={learner}",
            "--set", "learner.m_per_class=4"]
    model_dir, pred_dir = tmp_path / "model_dir", tmp_path / "pred_dir"
    assert main(["train", "--config", str(mixture_config),
                 "--out", str(model_dir)] + sets) == 0
    assert main(["classify", "--config", str(mixture_config),
                 "--out", str(pred_dir),
                 "--model", str(model_dir / "model.lkdl"),
                 "--map", str(model_dir / "nystrom_map.lkdl")] + sets) == 0
    with (pred_dir / "predictions.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    parsed = np.array([[float(r[f"{column}_{lab}"]) for r in rows]
                       for lab in (1, 2)])

    cfg = experiment.ExperimentConfig.from_dict(
        yaml.safe_load(mixture_config.read_text())
    )
    _, test = experiment.load_split(cfg)
    nmap = serialization.load_nystrom_map(model_dir / "nystrom_map.lkdl")
    F_test = nystrom.transform(nmap, test.samples)
    model = serialization.load_model(model_dir / "model.lkdl")
    if learner == "lcksvd":
        expected = lcksvd.class_scores(model, F_test)
    else:
        expected = class_residuals(model, F_test)
    assert np.array_equal(parsed, expected)


def test_sweep_command(mixture_config, tmp_path):
    out = tmp_path / "sweep_dir"
    rc = main(["sweep", "--config", str(mixture_config), "--out", str(out),
               "--axis", "c_over_N", "--values", "0.2,0.5"])
    assert rc == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["c_over_N"]) for r in rows] == [0.2, 0.5]
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["axis"] == "c_over_N"
    assert payload["values"] == [0.2, 0.5]


@pytest.mark.parametrize("axis, key, values", [
    ("noise_sigma", "corruption.gaussian_sigma", [0.05, 4.0]),
    ("missing_fraction", "corruption.missing_fraction", [0.1, 0.5]),
    ("train_fraction", "dataset.train_fraction", [0.5, 0.8]),
    ("k", "k", [1, 8]),
])
def test_sweep_command_axes(mixture_config, tmp_path, axis, key, values):
    # each axis reaches the run: a row is that of the experiment with the
    # axis value set in the config, and the two values give different rows
    out = tmp_path / "sweep_dir"
    assert main(["sweep", "--config", str(mixture_config), "--out", str(out),
                 "--axis", axis,
                 "--values", ",".join(str(v) for v in values)]) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[0] == axis
    assert [float(r[axis]) for r in rows] == values
    # the axis value is not the embedding dimension unless the axis is k
    assert [int(r["k"]) for r in rows] == (values if axis == "k" else [8, 8])
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["axis"] == axis
    assert payload["values"] == values

    def outcome(row):
        return float(row["accuracy"]), float(row["c_over_N"])

    for row, value in zip(rows, values):
        raw = apply_overrides(yaml.safe_load(mixture_config.read_text()),
                              [f"{key}={value}"])
        report = experiment.run_experiment(
            experiment.ExperimentConfig.from_dict(raw)
        )
        assert outcome(row) == outcome(report.rows[0])
    assert outcome(rows[0]) != outcome(rows[1])


def test_approx_error_command(mixture_config, tmp_path):
    out = tmp_path / "approx_dir"
    rc = main(["approx-error", "--config", str(mixture_config),
               "--out", str(out)])
    assert rc == 0
    with (out / "approx_error.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    err = float(rows[0]["approx_error"])
    assert 0.0 <= err <= 1.0


def test_experiment_runs_lcksvd_learner(mixture_config, tmp_path):
    out = tmp_path / "lcksvd_dir"
    rc = main(["experiment", "--config", str(mixture_config), "--out", str(out),
               "--set", "learner.type=lcksvd", "--set", "learner.m_per_class=4",
               "--set", "learner.alpha=1.0", "--set", "learner.beta=1.0"])
    assert rc == 0
    with (out / "experiment.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["accuracy"]) >= 0.9


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
