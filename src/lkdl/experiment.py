"""End-to-end pipelines and experiment orchestration.

Three pipelines share one protocol (optionally corrupt the raw test set,
map to a feature representation, ``train_learner``, ``predict``, evaluate):

* ``linear``          — identity features, any linear learner;
* ``lkdl``            — landmark virtual-sample features, then any linear
                        learner;
* ``kernel_baseline`` — identity features, then the exact-kernel per-class
                        learner: kernel MOD on each class's K_i, trained
                        through the loop ``train_per_class`` uses
                        (``classify.fit_per_class``). The model keeps A_i
                        and M_i = A_i^T K_i A_i, not K_i; test samples Z
                        are KOMP-coded from K(Z, X_i) A_i and M_i, a
                        block of test columns at a time.

Repeats derive per-run seeds from the master seed via numpy SeedSequence
(PCG64 streams), so runs are independent but reproducible.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .classify import (
    classify_batch,
    corrupt_gaussian,
    corrupt_missing,
    fit_per_class,
    train_per_class,
)
from . import datasets as _datasets
from . import lcksvd as _lcksvd
from . import nystrom as _nystrom
from .dict_learning import check_update_method, kernel_mod_learn
from .kernels import _BLOCK, KernelSpec, kernel_diagonal, kernel_matrix
from .sampling import SamplerSpec
# ``komp`` is re-exported: code that looks up ``experiment.komp``, such as
# the benchmark's tracer, keeps working
from .sparse_coding import komp  # noqa: F401
from .sparse_coding import residual_energies

RNG_NAME = "numpy-PCG64"

CSV_FIELDS = [
    "pipeline", "kernel", "sampler", "c_over_N", "k", "repeat",
    "accuracy", "t_preprocess", "t_train", "t_test",
]

#: The learner types, each with the ``learner`` keys it reads and their
#: defaults. The ``kernel_baseline`` pipeline trains ``per_class``.
LEARNERS = {
    "per_class": {"m_per_class": 50, "q": 5, "iterations": 5, "method": "ksvd"},
    "lcksvd": {"m_per_class": 50, "q": 5, "iterations": 5, "alpha": 1.0,
               "beta": 1.0, "variant": 2, "tau2": 1e-4},
}

#: Keys of the ``dataset`` and ``corruption`` sections that ``load_split``
#: and ``apply_corruption`` read. A run applies one corruption kind.
DATASET_KEYS = (
    "synthetic", "n_per_class", "n_classes", "p", "radii", "noise_sigma",
    "seed", "train", "test", "normalize", "train_fraction",
)
#: A ``train`` or ``test`` part is a CSV file, or IDX images and labels.
PART_KEYS = ("csv", "label_column", "header", "images", "labels")
CORRUPTION_KINDS = ("gaussian_sigma", "missing_fraction")
CORRUPTION_KEYS = (*CORRUPTION_KINDS, "renormalize")


def _check_keys(section: str, given, known) -> None:
    """Refuse a config section that is not a mapping, or a key no run reads."""
    if not isinstance(given, dict):
        raise ValueError(f"the {section} section must be a mapping, "
                         f"not {type(given).__name__}")
    unknown = [key for key in given if key not in known]
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}; known "
                         f"keys: {', '.join(known)}")


@dataclass
class ExperimentConfig:
    """One run's settings, checked whenever a config is built or replaced."""

    dataset: dict
    kernel: KernelSpec = field(default_factory=KernelSpec)
    sampler_method: str = "uniform"
    c: int | None = None
    c_fraction: float | None = None
    k: int = 16
    pipeline: str = "lkdl"
    learner: dict = field(default_factory=dict)
    corruption: dict = field(default_factory=dict)
    repeats: int = 1
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        _check_keys("dataset", self.dataset, DATASET_KEYS)
        for split in (s for s in ("train", "test") if s in self.dataset):
            part = self.dataset[split]
            _check_keys(f"dataset.{split}", part, PART_KEYS)
            if "csv" not in part and not {"images", "labels"} <= part.keys():
                raise ValueError(f"dataset.{split} takes csv, or images and labels")
        _check_keys("corruption", self.corruption, CORRUPTION_KEYS)
        if all(kind in self.corruption for kind in CORRUPTION_KINDS):
            raise ValueError("corruption takes one of gaussian_sigma and "
                             "missing_fraction, not both")
        if self.pipeline not in ("linear", "lkdl", "kernel_baseline"):
            raise ValueError(f"unknown pipeline: {self.pipeline!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.c_fraction is not None and not 0.0 < self.c_fraction <= 1.0:
            raise ValueError("c_fraction must lie in (0, 1]")
        _check_keys("learner", self.learner, ["type", *dict.fromkeys(
            key for keys in LEARNERS.values() for key in keys)])
        learner_type = self.learner.get("type", "per_class")
        if self.pipeline == "kernel_baseline" and learner_type != "per_class":
            raise ValueError("pipeline 'kernel_baseline' takes only the "
                             f"'per_class' learner, not {learner_type!r}")
        if not isinstance(learner_type, str) or learner_type not in LEARNERS:
            raise ValueError(f"unknown learner type: {learner_type!r}")
        for key in self.learner:
            readers = [name for name, keys in LEARNERS.items() if key in keys]
            if key != "type" and learner_type not in readers:
                raise ValueError(f"the {learner_type} learner does not read learner "
                                 f"key {key!r}; only {', '.join(readers)} does")
        check_update_method(self.learner.get("method", "ksvd"))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        sampler_fields = ("sampler_method", "c", "c_fraction")
        _check_keys("top-level", raw, [
            f.name for f in fields(cls) if f.name not in sampler_fields
        ] + ["sampler"])
        if "dataset" not in raw:
            raise ValueError("the config has no dataset section")
        kernel = raw.pop("kernel", {})
        _check_keys("kernel", kernel, [f.name for f in fields(KernelSpec)])
        sampler = raw.pop("sampler", {})
        _check_keys("sampler", sampler, ("method", "c", "c_fraction"))
        return cls(
            kernel=KernelSpec(**kernel),
            sampler_method=sampler.get("method", "uniform"),
            c=sampler.get("c"),
            c_fraction=sampler.get("c_fraction"),
            **raw,
        )

    def landmark_count(self, n_train: int) -> int:
        if self.c is not None:
            return min(self.c, n_train)
        if self.c_fraction is not None:
            return max(1, int(round(self.c_fraction * n_train)))
        return n_train

    def c_over_n(self, n_train: int) -> float:
        return self.landmark_count(n_train) / n_train


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Counter-based split of the master seed into independent run seeds."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def load_split(config: ExperimentConfig):
    """Materialize (train, test) LabeledDatasets from the config."""
    ds = config.dataset
    kind = ds.get("synthetic")
    if kind == "circles":
        n = ds.get("n_per_class", 500)
        radii = tuple(ds.get("radii", (1.0, 2.0)))
        noise = ds.get("noise_sigma", 0.05)
        seed = ds.get("seed", config.seed)
        train = _datasets.synth_circles(n, radii, noise, seed)
        test = _datasets.synth_circles(n, radii, noise, seed + 1)
    elif kind == "gaussian_mixture":
        n = ds.get("n_per_class", 500)
        n_classes = ds.get("n_classes", 2)
        p = ds.get("p", 20)
        seed = ds.get("seed", config.seed)
        # one draw shared by both splits: the class centers are random, so
        # separately seeded train/test sets would use unrelated mixtures
        full = _datasets.synth_gaussian_mixture(2 * n, n_classes, p, seed=seed)
        train, test = _datasets.split_per_class(full, n)
    elif kind is not None:
        raise ValueError(f"unknown synthetic dataset: {kind!r}")
    else:
        train = _load_part(ds["train"])
        test = _load_part(ds["test"])
    if ds.get("normalize", False):
        train = _datasets.normalize_unit(train)
        test = _datasets.normalize_unit(test)
    if "train_fraction" in ds and ds["train_fraction"] < 1.0:
        train = _datasets.subsample_fraction(
            train, ds["train_fraction"], ds.get("seed", config.seed)
        )
    return train, test


def _load_part(part: dict) -> _datasets.LabeledDataset:
    if "csv" in part:
        return _datasets.load_csv(
            part["csv"], part.get("label_column", 0), part.get("header", False)
        )
    return _datasets.load_idx(part["images"], part["labels"])


def apply_corruption(
    config: ExperimentConfig, X_test: np.ndarray, seed: int
) -> np.ndarray:
    """The test samples corrupted as ``config.corruption`` says. Corrupted
    columns are scaled back to unit norm only if the dataset's are
    (``dataset.normalize``), so test and training samples keep one scale;
    a ``renormalize`` key in the corruption section overrides that."""
    corruption = config.corruption
    if not corruption:
        return X_test
    renormalize = corruption.get(
        "renormalize", config.dataset.get("normalize", False)
    )
    if "gaussian_sigma" in corruption:
        return corrupt_gaussian(
            X_test, corruption["gaussian_sigma"], seed, renormalize=renormalize
        )
    if "missing_fraction" in corruption:
        return corrupt_missing(
            X_test, corruption["missing_fraction"], seed, renormalize=renormalize
        )
    raise ValueError(f"unknown corruption: {corruption!r}")


def preprocess(
    config: ExperimentConfig,
    X_train: np.ndarray,
    X_test: np.ndarray,
    seed: int,
):
    """Virtual-sample pre-processing: fit the landmark embedding on the
    train set and map both sets. Returns (nmap, F_train, F_test)."""
    c = config.landmark_count(X_train.shape[1])
    sampler = SamplerSpec(method=config.sampler_method, c=c, seed=seed)
    nmap = _nystrom.fit(X_train, config.kernel, sampler, min(config.k, c))
    return nmap, _nystrom.transform(nmap, X_train), _nystrom.transform(nmap, X_test)


@dataclass
class KernelBaselineModel:
    """Per-class exact-kernel model: class samples X_i, coefficient
    dictionaries A_i and atom Grams A_i^T K(X_i, X_i) A_i."""

    labels: np.ndarray
    class_samples: list[np.ndarray]
    coefficient_dicts: list[np.ndarray]
    atom_grams: list[np.ndarray]
    kernel: KernelSpec
    q: int


def kernel_baseline_train(
    X_train: np.ndarray,
    labels: np.ndarray,
    kernel: KernelSpec,
    m_per_class: int,
    q: int,
    iterations: int,
    seed: int,
) -> KernelBaselineModel:
    """Kernel MOD on each class's kernel matrix K_i, with
    ``min(m_per_class, n_i)`` atoms for a class of n_i samples."""
    def fit(X_i, m_i, s):
        K_i = kernel_matrix(kernel, X_i, X_i)
        A_i, _, _ = kernel_mod_learn(K_i, m_i, q, iterations, seed=s)
        return X_i, A_i, A_i.T @ (K_i @ A_i)

    classes, fits = fit_per_class(X_train, labels, m_per_class, seed, fit)
    samples, dicts, grams = map(list, zip(*fits))
    return KernelBaselineModel(
        labels=classes, class_samples=samples, coefficient_dicts=dicts,
        atom_grams=grams, kernel=kernel, q=q,
    )


def kernel_baseline_classify(
    model: KernelBaselineModel, X_test: np.ndarray
) -> np.ndarray:
    """Label of the class whose KOMP code leaves the least residual energy
    in feature space, per column of X_test. Test columns are coded _BLOCK
    at a time, so each class holds one _BLOCK x n_i block of K(Z, X_i),
    never the whole N_test x n_i matrix."""
    kzz = kernel_diagonal(model.kernel, X_test)
    res = np.empty((len(model.labels), kzz.size))
    for start in range(0, kzz.size, _BLOCK):
        cols = slice(start, start + _BLOCK)
        for r, X_i, A_i, M_i in zip(
            res, model.class_samples, model.coefficient_dicts, model.atom_grams
        ):
            KA = kernel_matrix(model.kernel, X_test[:, cols], X_i) @ A_i
            r[cols] = residual_energies(KA.T, M_i, kzz[cols], model.q)
    return model.labels[np.argmin(res, axis=0)]


def train_learner(config: ExperimentConfig, F_train, y_train, seed: int):
    """Train the config's learner type on feature columns, with the defaults
    of ``LEARNERS`` for the keys it omits; for the ``kernel_baseline``
    pipeline, whose features are the raw samples, the exact-kernel per-class
    model (kernel MOD for either update method)."""
    learner_type = config.learner.get("type", "per_class")
    settings = {key: config.learner.get(key, default)
                for key, default in LEARNERS[learner_type].items()}
    if config.pipeline == "kernel_baseline":
        del settings["method"]
        return kernel_baseline_train(F_train, y_train, config.kernel,
                                     **settings, seed=seed)
    if learner_type == "lcksvd":
        return _lcksvd.train(F_train, y_train, **settings, seed=seed)
    return train_per_class(F_train, y_train, **settings, seed=seed)


def predict(model, F) -> np.ndarray:
    """Predicted labels of the feature columns F under a model of any kind."""
    if isinstance(model, KernelBaselineModel):
        return kernel_baseline_classify(model, F)
    if isinstance(model, _lcksvd.LCKSVDModel):
        return _lcksvd.predict_batch(model, F)
    return classify_batch(model, F)


def run_single(config: ExperimentConfig, train, test, seed: int) -> dict:
    """One pipeline run; returns a CSV-row dict."""
    X_test = apply_corruption(config, test.samples, seed)
    n_train = train.n

    # features: the raw samples, or for lkdl the virtual samples
    F_train, F_test, t_pre = train.samples, X_test, 0.0
    if config.pipeline == "lkdl":
        t0 = time.monotonic()
        _, F_train, F_test = preprocess(config, F_train, F_test, seed)
        t_pre = time.monotonic() - t0
    t1 = time.monotonic()
    model = train_learner(config, F_train, train.labels, seed)
    t2 = time.monotonic()
    pred = predict(model, F_test)
    t_train, t_test = t2 - t1, time.monotonic() - t2

    accuracy = float(np.mean(pred == test.labels))
    return {
        "pipeline": config.pipeline,
        "kernel": config.kernel.kind,
        "sampler": config.sampler_method,
        "c_over_N": round(config.c_over_n(n_train), 6),
        "k": config.k,
        "repeat": 0,
        "accuracy": accuracy,
        "t_preprocess": round(t_pre, 3),
        "t_train": round(t_train, 3),
        "t_test": round(t_test, 3),
    }


@dataclass
class RunReport:
    rows: list[dict]
    accuracy_mean: float
    accuracy_std: float

    @property
    def accuracies(self) -> list[float]:
        return [r["accuracy"] for r in self.rows]


def run_experiment(config: ExperimentConfig, train=None, test=None) -> RunReport:
    """Run the configured pipeline ``repeats`` times with derived seeds."""
    if train is None or test is None:
        train, test = load_split(config)
    seeds = derive_seeds(config.seed, config.repeats)
    rows = []
    for r, seed in enumerate(seeds):
        row = run_single(config, train, test, seed)
        row["repeat"] = r
        rows.append(row)
    acc = np.array([r["accuracy"] for r in rows])
    return RunReport(
        rows=rows,
        accuracy_mean=float(acc.mean()),
        accuracy_std=float(acc.std()),
    )


SWEEP_AXES = ("c_over_N", "k", "noise_sigma", "missing_fraction", "train_fraction")


def run_sweep(config: ExperimentConfig, axis: str, values: list[float]) -> list[dict]:
    """One experiment per axis value; rows carry the axis value prepended.
    Every value's config is built, and so checked, before the first run."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis: {axis!r}")
    if not values:
        raise ValueError("sweep values list is empty")
    if axis == "k" and not all(float(v).is_integer() and v >= 1 for v in values):
        raise ValueError(f"sweep axis k takes integers >= 1, got {values}")
    configs = []
    for value in values:
        if axis == "c_over_N":
            changes = {"c": None, "c_fraction": float(value)}
        elif axis == "k":
            changes = {"k": int(value)}
        elif axis in ("noise_sigma", "missing_fraction"):
            # the axis's corruption kind replaces the configured one
            kind = "gaussian_sigma" if axis == "noise_sigma" else axis
            corruption = {key: v for key, v in config.corruption.items()
                          if key not in CORRUPTION_KINDS}
            changes = {"corruption": {**corruption, kind: float(value)}}
        else:
            changes = {"dataset": {**config.dataset, "train_fraction": float(value)}}
        configs.append(replace(config, **changes))
    return [{axis: value, **row} for value, cfg in zip(values, configs)
            for row in run_experiment(cfg).rows]


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = list(rows[0].keys())
    # rows are already ordered (axis value, then repeat index)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_manifest(config: ExperimentConfig, path, extra: dict | None = None) -> None:
    """Machine-readable run manifest: config echo, RNG, version, timestamp."""
    from . import __version__

    payload = {
        "config": asdict(config),
        "rng": RNG_NAME,
        "library_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if extra:
        payload.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # numpy scalars in the config are written as the Python numbers they hold
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item)
    path.write_text(text + "\n")
