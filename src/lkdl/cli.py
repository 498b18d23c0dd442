"""Command-line entry point.

Subcommands: preprocess, train, classify, experiment, sweep, approx-error.
Every run is driven by a YAML config file; individual fields can be
overridden with ``--set key.path=value``. Outputs are CSV files plus a JSON
run manifest (config echo, RNG name, library version, timestamp).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np
import yaml

from . import experiment, lcksvd, nystrom, serialization
from .classify import class_residuals
from .kernels import kernel_matrix
from .sampling import SamplerSpec, select_landmarks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkdl",
        description="Kernelized dictionary-learning pipelines via virtual samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a config field, e.g. sampler.method=kmeans")
        return p

    command("preprocess", cmd_preprocess,
            "fit the virtual-sample map and emit features")
    command("train", cmd_train, "train a classifier model")
    p = command("classify", cmd_classify, "classify a test set")
    p.add_argument("--model", required=True, help="trained model container")
    p.add_argument("--map", default=None, help="virtual-sample map container")
    command("experiment", cmd_experiment, "run the configured pipeline")
    p = command("sweep", cmd_sweep, "sweep one experiment axis")
    p.add_argument("--axis", required=True, choices=experiment.SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    command("approx-error", cmd_approx_error,
            "kernel-matrix approximation error benchmark")
    return parser


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"the {part} section must be a mapping, "
                                 f"not {type(node).__name__}")
        node[parts[-1]] = yaml.safe_load(value)
    return raw


def load_config(args) -> experiment.ExperimentConfig:
    with open(args.config) as fh:
        raw = yaml.safe_load(fh) or {}
    raw = apply_overrides(raw, args.overrides)
    cfg = experiment.ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def _split_and_seed(cfg):
    """The configured train/test split and the first run seed, as
    ``experiment`` uses them for repeat 0."""
    train, test = experiment.load_split(cfg)
    return train, test, experiment.derive_seeds(cfg.seed, 1)[0]


def _output_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_preprocess(cfg, args) -> int:
    train, test, seed = _split_and_seed(cfg)
    X_test = experiment.apply_corruption(cfg, test.samples, seed)
    nmap, F_train, F_test = experiment.preprocess(cfg, train.samples, X_test, seed)
    out = _output_dir(cfg)
    serialization.save_nystrom_map(nmap, out / "nystrom_map.lkdl")
    np.save(out / "F_train.npy", F_train)
    np.save(out / "F_test.npy", F_test)
    np.save(out / "labels_train.npy", train.labels)
    np.save(out / "labels_test.npy", test.labels)
    experiment.write_manifest(cfg, out / "manifest.json",
                              {"stage": "preprocess", "k_effective": nmap.k})
    print(f"wrote virtual samples ({nmap.k} x {F_train.shape[1]} train, "
          f"{F_test.shape[1]} test) to {out}")
    return 0


def cmd_train(cfg, args) -> int:
    if cfg.pipeline == "kernel_baseline":
        raise SystemExit(
            "lkdl train: pipeline 'kernel_baseline' has no model container; "
            "run it end to end with 'lkdl experiment'"
        )
    train, test, seed = _split_and_seed(cfg)
    nmap, F_train = None, train.samples
    if cfg.pipeline == "lkdl":
        nmap, F_train, _ = experiment.preprocess(
            cfg, train.samples, test.samples, seed
        )
    model = experiment.train_learner(cfg, F_train, train.labels, seed)
    out = _output_dir(cfg)
    if nmap is not None:
        serialization.save_nystrom_map(nmap, out / "nystrom_map.lkdl")
    serialization.save_model(model, out / "model.lkdl")
    experiment.write_manifest(cfg, out / "manifest.json", {"stage": "train"})
    print(f"wrote model to {out / 'model.lkdl'}")
    return 0


def cmd_classify(cfg, args) -> int:
    _, test, seed = _split_and_seed(cfg)
    X_test = experiment.apply_corruption(cfg, test.samples, seed)
    if args.map:
        nmap = serialization.load_nystrom_map(args.map)
        F_test = nystrom.transform(nmap, X_test)
    else:
        F_test = X_test
    model = serialization.load_model(args.model)
    if isinstance(model, lcksvd.LCKSVDModel):
        labels = model.classes
        column = "score"
        values = lcksvd.class_scores(model, F_test)
        pred = labels[np.argmax(values, axis=0)]
    else:
        labels = model.labels
        column = "residual"
        values = class_residuals(model, F_test)
        pred = labels[np.argmin(values, axis=0)]
    path = _output_dir(cfg) / "predictions.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_index", "true_label", "predicted_label"]
            + [f"{column}_{int(lab)}" for lab in labels]
        )
        for i in range(F_test.shape[1]):
            writer.writerow(
                [i, int(test.labels[i]), int(pred[i])]
                + [repr(float(v)) for v in values[:, i]]
            )
    acc = float(np.mean(pred == test.labels))
    print(f"accuracy {acc:.4f}; wrote {path}")
    return 0


def cmd_experiment(cfg, args) -> int:
    report = experiment.run_experiment(cfg)
    out = Path(cfg.output_dir)
    experiment.write_csv(report.rows, out / "experiment.csv")
    experiment.write_manifest(cfg, out / "manifest.json", {
        "stage": "experiment",
        "accuracy_mean": report.accuracy_mean,
        "accuracy_std": report.accuracy_std,
    })
    print(f"accuracy {report.accuracy_mean:.4f} +/- {report.accuracy_std:.4f} "
          f"over {cfg.repeats} repeats; wrote {out / 'experiment.csv'}")
    return 0


def cmd_sweep(cfg, args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    rows = experiment.run_sweep(cfg, args.axis, values)
    out = Path(cfg.output_dir)
    experiment.write_csv(rows, out / "sweep.csv")
    experiment.write_manifest(cfg, out / "manifest.json",
                              {"stage": "sweep", "axis": args.axis,
                               "values": values})
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


def cmd_approx_error(cfg, args) -> int:
    """Normalized kernel-approximation error of the configured sampler at
    the configured landmark count (0.1 N if none is set), against the exact
    kernel matrix."""
    train, _ = experiment.load_split(cfg)
    K = kernel_matrix(cfg.kernel, train.samples, train.samples)
    if cfg.c or cfg.c_fraction:
        c = cfg.landmark_count(train.n)
    else:
        c = max(1, int(round(0.1 * train.n)))
    rows = []
    for r, seed in enumerate(experiment.derive_seeds(cfg.seed, cfg.repeats)):
        spec = SamplerSpec(method=cfg.sampler_method, c=c, seed=seed)
        landmarks = select_landmarks(train.samples, spec, cfg.kernel)
        K_approx = nystrom.nystrom_kernel_approximation(
            cfg.kernel, train.samples, landmarks
        )
        rows.append({
            "sampler": cfg.sampler_method,
            "c_over_N": round(c / train.n, 6),
            "repeat": r,
            "approx_error": nystrom.approximation_error(K, K_approx),
        })
    out = Path(cfg.output_dir)
    experiment.write_csv(rows, out / "approx_error.csv")
    experiment.write_manifest(cfg, out / "manifest.json",
                              {"stage": "approx-error"})
    print(f"wrote {len(rows)} rows to {out / 'approx_error.csv'}")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; a refusal exits with one line, not a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_config(args), args)
    except ValueError as exc:
        raise SystemExit(f"lkdl: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
