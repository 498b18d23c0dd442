"""Command-line entry point.

Subcommands: preprocess, train, classify, experiment, sweep, approx-error,
lcksvd. Every run is driven by a YAML config file; individual fields can be
overridden with ``--set key.path=value``. Outputs are CSV files plus a JSON
run manifest (config echo, RNG name, library version, timestamp).
"""

from __future__ import annotations

import argparse
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkdl",
        description="Kernelized dictionary-learning pipelines via virtual samples",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="limit BLAS thread count")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a config field, e.g. sampler.method=kmeans")
        return p

    common(sub.add_parser("preprocess",
                          help="fit the virtual-sample map and emit features"))
    common(sub.add_parser("train", help="train a classifier model"))
    p = common(sub.add_parser("classify", help="classify a test set"))
    p.add_argument("--model", required=True, help="trained model container")
    p.add_argument("--map", default=None, help="virtual-sample map container")
    common(sub.add_parser("experiment", help="run the configured pipeline"))
    p = common(sub.add_parser("sweep", help="sweep one experiment axis"))
    p.add_argument("--axis", required=True,
                   choices=["c_over_N", "noise_sigma", "missing_fraction",
                            "train_fraction"])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    common(sub.add_parser("approx-error",
                          help="kernel-matrix approximation error benchmark"))
    common(sub.add_parser("lcksvd",
                          help="run the experiment with the label-consistent learner"))
    return parser


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    import yaml

    for item in overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = yaml.safe_load(value)
    return raw


def load_config(args):
    import yaml

    from .experiment import ExperimentConfig

    with open(args.config) as fh:
        raw = yaml.safe_load(fh) or {}
    raw = apply_overrides(raw, args.overrides)
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def cmd_preprocess(cfg) -> int:
    from pathlib import Path

    import numpy as np

    from . import experiment, serialization

    train, test = experiment.load_split(cfg)
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    nmap, F_train, F_test = experiment.preprocess(
        cfg, train.samples, test.samples, seed
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def cmd_train(cfg) -> int:
    from pathlib import Path

    from . import experiment, serialization

    if cfg.pipeline == "kernel_baseline":
        raise SystemExit(
            "lkdl train: pipeline 'kernel_baseline' has no model container; "
            "run it end to end with 'lkdl experiment'"
        )
    train, test = experiment.load_split(cfg)
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    nmap, F_train = None, train.samples
    if cfg.pipeline == "lkdl":
        nmap, F_train, _ = experiment.preprocess(
            cfg, train.samples, test.samples, seed
        )
    # an unknown learner type raises here, before anything is written
    model = experiment.train_learner(cfg, F_train, train.labels, seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if nmap is not None:
        serialization.save_nystrom_map(nmap, out / "nystrom_map.lkdl")
    serialization.save_model(model, out / "model.lkdl")
    experiment.write_manifest(cfg, out / "manifest.json", {"stage": "train"})
    print(f"wrote model to {out / 'model.lkdl'}")
    return 0


def cmd_classify(cfg, model_path, map_path) -> int:
    import csv as _csv
    from pathlib import Path

    import numpy as np

    from . import experiment, lcksvd, nystrom, serialization
    from .classify import class_residuals

    _, test = experiment.load_split(cfg)
    seed = experiment.derive_seeds(cfg.seed, 1)[0]
    X_test = experiment.apply_corruption(test.samples, cfg.corruption, seed)
    if map_path:
        nmap = serialization.load_nystrom_map(map_path)
        F_test = nystrom.transform(nmap, X_test)
    else:
        F_test = X_test
    model = serialization.load_model(model_path)
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
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "predictions.csv"
    with path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(
            ["sample_index", "true_label", "predicted_label"]
            + [f"{column}_{int(lab)}" for lab in labels]
        )
        for i in range(F_test.shape[1]):
            writer.writerow(
                [i, int(test.labels[i]), int(pred[i])]
                + [repr(v) for v in values[:, i]]
            )
    acc = float(np.mean(pred == test.labels))
    print(f"accuracy {acc:.4f}; wrote {path}")
    return 0


def cmd_experiment(cfg) -> int:
    from pathlib import Path

    from . import experiment

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


def cmd_sweep(cfg, axis: str, values_arg: str) -> int:
    from pathlib import Path

    from . import experiment

    values = [float(v) for v in values_arg.split(",") if v.strip()]
    rows = experiment.run_sweep(cfg, axis, values)
    out = Path(cfg.output_dir)
    experiment.write_csv(rows, out / "sweep.csv")
    experiment.write_manifest(cfg, out / "manifest.json",
                              {"stage": "sweep", "axis": axis, "values": values})
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


def cmd_approx_error(cfg) -> int:
    """Normalized kernel-approximation error of the configured sampler at
    the configured landmark count (0.1 N if none is set), against the exact
    kernel matrix."""
    from pathlib import Path

    from . import experiment
    from .kernels import kernel_matrix
    from .nystrom import approximation_error, nystrom_kernel_approximation
    from .sampling import SamplerSpec, select_landmarks

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
        K_approx = nystrom_kernel_approximation(
            cfg.kernel, train.samples, landmarks
        )
        rows.append({
            "sampler": cfg.sampler_method,
            "c_over_N": round(c / train.n, 6),
            "repeat": r,
            "approx_error": approximation_error(K, K_approx),
        })
    out = Path(cfg.output_dir)
    experiment.write_csv(rows, out / "approx_error.csv")
    experiment.write_manifest(cfg, out / "manifest.json",
                              {"stage": "approx-error"})
    print(f"wrote {len(rows)} rows to {out / 'approx_error.csv'}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    cfg = load_config(args)
    if args.command == "preprocess":
        return cmd_preprocess(cfg)
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "classify":
        return cmd_classify(cfg, args.model, args.map)
    if args.command == "experiment":
        return cmd_experiment(cfg)
    if args.command == "sweep":
        return cmd_sweep(cfg, args.axis, args.values)
    if args.command == "approx-error":
        return cmd_approx_error(cfg)
    if args.command == "lcksvd":
        cfg.learner = {**cfg.learner, "type": "lcksvd"}
        return cmd_experiment(cfg)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
