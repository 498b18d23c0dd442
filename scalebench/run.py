"""Stage timings of the lkdl pipeline and the exact-kernel baseline across
training-set sizes, for one or more source trees, written to one JSON file.
Run from a checkout's root:

    python3 scalebench/run.py --tree parent=../parent --tree change=. \\
        --out BENCH_<n>.json

Each tree is a checkout whose ``src/`` holds the library. Every cell
(pipeline, tree, N, repeat) runs in a fresh interpreter with one BLAS
thread, warms up on a small input, then calls the public stage functions
one after another and times each. An ``lkdl`` cell times k-means++ seeding
alone (``kmeans(max_iters=0)``), landmark selection (seeding plus Lloyd;
``lloyd_s`` is their difference), W and its eigendecomposition
(``fit_from_landmarks``), ``transform`` of the train and test sets,
per-class learning and classification. A ``kernel_baseline`` cell times
``kernel_baseline_train`` and ``kernel_baseline_classify``. The trees
alternate in order from one repeat to the next, so a drift in the
machine's speed falls on both. Each row holds the median over the repeats, every sample, the
accuracy and the cell's peak RSS; the file also records each tree's
environment as perfbench records it (threads, BLAS, versions, git SHA)
and a SHA-256 over its ``src/lkdl/*.py``, which tells apart trees that
share a commit but not their working files.

The inputs, the kernel and the learner settings are perfbench's ``lkdl_q3``
workload (c/N = 0.2, k = 24, q = 3) with N set per row, data seed 1 and run
seed 7, for both pipelines; this script imports them from ``perfbench/``.
It is not the gated benchmark; ``perfbench/`` is.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SIZES = (2000, 4000, 8000, 16000)
REPEATS = 3
WORKLOAD = "lkdl_q3"
DATA_SEED, RUN_SEED = 1, 7
STAGES = {
    "lkdl": ("seeding_s", "select_s", "lloyd_s", "eigh_s", "transform_s",
             "learn_s", "classify_s", "total_s"),
    "kernel_baseline": ("train_s", "classify_s", "total_s"),
}

sys.path.insert(0, str(PERFBENCH))
import run as perfbench_run  # noqa: E402  perfbench/run.py, not this file


def workload(bench, n_train: int):
    """perfbench's workload with N = n_train training samples."""
    return dataclasses.replace(
        bench.WORKLOADS[WORKLOAD], n_per_class=n_train // bench.N_CLASSES
    )


def source_digest(tree: Path) -> str:
    """SHA-256 over the ``sha256sum`` lines of the tree's src/lkdl/*.py."""
    lines = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted((tree / "src" / "lkdl").glob("*.py"))
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def run_cell(pipeline: str, n: int) -> dict:
    """Stage times, accuracy and peak RSS of one pipeline run on N = n
    training samples (lkdl is imported from the path set up by main)."""
    import bench
    import numpy as np

    from lkdl import experiment, nystrom
    from lkdl.classify import classify_batch, train_per_class
    from lkdl.sampling import SamplerSpec, kmeans, select_landmarks

    def baseline(n_train):
        w = workload(bench, n_train)
        train, test = bench.make_inputs(w, DATA_SEED)
        learner = w.learner
        t0 = perf_counter()
        model = experiment.kernel_baseline_train(
            train.samples, train.labels, bench.KERNEL,
            learner["m_per_class"], learner["q"], learner["iterations"],
            seed=RUN_SEED,
        )
        t1 = perf_counter()
        pred = experiment.kernel_baseline_classify(model, test.samples)
        t2 = perf_counter()
        times = dict(train_s=t1 - t0, classify_s=t2 - t1, total_s=t2 - t0)
        return times, float(np.mean(pred == test.labels))

    def lkdl(n_train):
        w = workload(bench, n_train)
        train, test = bench.make_inputs(w, DATA_SEED)
        c = w.config().landmark_count(n_train)
        learner = w.learner
        t0 = perf_counter()
        kmeans(train.samples, c, RUN_SEED, max_iters=0)
        t1 = perf_counter()
        landmarks = select_landmarks(
            train.samples, SamplerSpec("kmeans", c, RUN_SEED), bench.KERNEL
        )
        t2 = perf_counter()
        nmap = nystrom.fit_from_landmarks(landmarks, bench.KERNEL, min(w.k, c))
        t3 = perf_counter()
        F_train = nystrom.transform(nmap, train.samples)
        F_test = nystrom.transform(nmap, test.samples)
        t4 = perf_counter()
        model = train_per_class(
            F_train, train.labels, learner["m_per_class"], learner["q"],
            learner["iterations"], seed=RUN_SEED,
        )
        t5 = perf_counter()
        pred = classify_batch(model, F_test)
        t6 = perf_counter()
        times = dict(seeding_s=t1 - t0, select_s=t2 - t1,
                     lloyd_s=(t2 - t1) - (t1 - t0), eigh_s=t3 - t2,
                     transform_s=t4 - t3, learn_s=t5 - t4,
                     classify_s=t6 - t5, total_s=t6 - t1)
        return times, float(np.mean(pred == test.labels))

    once = {"lkdl": lkdl, "kernel_baseline": baseline}[pipeline]
    once(400)  # warm-up: first-call costs land outside the timed cell
    times, accuracy = once(n)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"times": times, "accuracy": accuracy, "peak_rss_mb": peak_kb / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[],
                    metavar="LABEL=PATH", help="a checkout to time, under a label")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--cell", nargs=2, metavar=("PIPELINE", "N"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    perfbench_run.pin_blas_threads()  # before numpy; cells inherit it
    if args.cell is not None:
        sys.path.insert(0, args.src)
        pipeline, n = args.cell
        print(json.dumps(run_cell(pipeline, int(n))))
        return 0
    if not args.tree or args.out is None:
        ap.error("give at least one --tree and --out")

    trees = {label: Path(path).resolve()
             for label, path in (t.split("=", 1) for t in args.tree)}
    samples = {}
    for pipeline in STAGES:
        for n in SIZES:
            for r in range(REPEATS):
                order = list(trees) if r % 2 == 0 else list(trees)[::-1]
                for label in order:
                    out = subprocess.run(
                        [sys.executable, __file__, "--cell", pipeline, str(n),
                         "--src", str(trees[label] / "src")],
                        capture_output=True, text=True, check=True,
                    ).stdout.splitlines()[-1]
                    samples.setdefault((pipeline, label, n), []).append(
                        json.loads(out)
                    )
                    print(pipeline, label, n, r, out, flush=True)

    sys.path.insert(0, str(ROOT / "src"))
    import bench

    rows = []
    for (pipeline, label, n), cells in samples.items():
        w = workload(bench, n)
        stages = STAGES[pipeline]
        rows.append({
            "pipeline": pipeline, "tree": label, "N": n,
            **({"c": w.config().landmark_count(n), "k": w.k}
               if pipeline == "lkdl" else {}),
            "q": w.learner["q"], "repeats": len(cells),
            "median_s": {s: statistics.median(c["times"][s] for c in cells)
                         for s in stages},
            "samples_s": {s: [c["times"][s] for c in cells] for s in stages},
            "accuracy": [c["accuracy"] for c in cells],
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cells),
        })
    w = bench.WORKLOADS[WORKLOAD]
    result = {
        "what": "lkdl and kernel_baseline stage times across N: median "
                "over repeats, one BLAS thread",
        "config": {"workload": WORKLOAD, "classes": bench.N_CLASSES,
                   "p": bench.P, "spread": bench.SPREAD,
                   "kernel": dataclasses.asdict(bench.KERNEL),
                   "c_over_N": w.c_fraction, "k": w.k, **w.learner,
                   "data_seed": DATA_SEED, "run_seed": RUN_SEED},
        "trees": {label: {**bench.environment(path),
                          "src_sha256": source_digest(path)}
                  for label, path in trees.items()},
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
