"""Predictions and learning-objective traces of the benchmark's input sets,
hashed, so that a claim that a change keeps results bit-identical can be
re-run. Run from a checkout's root:

    python3 scalebench/identity.py --out change.json
    python3 scalebench/identity.py --src ../parent/src --out parent.json
    python3 scalebench/identity.py --compare parent.json change.json

A run covers every perfbench workload at workload seeds 1 and 2, six input
sets each (36 sets), and calls ``experiment.run_single`` once per set with
run seed 7 and one BLAS thread. It keeps the predictions and every learning
objective trace with perfbench's own capture and tracer, imported from
``perfbench/`` and left unchanged, and writes them with their SHA-256
digests: per set, per workload and over all sets. ``--compare`` prints, per
workload, how many predictions and how many sets' traces differ between two
such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEEDS = (1, 2)
RUN_SEED = 7

sys.path.insert(0, str(PERFBENCH))
import run as perfbench_run  # noqa: E402  perfbench/run.py, not scalebench's


def digest(value) -> str:
    """SHA-256 of the value's canonical JSON text; floats are written with
    repr, so equal digests mean bit-equal numbers."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def collect(src: str) -> dict:
    """Predictions, objective traces and accuracy of every input set, run
    with the library under ``src``."""
    perfbench_run.pin_blas_threads()  # before numpy is first imported
    sys.path.insert(0, src)
    import bench
    import tracer

    sets = {}
    for name, workload in bench.WORKLOADS.items():
        config = workload.config()
        for seed in SEEDS:
            for data_seed, train, test in bench.input_sets(workload, seed):
                # the tracer patches the originals before Capture wraps them
                with tracer.Tracer() as trace, bench.Capture() as capture:
                    row = bench.experiment.run_single(config, train, test, RUN_SEED)
                predictions = capture.predictions.tolist()
                traces = trace.objective_traces[0]
                sets[f"{name}/{data_seed}"] = {
                    "workload": name,
                    "accuracy": row["accuracy"],
                    "predictions_sha256": digest(predictions),
                    "traces_sha256": digest(traces),
                    "predictions": predictions,
                    "traces": traces,
                }
    return sets


def summary(sets: dict) -> dict:
    """Digests over the per-set digests, per workload and over all sets."""
    out = {}
    for workload in [None, *dict.fromkeys(s["workload"] for s in sets.values())]:
        chosen = [s for s in sets.values() if workload in (None, s["workload"])]
        out[workload or "all"] = {
            "sets": len(chosen),
            "predictions": sum(len(s["predictions"]) for s in chosen),
            "predictions_sha256": digest([s["predictions_sha256"] for s in chosen]),
            "traces_sha256": digest([s["traces_sha256"] for s in chosen]),
        }
    return out


def compare(a: dict, b: dict) -> list[str]:
    """One line per workload: differing predictions and differing traces."""
    if a["sets"].keys() != b["sets"].keys():
        raise SystemExit("the two files hold different input sets")
    counts = {}
    for key, x in a["sets"].items():
        y = b["sets"][key]
        row = counts.setdefault(x["workload"], [0, 0, 0, 0, 0.0, 0.0])
        row[0] += sum(p != q for p, q in zip(x["predictions"], y["predictions"]))
        row[1] += len(x["predictions"])
        row[2] += x["traces"] != y["traces"]
        row[3] += 1
        row[4] += x["accuracy"]
        row[5] += y["accuracy"]
    return [
        f"{workload}: {d} of {n} predictions differ; traces differ on {t} of "
        f"{s} sets; mean accuracy {acc_a / s:.5f} -> {acc_b / s:.5f}"
        for workload, (d, n, t, s, acc_a, acc_b) in counts.items()
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the library source to run (default: this checkout's)")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two files this script wrote")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        print("\n".join(compare(a, b)))
        return 0
    if args.out is None:
        ap.error("give --out, or --compare with two files")
    sets = collect(args.src)
    result = {
        "what": "predictions and objective traces of perfbench's input sets",
        "seeds": list(SEEDS),
        "run_seed": RUN_SEED,
        "blas_threads": perfbench_run.BLAS_THREADS,
        "summary": summary(sets),
        "sets": sets,
    }
    args.out.write_text(json.dumps(result) + "\n")
    for workload, s in result["summary"].items():
        print(f"{workload}: {s['sets']} sets, {s['predictions']} predictions, "
              f"predictions {s['predictions_sha256'][:16]}, "
              f"traces {s['traces_sha256'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
