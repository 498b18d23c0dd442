"""Benchmark of the lkdl library, run from the root of a checkout:

    python3 perfbench/run.py --workload lkdl_q3 --seed 1 --seconds 30 --trace 0

It imports the library from ``src/`` of the same checkout, generates the
workload's inputs from ``--seed``, warms up once, then repeats
``experiment.run_single`` for ``--seconds`` and checks every run's outputs.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The untraced runs'
times are corrected for the machine's speed while they ran (``speed.py``). ``--workload all`` runs
every workload in its own process and adds the paper's claim (lkdl against
the exact-kernel baseline) as derived figures. Results, the environment and
the spans of traced runs are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: BLAS threads, fixed before numpy is imported: the reduction order depends
#: on the thread count and flips greedy-pursuit ties, so accuracy repeats
#: exactly only for a fixed count.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> bool:
    """Put this checkout's ``src/`` first on the import path; False when the
    checkout holds no library source."""
    if not (SRC / "lkdl" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def print_metrics(prefix: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{prefix:<20} {name:<30} {value:>14.6g} {unit}")


def run_one(args, bench) -> int:
    workload = bench.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), SRC,
        spans_path=OUT / f"{workload.name}.spans.jsonl" if args.trace else None,
    )
    env = bench.environment(ROOT)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in result["problems"]:
        print(f"{workload.name:<20} FAILED CHECK: {problem}")
    times = [r.get("run_s", r["wall"]) for r in result["runs"]]
    print(
        f"{workload.name:<20} {len(times)} timed runs, warm-up "
        f"{result['warmup_s']:.3f} s excluded; "
        + bench.percentile_note(times)
    )
    if "raw_medians" in result:
        print(
            f"{workload.name:<20} wall clock, not speed-corrected (medians): "
            + ", ".join(f"{k} {v:.6g}" for k, v in result["raw_medians"].items())
        )
    print_metrics(workload.name, result["metrics"])
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"{workload.name:<20} {'failed_frac':<30} {failed_frac:>14.6g} fraction"
        f" ({result['failed']}/{result['attempted']} runs)"
    )
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env, **result}, indent=1, default=str
    ))
    correct = result["failed"] == 0 and bool(result["metrics"])
    emit(correct, result["attempted"], result["failed"], result["metrics"])
    return 0 if correct else 1


def run_all(args, bench) -> int:
    """Each workload in a process of its own, so that peak memory is its
    own; then the paper's claim as derived figures (not gated)."""
    results = {}
    for name in bench.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {
                "correct": False, "attempted": 1, "failed": 1, "metrics": {}
            }
    metrics = {
        f"{name}.{metric}": (m["value"], m["unit"])
        for name, r in results.items()
        for metric, m in r["metrics"].items()
    }
    derived = bench.paper_claim(metrics)
    print_metrics("derived", derived)
    metrics.update(derived)
    correct = all(r["correct"] for r in results.values())
    emit(
        correct,
        sum(r["attempted"] for r in results.values()),
        sum(r["failed"] for r in results.values()),
        metrics,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    import bench

    if not Path(bench.experiment.__file__).resolve().is_relative_to(SRC):
        print("perfbench: lkdl was not imported from this checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in bench.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(bench.WORKLOADS)} or all"
        )
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
