"""Times of the two eigensolvers ``nystrom._top_eigpairs`` chooses between,
on the benchmark's landmark matrices W, across k/c. Run from a checkout's
root:

    python3 scalebench/topk.py --out topk.json

For each perfbench workload with landmarks (``lkdl_q3``: c = 400;
``landmarks_q1``: c = 800) and data seeds 1-3, W is the kernel matrix of
the k-means landmarks of run seed 7. For c/k in RATIOS the script times, in
one process with one BLAS thread (median of REPEATS calls each):

- ``eigh_s``: the full ``np.linalg.eigh`` of W, which the parent used;
- ``lanczos_s``: ``_lanczos_top`` alone, on W symmetrized beforehand as
  ``_top_eigpairs`` does, also where the library would not take it, and
  whether it returned None (not converged within c/2 basis vectors);
- ``library_s``: ``_top_eigpairs`` itself, called as ``fit_from_landmarks``
  calls it, on whichever path it takes (``path``), fallback included.

``LANCZOS_C_PER_K`` was set from these rows; one row each side of it shows
the switch. It is not the gated benchmark; ``perfbench/`` is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("lkdl_q3", "landmarks_q1")
DATA_SEEDS = (1, 2, 3)
RUN_SEED = 7
RATIOS = (16, 12, 10, 8, 6)
REPEATS = 5

sys.path.insert(0, str(PERFBENCH))
import run as perfbench_run  # noqa: E402  perfbench/run.py, not scalebench's


def median_time(call):
    """Median wall time of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        result = call()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def rows():
    import bench
    import numpy as np

    from lkdl import nystrom
    from lkdl.kernels import kernel_matrix
    from lkdl.sampling import SamplerSpec, select_landmarks

    for name in WORKLOADS:
        workload = bench.WORKLOADS[name]
        for seed in DATA_SEEDS:
            train, _ = bench.make_inputs(workload, seed)
            c = workload.config().landmark_count(train.n)
            spec = SamplerSpec("kmeans", c, RUN_SEED)
            X_R = select_landmarks(train.samples, spec, bench.KERNEL).X_R
            W = kernel_matrix(bench.KERNEL, X_R, X_R)
            eigh_s, _ = median_time(lambda: np.linalg.eigh(W))
            Ws = (W + W.T) / 2.0  # as _top_eigpairs passes it
            for ratio in RATIOS:
                k = c // ratio
                lanczos_s, pairs = median_time(
                    lambda: nystrom._lanczos_top(Ws, k))
                library_s, _ = median_time(
                    lambda: nystrom._top_eigpairs(W, k, "W", psd=True))
                yield {
                    "workload": name, "data_seed": seed, "c": c, "k": k,
                    "path": ("lanczos" if nystrom.LANCZOS_C_PER_K * k <= c
                             else "eigh"),
                    "eigh_s": eigh_s, "lanczos_s": lanczos_s,
                    "lanczos_converged": pairs is not None,
                    "library_s": library_s,
                }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the library source to run (default: this checkout's)")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    perfbench_run.pin_blas_threads()  # before numpy is first imported
    sys.path.insert(0, args.src)
    import bench

    from lkdl import nystrom

    out = []
    for row in rows():
        out.append(row)
        print(f"{row['workload']} seed {row['data_seed']} c {row['c']} "
              f"k {row['k']}: eigh {row['eigh_s'] * 1e3:.1f} ms, lanczos "
              f"{row['lanczos_s'] * 1e3:.1f} ms "
              f"({'converged' if row['lanczos_converged'] else 'not converged'}"
              f"), library {row['library_s'] * 1e3:.1f} ms on {row['path']}",
              flush=True)
    result = {
        "what": "full eigh against the top-k path on perfbench's W across "
                "k/c: median wall times, one BLAS thread",
        "lanczos_c_per_k": nystrom.LANCZOS_C_PER_K,
        "run_seed": RUN_SEED, "repeats": REPEATS,
        "environment": bench.environment(Path(args.src).resolve().parent),
        "rows": out,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
