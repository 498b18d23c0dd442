"""Workloads, set-up timing, timed runs and output checks of the benchmark.

The library is driven only through its public functions: inputs come from
``datasets``, every timed run is one ``experiment.run_single`` call. Import
this module only after the BLAS thread count is fixed (``run.py`` does it).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np
import scipy

from lkdl import datasets
from lkdl.kernels import KernelSpec

from speed import SpeedProbe
from tracer import PER_LAYER_UNITS, Tracer

experiment = importlib.import_module("lkdl.experiment")

#: 4-class Gaussian mixture in p=20 with the spread raised so accuracy sits
#: clearly below 1.0; test size equals train size.
N_CLASSES, P, SPREAD = 4, 20, 4.0
KERNEL = KernelSpec(kind="gaussian", sigma=16.0)
#: Set-up is repeated this many times per process and its median reported.
SETUP_REPEATS = 3
#: Input sets drawn per workload seed; timed runs cycle through them. The work
#: of a run and its accuracy depend on the data (k-means runs to convergence),
#: so a median time and a mean accuracy over several draws vary less from seed
#: to seed than one draw does.
INPUT_SETS = 6
#: A learning objective may rise by this much (as in the library's tests).
OBJECTIVE_RTOL = OBJECTIVE_ATOL = 1e-9

END_TO_END_UNITS = {
    "run_s": "s",
    "train_s": "s",
    "classify_s": "s",
    "accuracy": "fraction",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    n_per_class: int
    learner: dict
    accuracy_floor: float
    k: int = 24
    c_fraction: float = 0.2

    def config(self):
        return experiment.ExperimentConfig(
            dataset={}, kernel=KERNEL, sampler_method="kmeans",
            c_fraction=self.c_fraction, k=self.k, pipeline=self.pipeline,
            learner=dict(self.learner),
        )

    def requested_k(self) -> int:
        n_train = N_CLASSES * self.n_per_class
        return min(self.k, self.config().landmark_count(n_train))


# why each workload exists is recorded in NOTES.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lkdl_q3", "lkdl", 500,
            {"m_per_class": 50, "q": 3, "iterations": 5},
            accuracy_floor=0.85,
        ),
        Workload(
            "kernel_baseline_q3", "kernel_baseline", 500,
            {"m_per_class": 50, "q": 3, "iterations": 5},
            accuracy_floor=0.85,
        ),
        Workload(
            "landmarks_q1", "lkdl", 2000,
            {"m_per_class": 50, "q": 1, "iterations": 5},
            accuracy_floor=0.85, k=64, c_fraction=0.1,
        ),
    )
}


def make_inputs(workload: Workload, seed: int):
    """(train, test) drawn from one mixture, as ``experiment.load_split``
    does, so both splits share the class centers."""
    full = datasets.synth_gaussian_mixture(
        2 * workload.n_per_class, N_CLASSES, P, spread=SPREAD, seed=seed
    )
    return datasets.split_per_class(full, workload.n_per_class)


def input_sets(workload: Workload, seed: int) -> list:
    """The INPUT_SETS (data seed, train, test) triples of a workload seed;
    distinct workload seeds never share a data seed."""
    return [
        (s, *make_inputs(workload, s))
        for s in range(seed * INPUT_SETS, (seed + 1) * INPUT_SETS)
    ]


IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import lkdl.experiment"


def time_setup(workload: Workload, seed: int, src):
    """Median over SETUP_REPEATS of a fresh interpreter importing the
    library plus generating the inputs. Returns (setup_s, input sets)."""
    samples, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            check=True, timeout=120,
        )
        t_import = perf_counter() - t0
        t0 = perf_counter()
        inputs = input_sets(workload, seed)
        samples.append(t_import + perf_counter() - t0)
    return statistics.median(samples), inputs


class Capture:
    """Keeps the predictions ``run_single`` computes but does not return, and
    when it started and finished computing them: ``run_single`` reports its
    phase times rounded to milliseconds."""

    NAMES = ("classify_batch", "kernel_baseline_classify")

    def __init__(self):
        self.predictions = None
        self.started = self.ended = None
        self._saved = {}

    def __enter__(self):
        for name in self.NAMES:
            fn = getattr(experiment, name)
            self._saved[name] = fn
            setattr(experiment, name, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(experiment, name, fn)
        return False

    def _wrap(self, fn):
        def capture(*args, **kwargs):
            self.started = perf_counter()
            self.predictions = fn(*args, **kwargs)
            self.ended = perf_counter()
            return self.predictions

        return capture


@dataclass
class Record:
    #: perf_counter at the run's start, classify start, classify end and the
    #: run's end; the middle two are None if classification was not reached
    marks: tuple
    cpu: float
    row: dict
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.marks[3] - self.marks[0]

    def phases(self, measure=lambda a, b: b - a):
        """(run, train, classify) times by ``measure``(a, b); train is
        ``t_preprocess + t_train`` and classify ``t_test``, unrounded."""
        start, split, split_end, end = self.marks
        return (
            measure(start, end), measure(start, split),
            measure(split, split_end),
        )


def check_run(workload, test, row, predictions, reference, tracer, run):
    """Output checks of one run; returns the problems found."""
    problems = []
    if predictions is None or len(predictions) != test.n:
        got = None if predictions is None else len(predictions)
        problems.append(f"{got} predictions for {test.n} test samples")
    elif float(np.mean(predictions == test.labels)) != row["accuracy"]:
        problems.append("reported accuracy does not match the predictions")
    if row["accuracy"] < workload.accuracy_floor:
        problems.append(
            f"accuracy {row['accuracy']} below floor {workload.accuracy_floor}"
        )
    if reference is not None and row["accuracy"] != reference:
        problems.append(
            f"accuracy {row['accuracy']} differs from {reference} "
            "on the same inputs and seed"
        )
    if tracer is not None:
        for trace in tracer.objective_traces[run]:
            if any(
                b > a * (1 + OBJECTIVE_RTOL) + OBJECTIVE_ATOL
                for a, b in zip(trace, trace[1:])
            ):
                problems.append(f"learning objective increased: {trace}")
        dims = tracer.map_dims[run]
        if workload.pipeline == "lkdl" and not dims:
            problems.append("no Nystrom map was fitted")
        for k in dims:
            if k != workload.requested_k():
                problems.append(f"map has k={k}, requested {workload.requested_k()}")
    return problems


def attempt(workload, config, inputs, capture, tracer, run, reference):
    """One checked ``run_single`` call on the ``(seed, train, test)`` inputs;
    a raising run becomes a problem."""
    seed, train, test = inputs
    capture.predictions = capture.started = capture.ended = None
    if tracer is not None:
        tracer.run = run
    c0, t0 = process_time(), perf_counter()
    try:
        row = experiment.run_single(config, train, test, seed)
    except Exception:  # counted in ``failed``; the benchmark carries on
        traceback.print_exc()
        marks = (t0, None, None, perf_counter())
        return Record(marks, process_time() - c0, {}, ["run_single raised"])
    marks = (t0, capture.started, capture.ended, perf_counter())
    cpu = process_time() - c0
    problems = check_run(
        workload, test, row, capture.predictions, reference, tracer, run
    )
    return Record(marks, cpu, row, problems)


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, src,
    spans_path=None,
):
    """Set up, warm up once, then run for ``seconds``. Returns a result dict
    with ``attempted``, ``failed``, ``metrics`` ({name: (value, unit)}) and
    the per-run records. A traced run writes its spans to ``spans_path``;
    an untraced run samples the machine's speed and reports its times at
    reference speed (see ``speed.py``)."""
    setup_s, sets = time_setup(workload, seed, src)
    config = workload.config()
    with contextlib.ExitStack() as stack:
        # the tracer must patch the originals before Capture wraps them
        tracer = stack.enter_context(Tracer()) if trace else None
        probe = None if trace else stack.enter_context(SpeedProbe())
        capture = stack.enter_context(Capture())
        warm = attempt(workload, config, sets[0], capture, tracer, -1, None)
        # each set's first accuracy; every later run on the set must repeat it
        reference = {0: warm.row.get("accuracy")}
        records = []
        t_start = perf_counter()
        # start another run only while it is expected to end in the window
        while not records or (
            perf_counter() - t_start + statistics.median(r.wall for r in records)
            <= seconds
        ):
            i = len(records) % len(sets)
            record = attempt(
                workload, config, sets[i], capture, tracer, len(records),
                reference.get(i),
            )
            reference.setdefault(i, record.row.get("accuracy"))
            records.append(record)
    good = [r for r in records if not r.problems]
    failed = sum(1 for r in [warm, *records] if r.problems)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(records) + 1,
        "failed": failed,
        "warmup_s": warm.wall,
        "problems": [p for r in [warm, *records] for p in r.problems],
        "runs": [
            {"input_set": n % len(sets), "wall": r.wall, "cpu": r.cpu, **r.row}
            for n, r in enumerate(records)
        ],
        "metrics": {},
    }
    if not good:
        return result
    if trace:
        self_times = tracer.self_times()
        per_run = []
        for run, r in enumerate(records):
            if not r.problems:
                m = tracer.run_metrics(run, self_times[run])
                m["run.cpu_s"] = r.cpu
                m["run.wall_s"] = r.wall
                per_run.append(m)
        result["per_run"] = per_run
        result["missing_functions"] = tracer.missing
        if spans_path is not None:
            tracer.write_spans(spans_path)
        result["metrics"] = {
            k: (statistics.median(r[k] for r in per_run), u)
            for k, u in PER_LAYER_UNITS.items()
        }
    else:
        median = statistics.median
        for run, r in zip(result["runs"], records):
            if r.problems:
                continue
            run["slowness"], at_reference = probe.scale(r.marks[0], r.marks[3])
            run["train_wall"], run["classify_wall"] = r.phases()[1:]
            run["run_s"], run["train_s"], run["classify_s"] = r.phases(at_reference)
        scaled = [run for run in result["runs"] if "run_s" in run]
        values = {
            k: median(run[k] for run in scaled)
            for k in ("run_s", "train_s", "classify_s")
        }
        result["raw_medians"] = {
            k: median(run[k] for run in scaled)
            for k in ("wall", "train_wall", "classify_wall", "slowness")
        }
        values.update({
            # each set's accuracy repeats on every run of it (checked)
            "accuracy": statistics.fmean({
                run["input_set"]: run["accuracy"] for run in scaled
            }.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        })
        result["metrics"] = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    return result


def environment(root) -> dict:
    """What the numbers depend on besides the code: threads, BLAS, versions."""
    blas = None
    with contextlib.suppress(TypeError, KeyError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']}-{info['version']}"
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if (root / ".git").exists():
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def percentile_note(walls) -> str:
    """The highest run-time percentile with at least ten runs beyond it."""
    n = len(walls)
    if n < 20:
        return "run_s is their median; no higher percentile has 10 runs beyond it"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(walls, n=100)[pct - 1]
    return f"run_s p{pct} = {value:.6g} s"


def paper_claim(metrics: dict) -> dict:
    """The paper's claim as derived figures: lkdl's run time over the exact
    kernel baseline's, and the baseline's accuracy lead over lkdl."""
    try:
        lkdl_s, base_s = metrics["lkdl_q3.run_s"][0], metrics["kernel_baseline_q3.run_s"][0]
        lkdl_acc = metrics["lkdl_q3.accuracy"][0]
        base_acc = metrics["kernel_baseline_q3.accuracy"][0]
    except KeyError:
        return {}
    return {
        "run_s_ratio.lkdl_q3_over_kernel_baseline_q3": (lkdl_s / base_s, "ratio"),
        "accuracy_gap.kernel_baseline_q3_minus_lkdl_q3": (
            base_acc - lkdl_acc, "fraction"
        ),
    }
