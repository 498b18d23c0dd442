"""In-memory span tracer that wraps lkdl's public functions from outside.

Each wrapped call records a span ``[name, layer, start, end, parent, run]``;
``layer`` is the module that defines the function. A function is replaced on
its home module *and* on every lkdl module that bound it with
``from ... import``, because callers look the name up in their own module
globals; wrapping only the home module would leave those calls untraced and
the spans would never nest.

Counts that a later change may move (kernel entries, coded columns, replaced
atoms, the effective embedding dimension) are read from the wrapped calls'
return values, so they are measured where the work happens.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Home module -> public functions wrapped there. ``run_single`` is the root
#: span of a run, so the layers' self times add up to the traced run time.
TRACED = {
    "kernels": ("kernel_matrix", "kernel_diagonal"),
    "sampling": ("select_landmarks", "kmeans"),
    "nystrom": ("fit", "fit_from_landmarks", "transform"),
    "sparse_coding": ("omp_batch", "komp_batch", "komp", "omp"),
    "dict_learning": (
        "learn", "kernel_mod_learn", "ksvd_update", "mod_update",
        "clear_dictionary", "clear_coefficient_dictionary",
    ),
    "classify": ("train_per_class", "classify_batch"),
    "experiment": (
        "run_single", "preprocess",
        "kernel_baseline_train", "kernel_baseline_classify",
    ),
}

LAYERS = tuple(TRACED)

#: Per-layer metrics a traced run reports, with their units.
PER_LAYER_UNITS = {
    "sparse_coding.self_s": "s",
    "sparse_coding.calls": "count",
    "sparse_coding.columns": "count",
    "sparse_coding.nonzeros": "count",
    "sparse_coding.columns_per_s": "1/s",
    "sampling.self_s": "s",
    "kernels.self_s": "s",
    "kernels.entries": "count",
    "nystrom.self_s": "s",
    "nystrom.k_effective": "count",
    "dict_learning.self_s": "s",
    "dict_learning.replaced_atoms": "count",
    "classify.self_s": "s",
    "experiment.self_s": "s",
    "trace.overhead_s": "s",
    "run.cpu_s": "s",
}


def _module(name: str):
    # ``lkdl.classify`` as an attribute is the re-exported classify()
    # function, not the submodule, so modules are fetched by import path
    return importlib.import_module(f"lkdl.{name}")


def _count_kernels(counts, result):
    counts["kernels.entries"] += result.size


def _count_dense_codes(counts, result):
    counts["sparse_coding.calls"] += 1
    counts["sparse_coding.columns"] += result.shape[1]
    counts["sparse_coding.nonzeros"] += int((result != 0).sum())


def _count_code(counts, result):
    counts["sparse_coding.calls"] += 1
    counts["sparse_coding.columns"] += 1
    counts["sparse_coding.nonzeros"] += len(result.support)


COUNTERS = {
    "kernel_matrix": _count_kernels,
    "kernel_diagonal": _count_kernels,
    "omp_batch": _count_dense_codes,
    "komp_batch": _count_dense_codes,
    "omp": _count_code,
    "komp": _count_code,
}


class Tracer:
    """Patches the functions in ``TRACED`` while used as a context manager.

    ``run`` is the current run id; set it before each traced run. Results the
    benchmark checks are kept per run: every ``LearnReport`` objective trace
    and every fitted ``NystromMap``'s ``k``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.missing: list[str] = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.overhead = defaultdict(float)
        self.objective_traces = defaultdict(list)
        self.map_dims = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self):
        wrappers = {}
        for home, names in TRACED.items():
            mod = _module(home)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{home}.{name}")
                    continue
                wrappers[id(fn)] = self._wrap(fn, home, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "lkdl" and not modname.startswith("lkdl."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            run = self.run
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, run]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            self._observe(name, run, result, counter)
            self.overhead[run] += perf_counter() - t_in - (span[3] - span[2])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _observe(self, name, run, result, counter):
        counts = self.counts[run]
        if counter is not None:
            counter(counts, result)
        if name in ("learn", "kernel_mod_learn"):
            report = result[2]
            counts["dict_learning.replaced_atoms"] += report.replaced_atoms
            self.objective_traces[run].append(list(report.objective_trace))
        elif name in ("fit", "fit_from_landmarks"):
            self.map_dims[run].append(result.k)

    def self_times(self) -> dict:
        """Run id -> layer -> summed self time (span time minus the time
        of its child spans)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for i, s in enumerate(self.spans):
            out[s[5]][s[1]] += (s[3] - s[2]) - child[i]
        return out

    def run_metrics(self, run: int, self_s: dict) -> dict:
        """Per-layer metrics of one run from its layer self times."""
        counts = self.counts[run]
        dims = self.map_dims[run]
        coding = self_s["sparse_coding"]
        out = {f"{layer}.self_s": t for layer, t in self_s.items()}
        out.update({
            "sparse_coding.calls": counts["sparse_coding.calls"],
            "sparse_coding.columns": counts["sparse_coding.columns"],
            "sparse_coding.nonzeros": counts["sparse_coding.nonzeros"],
            "sparse_coding.columns_per_s": (
                counts["sparse_coding.columns"] / coding if coding > 0 else 0.0
            ),
            "kernels.entries": counts["kernels.entries"],
            "nystrom.k_effective": dims[-1] if dims else 0,
            "dict_learning.replaced_atoms": counts["dict_learning.replaced_atoms"],
            "trace.overhead_s": self.overhead[run],
        })
        return out

    def write_spans(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = dict(zip(keys, s), id=i)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
