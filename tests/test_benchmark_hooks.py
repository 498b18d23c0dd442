"""The names the benchmark patches on ``lkdl.experiment`` stay in the path
``run_single`` takes.

The benchmark's tracer (``perfbench/tracer.py``) wraps functions by module
attribute, and its prediction capture replaces ``classify_batch`` and
``kernel_baseline_classify`` on ``experiment``; both see a run only if
``run_single`` looks these names up in the module at call time. The tracer
source is read, not imported, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from lkdl import experiment

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _run(pipeline):
    cfg = experiment.ExperimentConfig.from_dict({
        "dataset": {"synthetic": "gaussian_mixture", "n_per_class": 30,
                    "n_classes": 2, "p": 5, "seed": 1},
        "kernel": {"kind": "gaussian", "sigma": 2.0},
        "sampler": {"method": "kmeans", "c_fraction": 0.3},
        "k": 8,
        "pipeline": pipeline,
        "learner": {"m_per_class": 6, "q": 2, "iterations": 2},
    })
    train, test = experiment.load_split(cfg)
    return experiment.run_single(cfg, train, test, seed=3), test


@pytest.mark.parametrize("pipeline, trained, classified", [
    ("linear", "train_per_class", "classify_batch"),
    ("lkdl", "train_per_class", "classify_batch"),
    ("kernel_baseline", "kernel_baseline_train", "kernel_baseline_classify"),
])
def test_tracer_sees_every_stage_of_run_single(pipeline, trained, classified):
    with _load_tracer().Tracer() as tracer:
        assert tracer.missing == []
        _run(pipeline)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "run_single"
    assert trained in names and classified in names
    # every other span nests under the run
    assert all(span[4] is not None for span in tracer.spans[1:])


@pytest.mark.parametrize("pipeline, hook", [
    ("linear", "classify_batch"),
    ("lkdl", "classify_batch"),
    ("kernel_baseline", "kernel_baseline_classify"),
])
def test_run_single_predicts_through_the_patched_hooks(monkeypatch, pipeline, hook):
    # patched as the benchmark's prediction capture patches them
    captured = {}
    for name in ("classify_batch", "kernel_baseline_classify"):
        def capture(*args, _name=name, _fn=getattr(experiment, name)):
            captured[_name] = _fn(*args)
            return captured[_name]

        monkeypatch.setattr(experiment, name, capture)
    row, test = _run(pipeline)
    assert list(captured) == [hook]
    assert row["accuracy"] == float(np.mean(captured[hook] == test.labels))
