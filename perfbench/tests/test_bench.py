"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import importlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench
import run
import speed
from tracer import LAYERS, Tracer

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, **changes):
    learner = dict(bench.WORKLOADS[name].learner, m_per_class=8, iterations=2)
    changes = {"n_per_class": 40, "learner": learner, "accuracy_floor": 0.0, **changes}
    return dataclasses.replace(bench.WORKLOADS[name], **changes)


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "WORKLOADS", {n: tiny(n) for n in bench.WORKLOADS})
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny_bench, capsys, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for name in bench.WORKLOADS:
        code = run.main([
            "--workload", name, "--seed", "3", "--seconds", "0.05",
            "--trace", str(trace),
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for metric in wanted:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(
                line.split()[1:2] == [metric["name"]]
                and line.split()[3] == metric["unit"]
                for line in lines[:-1]
            ), metric["name"]
        assert any(l.split()[1:2] == ["failed_frac"] for l in lines[:-1])


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_self_times_cover_most_of_each_run(name):
    result = bench.run_workload(tiny(name), 5, 0.3, True, run.SRC)
    assert result["failed"] == 0 and result["per_run"]
    for r in result["per_run"]:
        self_times = [r[f"{layer}.self_s"] for layer in LAYERS]
        assert min(self_times) >= -1e-12
        assert 0.5 * r["run.wall_s"] < sum(self_times) <= r["run.wall_s"]


def test_fixed_seed_reproduces_accuracy_and_kernel_entries():
    w = tiny("landmarks_q1")
    a, b = (bench.run_workload(w, 11, 0.0, True, run.SRC) for _ in range(2))
    assert a["runs"][0]["accuracy"] == b["runs"][0]["accuracy"]
    assert a["metrics"]["kernels.entries"] == b["metrics"]["kernels.entries"]
    untraced = bench.run_workload(w, 11, 0.0, False, run.SRC)
    assert untraced["metrics"]["accuracy"][0] == a["runs"][0]["accuracy"]


def test_speed_probe_scales_by_the_chunk_time_and_drops_it():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [(1.0, 5 * ref, 2 * ref), (1.5, 5 * ref, 2 * ref), (3.0, 1.0, 1.0)]
    slowness, at_reference = probe.scale(0.5, 2.0)
    assert slowness == pytest.approx(2.0)
    assert at_reference(0.5, 2.0) == pytest.approx((1.5 - 10 * ref) / 2)
    assert at_reference(1.2, 2.0) == pytest.approx((0.8 - 5 * ref) / 2)


def test_untraced_runs_are_sampled_and_the_alarm_restored():
    before = signal.getsignal(signal.SIGALRM)
    result = bench.run_workload(tiny("lkdl_q3"), 4, 0.3, False, run.SRC)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["failed"] == 0
    for r in result["runs"]:
        assert r["slowness"] > 0
        assert 0 < r["run_s"] * r["slowness"] <= r["wall"]
        assert r["train_s"] > 0 and r["classify_s"] > 0
        assert r["train_s"] + r["classify_s"] == pytest.approx(r["run_s"], rel=0.25)


def test_failed_checks_are_counted_and_the_run_goes_on():
    w = tiny("lkdl_q3", accuracy_floor=1.01)
    result = bench.run_workload(w, 2, 0.2, False, run.SRC)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_traced_checks_catch_rising_objective_and_wrong_k():
    w = tiny("lkdl_q3")
    _, test = bench.make_inputs(w, 0)
    row = {"accuracy": 1.0}
    tracer = SimpleNamespace(
        objective_traces={0: [[3.0, 2.0, 2.5]]},
        map_dims={0: [w.requested_k() - 1]},
    )
    problems = bench.check_run(w, test, row, test.labels, None, tracer, 0)
    assert len(problems) == 2


def test_tracer_wraps_names_bound_by_from_import_and_restores_them():
    dict_learning = importlib.import_module("lkdl.dict_learning")
    experiment = importlib.import_module("lkdl.experiment")
    sparse_coding = importlib.import_module("lkdl.sparse_coding")
    original = sparse_coding.omp_batch
    with Tracer() as tracer:
        assert tracer.missing == []
        for mod in (sparse_coding, dict_learning, importlib.import_module("lkdl.classify")):
            assert mod.omp_batch.__wrapped__ is original
        assert experiment.komp.__wrapped__ is sparse_coding.komp.__wrapped__
    assert dict_learning.omp_batch is original
    assert not hasattr(experiment.komp, "__wrapped__")


def test_paper_claim_is_a_ratio_and_a_gap():
    metrics = {
        "lkdl_q3.run_s": (3.0, "s"), "kernel_baseline_q3.run_s": (2.0, "s"),
        "lkdl_q3.accuracy": (0.93, "fraction"),
        "kernel_baseline_q3.accuracy": (0.97, "fraction"),
    }
    derived = bench.paper_claim(metrics)
    assert derived["run_s_ratio.lkdl_q3_over_kernel_baseline_q3"] == (1.5, "ratio")
    gap = derived["accuracy_gap.kernel_baseline_q3_minus_lkdl_q3"]
    assert gap == (pytest.approx(0.04), "fraction")


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"], "--workload", "lkdl_q3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_note_keeps_ten_runs_beyond_the_percentile():
    assert "median" in bench.percentile_note([1.0] * 19)
    walls = [float(i) for i in range(1, 31)]
    assert bench.percentile_note(walls).startswith("run_s p66 = ")
