"""Self-tests of the benchmark; run with ``python -m pytest perfbench/tests``.

The micro-profile runs go through ``run.py`` exactly as a benchmark run
does, only on the tiny ``micro`` experiment profile, so each finishes in
seconds.  Micro-scale accuracies sit near chance, so these tests check the
shape of the output, not ``correct``.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return result


def _check_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


def test_benchmark_modules_do_no_work_at_import():
    code = ("import sys; sys.path.insert(0, 'perfbench')\n"
            "import run, worker, tracing, measure, workloads, steady\n"
            "assert 'repro' not in sys.modules and 'numpy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_micro_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "0",
                            "--profile", "micro"))
    _check_metrics(result, BENCH["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["run_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_micro_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--profile", "micro")
    result = _result(proc)
    _check_metrics(result, BENCH["per_layer"])
    tags = next(json.loads(line[len("# tags "):])
                for line in proc.stdout.splitlines()
                if line.startswith("# tags "))
    assert tags["wrappers_removed"] and tags["trace_fingerprint_match"]
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert 0.5 < coverage <= 1.0
    assert 0.0 < result["metrics"]["trace.overhead_frac"]["value"] < 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tracer_with(spans) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.spans = [list(s) for s in spans]
    return tracer


def test_self_time_and_coverage_of_nested_spans():
    tracer = _tracer_with([
        ("experiments.prepare", 0.0, 1.0, -1),
        ("train.pretrain", 0.2, 0.9, 0),
        ("experiments.run_method", 1.0, 11.0, -1),
        ("learner.run", 1.5, 10.5, 2),
        ("condense", 2.0, 6.0, 3),
        ("condense.fd", 3.0, 4.0, 4),
        ("train.retrain", 7.0, 10.0, 3),
    ])
    roots = ("experiments.run_method",)
    self_s = tracer.self_times(roots)
    assert self_s["condense"] == pytest.approx(3.0)
    assert self_s["condense.fd"] == pytest.approx(1.0)
    assert self_s["learner.run"] == pytest.approx(2.0)
    assert self_s["experiments.run_method"] == pytest.approx(1.0)
    assert "train.pretrain" not in self_s
    assert sum(self_s.values()) == pytest.approx(10.0)
    # condense (4 s) + retrain (3 s) are the outermost work spans.
    assert tracer.coverage(roots) == pytest.approx(0.7)
    assert tracer.inclusive("condense") == (pytest.approx(4.0), 1)


def test_wrappers_are_removed_by_uninstall():
    targets = tracing.resolve_targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.installed_wrappers()) == len(targets)
    finally:
        assert tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _ in targets] == originals


def _stub_call(*, image_value=0.0, accuracy=0.9, passes=0, iterations=None):
    import numpy as np
    params = [types.SimpleNamespace(data=np.ones(3, dtype=np.float32))]
    learner = types.SimpleNamespace(
        training_set=lambda: (np.full((2, 3), image_value, np.float32),
                              np.zeros(2, np.int64)),
        model=types.SimpleNamespace(parameters=lambda: params))
    if iterations is not None:
        learner.condenser = types.SimpleNamespace(
            total_iterations=iterations, alpha=0.1)
    result = types.SimpleNamespace(
        final_accuracy=accuracy, condense_passes=passes,
        extra={"memory": {"budget_ok": True}})
    return result, {"learner": learner, "offline_iterations": 2}


def test_output_check_accepts_a_consistent_deco_pass():
    # 10 iterations (2 offline): 3 * 10 + 8 discrimination + 10 fused FD.
    result, run = _stub_call(passes=48, iterations=10)
    assert measure.check_pass([result], [run], {"fd.fused_dispatches": 10},
                              num_classes=4) == [[]]


@pytest.mark.parametrize("kwargs, problem", [
    (dict(image_value=float("nan")), "non-finite"),
    (dict(accuracy=0.25), "not above chance"),
    (dict(passes=47, iterations=10), "condense_passes"),
])
def test_output_check_flags_bad_outputs(kwargs, problem):
    result, run = _stub_call(**kwargs)
    counters = {"fd.fused_dispatches": 10} if "iterations" in kwargs else {}
    [found] = measure.check_pass([result], [run], counters, num_classes=4)
    assert any(problem in p for p in found), found


def test_counter_metrics_tolerate_missing_counters():
    metrics = measure.counter_metrics({}, {})
    assert all(value == 0.0 for value in metrics.values())
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(metrics) <= names
