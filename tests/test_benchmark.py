"""Smoke tests of the benchmark harness: short traced train-short and eval-ensemble runs,
and an untraced train-long run.

The harness wraps serkit functions by name, so a renamed entry point or
stage crashes `--trace 1`; these tests notice that inside the test suite.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_train_short_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-short", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert set(result["metrics"]) == declared
    assert 0 < result["metrics"]["autodiff.nodes_per_step"]["value"] < 1000


def test_untraced_train_long_run_is_correct():
    """Runs multi-block attention inside a real `train_loop`, with perfbench's
    seeded-rerun and checkpoint round-trip checks."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_traced_eval_ensemble_run_reports_every_layer_metric():
    """Also runs perfbench's ensemble-versus-per-model check and its wrapping of
    `ensemble_predict` and `SERModel.forward` by name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert set(result["metrics"]) == declared
    assert 0 < result["metrics"]["autodiff.nodes_per_utt"]["value"] < 1000
    assert result["metrics"]["evaluation.segments"]["value"] > 0
