"""Tests of the benchmark itself: metric names and units, the tail rule, the gates.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
from augtest.testers import TesterHooks
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
FEW = 12  # trials per phase in the smoke runs


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name):
    result = harness.run_workload(name, seed=1, seconds=0, trace=True, min_trials=FEW)
    assert result.correct, result.gates
    for metric in SPEC["end_to_end"]:
        assert harness.UNITS[metric["name"]] == metric["unit"]
        assert result.metrics[metric["name"]] > 0
    assert [m["name"] for m in SPEC["end_to_end"]] == harness.REPORTED
    assert [m["name"] for m in SPEC["per_layer"]] == list(result.per_layer)
    for metric in SPEC["per_layer"]:
        assert tracing.unit(metric["name"]) == metric["unit"]


@pytest.mark.parametrize("n", [11, 12, 50, 99, 100, 101, 150, 199, 200, 201, 731, 1000])
def test_tail_leaves_ten_trials_beyond(n):
    times = random.Random(n).sample(range(100_000), n)
    value, pct = harness.tail_percentile(times)
    assert sum(t > value for t in times) >= harness.TAIL_BEYOND
    group = min(harness.TAIL_GROUP, n)
    assert pct == 100.0 * (group - harness.TAIL_BEYOND) / group


def test_tail_needs_more_than_ten_trials():
    with pytest.raises(ValueError):
        harness.tail_percentile([1.0] * harness.TAIL_BEYOND)


def test_closeness_that_always_rejects_fails_the_error_gate():
    hooks = TesterHooks(closeness=lambda *args, **kwargs: False)
    result = harness.run_workload("closeness_2d", seed=1, seconds=0, hooks=hooks, min_trials=FEW)
    assert result.failed == result.trials
    assert not result.gates["error_rate"]
    assert not result.correct


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arity5_d", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= harness.MIN_TRIALS
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closeness_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
