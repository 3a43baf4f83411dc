"""Tests for the Monte-Carlo benchmark harness: configs, determinism, reports."""

import csv
import gc
import json
import math
import os
import pickle
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace

import numpy as np
import pytest

from augtest import bench
from augtest.bench import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    emit_report,
    emit_sweep,
    run_single_trial,
    run_trials,
    summarize,
    sweep_alpha,
    wilson_interval,
    worker_count,
)
from augtest.domain import DomainError, JointDistribution, Rng, SampleAccount, save_distribution
from augtest.testers import Outcome, Verdict

BASE = dict(
    tester="2d",
    trials=4,
    seed=11,
    eps=0.4,
    alpha=0.05,
    instance={"kind": "uniform", "dims": [8, 5]},
)
# The configs of perfbench's three workloads (perfbench/workloads.py), less trials and seed.
PERFBENCH_CONFIGS = {
    "closeness_2d": dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
    "hidden_bit_2d": dict(
        tester="2d",
        eps=1 / 192,
        alpha="exact",
        alpha_margin=0.01,
        prediction="natural",
        instance={"kind": "hard2d", "n": 200, "m": 20, "k": 10, "alpha": 0.3, "eps": 1 / 192, "force_x": 1},
    ),
    "arity5_d": dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2] * 5}),
}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HARD2D = {"kind": "hard2d", "n": 64, "m": 16, "k": 6, "alpha": 0.3, "eps": 1.0 / 192.0}

# Config values ExperimentConfig rejects at load, with the error each raises.
LOAD_ERRORS = [
    ({"prediction": "psychic"}, "unknown prediction"),
    ({"prediction": {"path": "p.json"}}, "prediction mapping"),
    ({"prediction": {"file": "p.json", "typo": 1}}, "prediction mapping"),
    ({"prediction": "natural", "instance": {"kind": "file", "path": "p.json"}}, "no natural prediction"),
    ({"prediction": "natural", "instance": {"kind": "correlated", "size": 4}}, "no natural prediction"),
    ({"prediction": "natural", "instance": {"kind": "product_random", "dims": [4, 3]}}, "no natural prediction"),
    ({"profile": "exotic"}, "unknown profile"),
    ({"eps": 7}, "eps must be"),
    ({"eps": 0}, "eps must be"),
    ({"alpha": 1.5}, "alpha must be"),
    ({"alpha": -0.1}, "alpha must be"),
    ({"alpha": "approx"}, "alpha must be a finite number"),
    ({"instance": {"kind": "uniform", "dims": [8, 5], "dimz": [3]}}, "takes no keys"),
    ({"instance": {"kind": "correlated", "size": 4, "force_x": 1}}, "takes no keys"),
    ({"instance": dict(HARD2D, require_valid=False)}, "takes no keys"),
    ({"instance": dict(HARD2D, eps=0.1)}, "above the regime bound"),
    ({"instance": dict(HARD2D, k=40)}, "need 1 <= k <= n/2"),
    ({"instance": dict(HARD2D, n=8)}, "need n >= m >= 2"),
    ({"instance": dict(HARD2D, alpha=0)}, "alpha must be in"),
    ({"instance": dict(HARD2D, force_x=2)}, "force_x must be 0 or 1"),
    ({"instance": dict(HARD2D, embed_dims=[4, 5])}, "do not multiply to m=16"),
    ({"instance": dict(HARD2D, embed_dims=[8, 2, 1])}, "every axis size must be >= 2"),
    ({"instance": dict(HARD2D, embed_dims=[4.0, 4])}, "dims must be a sequence of integers"),
    ({"trials": 2.5}, "trials must be a non-negative integer, got 2.5"),
    ({"jobs": 1.5}, "jobs must be a non-negative integer, got 1.5"),
    ({"seed": "11"}, "seed must be a non-negative integer, got '11'"),
    ({"seed": -5}, "seed must be a non-negative integer, got -5"),
    ({"instance": dict(HARD2D, n=64.5)}, "n must be a non-negative integer, got 64.5"),
    ({"instance": dict(HARD2D, k=6.0)}, "k must be a non-negative integer, got 6.0"),
    ({"instance": {"kind": "correlated", "size": 2.5}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "correlated", "size": "3"}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "correlated", "size": 1}}, "every axis size must be >= 2"),
    ({"alpha": "exact", "alpha_margin": float("nan")}, "alpha_margin must be a finite number"),
    ({"alpha": "exact", "alpha_margin": "0.1"}, "alpha_margin must be a finite number"),
    ({"instance": {"kind": "file", "path": 123}}, "path must be a string"),
    ({"prediction": {"file": 3}}, "prediction mapping"),
    ({"instance": {"kind": "uniform", "dims": [2.5, 3]}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "uniform", "dims": [1, 5]}}, "every axis size must be >= 2"),
    ({"instance": {"kind": "product_random", "dims": [2.5, 3]}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "product_random", "dims": "43"}}, "dims must be a sequence of integers"),
    ({"trials": True}, "trials must be a non-negative integer, got True"),
    ({"jobs": True}, "jobs must be a non-negative integer, got True"),
    ({"seed": False}, "seed must be a non-negative integer, got False"),
    ({"record_timing": "no"}, "record_timing must be true or false"),
    ({"record_timing": 1}, "record_timing must be true or false"),
    ({"eps": "0.4"}, "eps must be a finite number"),
    ({"eps": True}, "eps must be a finite number"),
    ({"alpha": False}, "alpha must be a finite number"),
    ({"delta": "0.05"}, "delta must be a finite number"),
    ({"delta": True}, "delta must be a finite number"),
    ({"alpha": "exact", "alpha_margin": True}, "alpha_margin must be a finite number"),
    ({"instance": dict(HARD2D, alpha="0.3")}, "alpha must be a finite number"),
    ({"instance": dict(HARD2D, alpha=True)}, "alpha must be a finite number"),
    ({"instance": dict(HARD2D, alpha=float("nan"))}, "alpha must be a finite number"),
    ({"instance": dict(HARD2D, eps="0.005")}, "eps must be a finite number"),
    ({"instance": dict(HARD2D, eps=True)}, "eps must be a finite number"),
    ({"instance": dict(HARD2D, eps=float("inf"))}, "eps must be a finite number"),
    ({"instance": dict(HARD2D, force_x=True)}, "force_x must be a non-negative integer, got True"),
    ({"instance": dict(HARD2D, force_x=1.0)}, "force_x must be a non-negative integer, got 1.0"),
    ({"instance": dict(HARD2D, force_x="1")}, "force_x must be a non-negative integer, got '1'"),
    ({"instance": dict(HARD2D, n=True)}, "n must be a non-negative integer, got True"),
    ({"instance": dict(HARD2D, m=True)}, "m must be a non-negative integer, got True"),
    ({"instance": dict(HARD2D, k=True)}, "k must be a non-negative integer, got True"),
    ({"tester": "3d"}, "tester '3d' cannot run on a 2-axis instance"),
    ({"tester": "3d", "instance": {"kind": "correlated", "size": 4}}, "tester '3d' cannot run on a 2-axis instance"),
    ({"tester": "3d", "instance": {"kind": "product_random", "dims": [4, 3]}}, "cannot run on a 2-axis"),
    ({"instance": {"kind": "uniform", "dims": [4, 3, 2]}}, "tester '2d' cannot run on a 3-axis instance"),
    ({"instance": dict(HARD2D, embed_dims=[4, 4])}, "tester '2d' cannot run on a 3-axis instance"),
    ({"tester": "3d", "instance": dict(HARD2D, embed_dims=[2, 2, 4])}, "tester '3d' cannot run on a 4-axis"),
    ({"tester": "d", "instance": {"kind": "uniform", "dims": [6]}}, "tester 'd' cannot run on a 1-axis instance"),
    ({"tester": "d", "instance": {"kind": "product_random", "dims": [6]}}, "tester 'd' cannot run on a 1-axis"),
]


class TestConfig:
    def test_round_trip_from_dict(self):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        assert cfg.tester == "2d"
        assert cfg.prediction == "exact"
        assert cfg.profile == "practical"

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, typo_field=1))

    def test_unknown_tester_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, tester="4d"))

    def test_trial_and_job_counts_validated(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, trials=0))
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, jobs=0))

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        assert ExperimentConfig.from_file(str(path)).seed == 11

    @pytest.mark.parametrize("obj, got", [([{"tester": "2d"}], "list"), (42, "int"), ("x", "str"), (["tester"], "list")])
    def test_a_file_that_holds_no_json_object_is_named_so(self, tmp_path, obj, got):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DomainError, match=f"^a config must be a JSON object, got {got}$"):
            ExperimentConfig.from_file(str(path))

    def test_estimator_block_rejected(self):
        # the estimators run at their calibrated defaults; a config cannot set them
        with pytest.raises(DomainError, match="unknown config keys"):
            ExperimentConfig.from_dict(dict(BASE, estimator={"norm_sample_mult": 8.0}))

    @pytest.mark.parametrize("overrides, message", LOAD_ERRORS)
    def test_bad_values_fail_at_load(self, overrides, message):
        # each would otherwise fail only inside a trial, in a worker when jobs > 1
        with pytest.raises(DomainError, match=message):
            ExperimentConfig.from_dict(dict(BASE, **overrides))

    @pytest.mark.parametrize("alpha", [np.array([0.1, 0.2]), np.array(["exact", "exact"]), [0.1], "inexact"])
    def test_an_alpha_that_is_neither_a_number_nor_exact_is_named(self, alpha):
        # an array used to raise numpy's bare ValueError from alpha == "exact"
        with pytest.raises(DomainError, match="^alpha must be a finite number"):
            ExperimentConfig(**dict(BASE, alpha=alpha))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"eps": 1.0, "alpha": 0.0},
            {"alpha": 1.0, "profile": "theory"},
            {"alpha": "exact", "prediction": "natural"},
            {"prediction": {"file": "p.json"}},  # read per trial, not at load
            {"tester": "3d", "instance": dict(HARD2D, force_x=1, embed_dims=[4, 4]), "prediction": "natural"},
            {"tester": "d", "instance": dict(HARD2D, embed_dims=[2, 2, 4])},
            {"tester": "d", "instance": {"kind": "correlated", "size": 4}},
            {"tester": "learn", "instance": {"kind": "uniform", "dims": [6]}},
            {"tester": "3d", "instance": {"kind": "file", "path": "p.json"}},  # axes read per trial, not at load
        ],
    )
    def test_edge_values_load(self, overrides):
        ExperimentConfig.from_dict(dict(BASE, **overrides))


class TestWorkers:
    def test_worker_count_is_capped_by_trials_and_cores(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        assert worker_count(10_000, 10_000) == cores
        assert worker_count(10_000, 1) == 1
        assert worker_count(1, 10_000) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        assert worker_count(10_000, 10_000) == 4
        assert worker_count(10_000, 3) == 3
        assert worker_count(2, 10_000) == 2

    def test_worker_error_reaches_the_caller(self, tmp_path):
        # a config-valid instance that each trial fails to build: its file's masses sum to 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "probs": [0.5] * 4}))
        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2, instance={"kind": "file", "path": str(path)}))
        with pytest.raises(DomainError):
            run_trials(cfg)


@pytest.fixture
def four_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))


@pytest.fixture
def deadline():
    """Fails a test whose run_trials call waits on a child for more than 60 s."""

    def expire(signum, frame):
        raise TimeoutError("run_trials did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_workers():
    """Retires the workers earlier runs left, so that a test starts without any."""
    bench._retire_workers()


def _stub_trials(monkeypatch, fail=(), exit_in_child=()):
    """Replaces bench.run_single_trial: trials in `fail` raise, those in
    `exit_in_child` end their process when it is not the caller's. A
    record's stage is the pid of the process that ran it."""
    caller = os.getpid()

    def trial(cfg, i):
        if i in fail:
            raise DomainError(f"trial {i} failed")
        if i in exit_in_child and os.getpid() != caller:
            os._exit(3)
        return TrialRecord(i, cfg.seed, "accept", str(os.getpid()), 0, 0, 0, 0, 0, 0.0)

    monkeypatch.setattr(bench, "run_single_trial", trial)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _worker_pids(records) -> set[int]:
    """The pids, other than this process's, that ran _stub_trials records."""
    return {int(r.stage) for r in records} - {os.getpid()}


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def _alive(pid: int) -> bool:
    """Whether pid runs; a zombie, exited but not yet reaped, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.usefixtures("four_cores", "deadline", "no_workers")
class TestForkedShares:
    # The caller runs share 0; trial i belongs to share i % workers.

    @pytest.mark.parametrize("trials, jobs", [(5, 3), (7, 4)])
    def test_uneven_shares_match_a_serial_run(self, trials, jobs):
        assert worker_count(jobs, trials) == jobs
        solo = run_trials(ExperimentConfig.from_dict(dict(BASE, trials=trials)))
        assert run_trials(ExperimentConfig.from_dict(dict(BASE, trials=trials, jobs=jobs))) == solo

    @pytest.mark.parametrize(
        "failing, lowest",
        [
            ({0}, 0),  # the caller's share
            ({5}, 5),  # one child's share only
            ({5, 6, 2}, 2),  # several children's shares, the lowest not in the first of them
            ({4, 7, 3}, 3),  # the caller's share and children's, a child's lowest
            ({4, 5, 7}, 4),  # the caller's share and children's, the caller's lowest
        ],
    )
    def test_the_lowest_failing_trial_raises_and_nothing_is_left(self, monkeypatch, failing, lowest):
        _stub_trials(monkeypatch, fail=failing)
        fds = _open_fds()
        with pytest.raises(DomainError) as raised:
            run_trials(ExperimentConfig.from_dict(dict(BASE, trials=8, jobs=4)))
        assert str(raised.value) == f"trial {lowest} failed"
        # a child's error comes with the child's traceback as a note
        assert bool(getattr(raised.value, "__notes__", None)) == (lowest % 4 != 0)
        _assert_no_children_left()
        assert _open_fds() == fds

    def test_a_child_that_exits_in_a_trial_makes_the_run_raise(self, monkeypatch):
        _stub_trials(monkeypatch, exit_in_child={5})
        fds = _open_fds()
        with pytest.raises(RuntimeError, match="trials from 1 exited with code 3, sending no records"):
            run_trials(ExperimentConfig.from_dict(dict(BASE, trials=8, jobs=4)))
        _assert_no_children_left()
        assert _open_fds() == fds

    def test_a_worker_that_dies_midway_through_its_result_makes_the_run_raise(self, monkeypatch):
        caller, truncated = os.getpid(), []

        def dump(obj, file):  # a worker writes half its result, then exits
            if os.getpid() == caller:
                return pickle.dump(obj, file)
            data = pickle.dumps(obj)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(3)

        def load(file):
            try:
                return pickle.load(file)
            except pickle.UnpicklingError:
                truncated.append(os.getpid())
                raise

        _stub_trials(monkeypatch)
        stand_in = types.SimpleNamespace(dump=dump, load=load, UnpicklingError=pickle.UnpicklingError)
        monkeypatch.setattr(bench, "pickle", stand_in)
        fds = _open_fds()
        with pytest.raises(RuntimeError, match="trials from 1 exited with code 3, sending no records"):
            run_trials(ExperimentConfig.from_dict(dict(BASE, trials=8, jobs=4)))
        assert truncated == [caller] * 3  # the caller read each half result, not an empty pipe
        _assert_no_children_left()
        assert _open_fds() == fds

    def test_a_worker_that_dies_before_its_job_is_sent_leaves_nothing_open(self, monkeypatch):
        pool = bench._pool

        def pool_then_kill(size):
            workers = pool(size)
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
                while _alive(worker.pid):
                    time.sleep(0.01)
            return workers

        _stub_trials(monkeypatch)
        monkeypatch.setattr(bench, "_pool", pool_then_kill)
        fds = _open_fds()
        with pytest.raises(BrokenPipeError):  # sending the first job
            run_trials(ExperimentConfig.from_dict(dict(BASE, trials=8, jobs=4)))
        # retiring them closed every pipe, the job still buffered for the first one included
        assert not bench._workers
        _assert_no_children_left()
        assert _open_fds() == fds

    def test_a_worker_that_died_is_replaced(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(dict(BASE, trials=8, jobs=4))
        _stub_trials(monkeypatch)
        before = _worker_pids(run_trials(cfg))
        _stub_trials(monkeypatch, exit_in_child={5})
        with pytest.raises(RuntimeError, match="trials from 1 exited with code 3, sending no records"):
            run_trials(cfg)
        _stub_trials(monkeypatch)
        records = run_trials(cfg)
        assert [r.trial for r in records] == list(range(8))
        after = _worker_pids(records)
        assert len(after) == 3 and not after & before
        # one killed between runs is replaced before the next run sends it a share
        killed = min(after)
        os.kill(killed, signal.SIGKILL)
        while _alive(killed):
            time.sleep(0.01)
        replaced = _worker_pids(run_trials(cfg))
        assert len(replaced) == 3 and killed not in replaced

    def test_consecutive_runs_reuse_the_workers(self, monkeypatch):
        _stub_trials(monkeypatch)
        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2))
        first = _worker_pids(run_trials(cfg))
        assert len(first) == 1
        assert _worker_pids(run_trials(replace(cfg, seed=12))) == first
        # a run over more shares keeps the worker it has and forks the others
        more = _worker_pids(run_trials(replace(cfg, trials=8, jobs=4)))
        assert len(more) == 3 and first < more

    def test_children_see_the_callers_patched_modules(self, monkeypatch):
        def stub(sampler, pred, tcfg, rng):
            return Verdict(Outcome.REJECT, [f"stub in {os.getpid()}"], SampleAccount(closeness=7))

        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2))
        unpatched = run_trials(cfg)  # leaves workers forked before the patch
        monkeypatch.setattr(bench, "aug_independence_2d", stub)
        records = run_trials(cfg)
        assert [(r.outcome, r.samples_total) for r in records] == [("reject", 7)] * BASE["trials"]
        # both shares ran the stub, one of them in the caller
        stages = {r.stage for r in records}
        assert len(stages) == 2 and f"stub in {os.getpid()}" in stages
        # undoing the patch reaches the workers too
        monkeypatch.undo()
        assert run_trials(cfg) == unpatched

    def test_a_patched_class_attribute_reaches_the_workers(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2))
        run_trials(cfg)
        monkeypatch.setattr(SampleAccount, "total", property(lambda self: os.getpid()))
        pids = {r.samples_total for r in run_trials(cfg)}
        assert len(pids) == 2 and os.getpid() in pids

    def test_a_fork_of_the_caller_leaves_its_workers_alone(self, monkeypatch):
        _stub_trials(monkeypatch)
        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2))
        first = _worker_pids(run_trials(cfg))
        fds = [end.fileno() for worker in bench._workers for end in (worker.jobs, worker.results)]
        pid = os.fork()
        if pid == 0:  # the fork's copies of the pipes are closed and its list is empty
            code = 1
            try:
                code = 0 if not bench._workers and not any(map(_is_open, fds)) else 2
            finally:
                os._exit(code)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert _worker_pids(run_trials(cfg)) == first


_WORKER_LIFETIME_SCRIPT = """
import os, sys
from augtest import bench
os.sched_getaffinity = lambda pid: set(range(4))
cfg = bench.ExperimentConfig(tester="2d", trials=4, seed=11, eps=0.4, alpha=0.05,
                             instance={"kind": "uniform", "dims": [8, 5]}, jobs=2)
bench.run_trials(cfg)
print(" ".join(str(worker.pid) for worker in bench._workers), flush=True)
if sys.argv[1] == "wait":
    sys.stdin.read()
"""


@pytest.mark.usefixtures("deadline")
def test_a_parallel_run_loads_no_multiprocessing_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    script = _WORKER_LIFETIME_SCRIPT + "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    done = subprocess.run([sys.executable, "-c", script, "exit"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    pids, modules = done.stdout.splitlines()
    assert len(pids.split()) == 1  # it forked a worker and ran a share there
    assert modules == "[]"


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_no_worker_outlives_its_caller(end):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-c", _WORKER_LIFETIME_SCRIPT, "wait" if end == "kill" else "exit"]
    with subprocess.Popen(command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        if end == "kill":
            proc.kill()
        assert proc.wait(timeout=60) == (-signal.SIGKILL if end == "kill" else 0)
    assert len(pids) == 1
    # A caller that exits reaps its workers first; one that is killed leaves them at EOF.
    deadline = time.monotonic() + (5 if end == "kill" else 0)
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids))


class TestDeterminism:
    def test_reruns_are_identical(self):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        assert run_trials(cfg) == run_trials(cfg)

    def test_jobs_do_not_change_results(self):
        solo = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        multi = run_trials(ExperimentConfig.from_dict(dict(BASE, jobs=3)))
        assert solo == multi
        # A hidden-bit instance whose flat size (288 x 50 = 14,400) is past
        # where a BLAS float dot would start threads of its own.
        hard = dict(
            BASE,
            instance={
                "kind": "hard2d",
                "n": 120,
                "m": 20,
                "k": 10,
                "alpha": 0.3,
                "eps": 1.0 / 192.0,
                "force_x": 1,
            },
            prediction="natural",
            eps=1.0 / 192.0,
            alpha="exact",
            alpha_margin=0.01,
            trials=3,
        )
        solo = run_trials(ExperimentConfig.from_dict(hard))
        multi = run_trials(ExperimentConfig.from_dict(dict(hard, jobs=2)))
        assert solo == multi
        assert all(r.stage == "closeness" and r.outcome == "reject" for r in solo)

    def test_trials_differ_from_each_other(self):
        records = run_trials(ExperimentConfig.from_dict(dict(BASE, trials=6)))
        assert len({r.samples_total for r in records}) > 1

    def test_seed_changes_results(self):
        a = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        b = run_trials(ExperimentConfig.from_dict(dict(BASE, seed=12)))
        assert a != b


class TestStreamCost:
    """A trial builds no SeedSequence once its seed's pool is cached (see domain.Rng)."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
            dict(
                tester="2d",
                eps=1.0 / 192.0,
                alpha="exact",
                alpha_margin=0.01,
                prediction="natural",
                instance={"kind": "hard2d", "n": 100, "m": 10, "k": 10, "alpha": 0.3, "eps": 1.0 / 192.0, "force_x": 1},
            ),
            dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2] * 5}),
        ],
        ids=["2d_uniform", "hard2d", "d_cube"],
    )
    def test_a_trial_builds_no_seed_sequence(self, monkeypatch, overrides):
        cfg = ExperimentConfig.from_dict(dict(BASE, trials=1, **overrides))
        expected = run_single_trial(cfg, 0)  # builds and caches the seed's pool

        def no_seed_sequence(*args, **kwargs):
            raise AssertionError("a trial built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
        assert run_single_trial(cfg, 0) == expected

    def test_the_uniform_law_is_built_once_per_dims(self):
        desc = {"kind": "uniform", "dims": [4, 3]}
        p, natural = bench._build_instance(desc, Rng(1))
        assert p is natural is bench._build_instance(dict(desc, dims=(4, 3)), Rng(2))[0]
        assert bench._build_prediction("uniform", JointDistribution.uniform((4, 3)), None) is p
        assert bench._uniform.cache_info().maxsize is not None


class TestCsvOutput:
    def test_schema_and_ms_formatting(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        records = run_trials(cfg)
        path = tmp_path / "out.csv"
        emit_report(records, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + cfg.trials
        for row in rows[1:]:
            assert row[-1] == "0.000"  # timing disabled by default
            assert row[2] in ("accept", "reject", "inaccurate_information")

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_trials(cfg), str(p1))
        emit_report(run_trials(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_timing_populates_ms(self):
        cfg = ExperimentConfig.from_dict(dict(BASE, record_timing=True, trials=1))
        assert run_single_trial(cfg, 0).ms > 0

    def test_records_survive_pickling_with_the_same_csv(self, tmp_path):
        # Forked workers hand their records back pickled; slotted records
        # carry no per-instance dict.
        records = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        assert not hasattr(records[0], "__dict__")
        copies = pickle.loads(pickle.dumps(records))
        assert copies == records
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(records, str(p1))
        emit_report(copies, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4901568467, abs=1e-9)
        assert hi == pytest.approx(0.9433190520, abs=1e-9)
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.2775401688, abs=1e-9)
        lo, hi = wilson_interval(10, 10)
        assert lo == pytest.approx(0.7224598312, abs=1e-9)
        assert hi == 1.0

    def test_requires_trials(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize(
        "successes, trials, message",
        [
            (11, 10, "successes 11 exceed trials 10"),
            (-1, 10, "successes must be a non-negative integer, got -1"),
            (2.5, 10, "successes must be a non-negative integer, got 2.5"),
            (True, 10, "successes must be a non-negative integer, got True"),
            (3, 10.0, "trials must be a non-negative integer, got 10.0"),
            (0, True, "trials must be a non-negative integer, got True"),
        ],
    )
    def test_rejects_counts_outside_a_binomial_by_value(self, successes, trials, message):
        # not math's "domain error", nor a rate from a fractional count
        with pytest.raises(DomainError, match=message):
            wilson_interval(successes, trials)


class TestSummaries:
    def test_counts_and_rates(self):
        records = run_trials(ExperimentConfig.from_dict(dict(BASE, trials=6)))
        s = summarize(records)
        assert s["trials"] == 6
        total = sum(s[k]["count"] for k in ("accept", "reject", "inaccurate_information"))
        assert total == 6
        for k in ("accept", "reject", "inaccurate_information"):
            assert s[k]["rate"] == s[k]["count"] / 6
            lo, hi = s[k]["wilson95"]
            assert 0.0 <= lo <= s[k]["rate"] <= hi <= 1.0
        assert s["mean_samples"] == pytest.approx(
            float(np.mean([r.samples_total for r in records]))
        )

    def test_sample_columns_sum_to_total(self):
        for r in run_trials(ExperimentConfig.from_dict(dict(BASE))):
            assert (
                r.samples_flatten + r.samples_norm + r.samples_closeness + r.samples_learning
                == r.samples_total
            )


class TestInstanceKinds:
    def test_file_instance_and_prediction(self, tmp_path):
        p = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
        dpath = tmp_path / "dist.json"
        save_distribution(p, str(dpath))
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "file", "path": str(dpath)},
                prediction={"file": str(dpath)},
                trials=1,
            )
        )
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_file_instance_has_no_natural_prediction(self, tmp_path):
        p = JointDistribution.uniform((3, 3))
        dpath = tmp_path / "dist.json"
        save_distribution(p, str(dpath))
        # rejected when the config is loaded, before any trial runs
        with pytest.raises(DomainError, match="no natural prediction"):
            ExperimentConfig.from_dict(
                dict(BASE, instance={"kind": "file", "path": str(dpath)}, prediction="natural", trials=1)
            )

    def test_correlated_instance_rejects(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "correlated", "size": 6},
                prediction="uniform",
                alpha=1.0,
                trials=8,
            )
        )
        records = run_trials(cfg)
        rejects = sum(r.outcome == "reject" for r in records)
        assert rejects >= 6

    def test_product_random_accepts(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "product_random", "dims": [6, 4]},
                prediction="exact",
                trials=8,
            )
        )
        accepts = sum(r.outcome == "accept" for r in run_trials(cfg))
        assert accepts >= 6

    def test_hard2d_instance(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={
                    "kind": "hard2d",
                    "n": 100,
                    "m": 10,
                    "k": 10,
                    "alpha": 0.3,
                    "eps": 1.0 / 192.0,
                    "force_x": 0,
                },
                prediction="natural",
                eps=1.0 / 192.0,
                alpha=0.3,
                trials=2,
            )
        )
        records = run_trials(cfg)
        assert len(records) == 2

    def test_hard2d_embedding(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                tester="d",
                instance={
                    "kind": "hard2d",
                    "n": 64,
                    "m": 16,
                    "k": 6,
                    "alpha": 0.3,
                    "eps": 1.0 / 192.0,
                    "force_x": 0,
                    "embed_dims": [4, 4],
                },
                prediction="natural",
                eps=1.0 / 192.0,
                alpha=0.3,
                trials=1,
            )
        )
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_unknown_kind(self):
        # rejected when the config is loaded, before any trial runs
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, instance={"kind": "mystery"}, trials=1))

    def test_unknown_prediction(self):
        with pytest.raises(DomainError, match="unknown prediction"):
            ExperimentConfig.from_dict(dict(BASE, prediction="psychic", trials=1))

    def test_point_mass_prediction_never_rejects_a_product(self):
        # A point-mass prediction on a uniform product input: the per-axis
        # norm gates may call the claim inaccurate, but flattening by any
        # prediction keeps the input a product, so no trial may reject it.
        cfg = ExperimentConfig.from_dict(
            dict(BASE, seed=3, trials=20, instance={"kind": "uniform", "dims": [20, 10]},
                 prediction="point_mass")
        )
        assert "reject" not in {r.outcome for r in run_trials(cfg)}


class TestAlphaHandling:
    def test_exact_alpha_uses_tv_plus_margin(self):
        # exact prediction has tv 0, so alpha = margin; a huge margin clamps to 1
        cfg = ExperimentConfig.from_dict(dict(BASE, alpha="exact", alpha_margin=0.07, trials=1))
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_exact_alpha_with_a_negative_margin_clamps_at_zero(self):
        # the exact prediction has tv 0, so tv + margin is -0.05: the trials claim alpha 0
        cfg = ExperimentConfig.from_dict(
            dict(BASE, eps=0.4, alpha="exact", alpha_margin=-0.05, instance={"kind": "uniform", "dims": [10, 5]})
        )
        assert run_trials(cfg) == run_trials(replace(cfg, alpha=0.0))

    def test_alpha_override_wins(self):
        # a sweep row summarizes a plain run at the row's alpha, whatever alpha the config holds
        cfg = ExperimentConfig.from_dict(dict(BASE, alpha=1.0, trials=2))
        (row,) = sweep_alpha(cfg, [0.05])
        s = summarize(run_trials(ExperimentConfig.from_dict(dict(BASE, trials=2))))  # BASE claims 0.05
        assert row == {
            "alpha": 0.05,
            "mean_samples": s["mean_samples"],
            "accept_rate": s["accept"]["rate"],
            "reject_rate": s["reject"]["rate"],
            "inaccurate_rate": s["inaccurate_information"]["rate"],
        }
        assert summarize(run_trials(cfg))["mean_samples"] != row["mean_samples"]


class TestAmplification:
    def test_small_delta_runs_amplified(self, monkeypatch):
        # Amplified runs repeat the base tester until the verdict is decided:
        # on this product input every run accepts, so 4 of the 7 run, and the
        # account sums over them.
        runs = []
        tester = bench.aug_independence_2d

        def recording(*args):
            runs.append(tester(*args))
            return runs[-1]

        monkeypatch.setattr(bench, "aug_independence_2d", recording)
        base = run_single_trial(ExperimentConfig.from_dict(dict(BASE, trials=1)), 0)
        assert [v.account.total for v in runs] == [base.samples_total]
        runs.clear()
        amp = run_single_trial(
            ExperimentConfig.from_dict(dict(BASE, trials=1, delta=0.05)), 0
        )
        assert [v.outcome for v in runs] == [Outcome.ACCEPT] * 4
        assert amp.samples_total == sum(v.account.total for v in runs)
        assert amp.samples_total > 3 * base.samples_total

    def test_learn_tester_ignores_amplification(self):
        cfg = ExperimentConfig.from_dict(
            dict(BASE, tester="learn", delta=0.05, trials=1, eps=0.35)
        )
        r = run_single_trial(cfg, 0)
        # one learning call at delta=0.05: t = ceil((40 + ln(1/0.05)) / (0.05)^2)
        t = math.ceil((40 + math.log(1 / 0.05)) / 0.05**2)
        assert r.samples_learning == t


class TestTesterRunner:
    """bench._run_tester, the one place a named tester is chosen and sized."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"delta": 0.05},
            {"tester": "3d", "instance": {"kind": "uniform", "dims": [4, 3, 2]}},
            {"tester": "d", "eps": 0.3, "instance": {"kind": "uniform", "dims": [2, 2, 2, 2]}},
            {"tester": "learn", "eps": 0.35},
        ],
    )
    def test_every_trial_goes_through_the_runner(self, monkeypatch, overrides):
        cfg = ExperimentConfig.from_dict(dict(BASE, trials=1, **overrides))
        plain = run_single_trial(cfg, 0)
        calls = []
        runner = bench._run_tester

        def recording(tester, dist, pred, tcfg, delta, rng):
            calls.append((tester, dist.dims, delta, rng.stream))
            return runner(tester, dist, pred, tcfg, delta, rng)

        monkeypatch.setattr(bench, "_run_tester", recording)
        assert run_single_trial(cfg, 0) == plain
        assert calls == [(cfg.tester, tuple(cfg.instance["dims"]), cfg.delta, (0, 1))]

    def test_learn_runs_at_the_base_delta_when_none_is_given(self, monkeypatch):
        deltas = []
        learn = bench.test_independence_by_learning

        def recording(sampler, eps, delta, rng):
            deltas.append(delta)
            return learn(sampler, eps, delta, rng)

        monkeypatch.setattr(bench, "test_independence_by_learning", recording)
        for delta in (None, 0.05, 0.5):
            run_single_trial(ExperimentConfig.from_dict(dict(BASE, tester="learn", trials=1, delta=delta)), 0)
        assert deltas == [bench.BASE_DELTA, 0.05, 0.5]

    @pytest.mark.parametrize("name, tester", [("aug_independence_2d", "2d"), ("aug_independence_d", "d")])
    def test_a_patched_entry_point_is_looked_up_on_every_call(self, monkeypatch, name, tester):
        dist = JointDistribution.uniform((3, 2))
        seen = []

        def fake(sampler, pred, cfg, rng):
            seen.append((sampler.dist, pred, cfg.eps, rng.stream))
            return Verdict(Outcome.INACCURATE, ["fake"], SampleAccount())

        monkeypatch.setattr(bench, name, fake)
        cfg = bench.TesterConfig(0.4, 0.05)
        v = bench._run_tester(tester, dist, dist, cfg, None, bench.Rng(3, (1,)))
        assert (v.outcome, v.stage) == (Outcome.INACCURATE, "fake")
        assert seen == [(dist, dist, 0.4, (1,))]
        # amplified, each run reaches the patched name on its own stream
        v = bench._run_tester(tester, dist, dist, cfg, 0.05, bench.Rng(3, (1,)))
        assert v.stage_log == ["amplify", "fake"]
        assert [s[3] for s in seen[1:]] == [(1, i) for i in range(len(seen) - 1)]


@pytest.mark.parametrize(
    "overrides",
    [{name: np.array(3)} for name in ("seed", "trials", "jobs")]
    + [
        {"instance": dict(HARD2D, **{name: np.array(value)})}
        for name, value in (("n", 64), ("m", 16), ("k", 6), ("force_x", 1))
    ],
)
def test_a_zero_d_integer_array_is_still_no_integer(overrides):
    # operator.index reads np.array(3) as 3; numbers.Integral, which these
    # checks used before _stream_key, never did
    with pytest.raises(DomainError, match="must be a non-negative integer, got array"):
        ExperimentConfig.from_dict(dict(BASE, **overrides))


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE, trials=3))
        rows = sweep_alpha(cfg, [0.3, 0.1])
        assert [r["alpha"] for r in rows] == [0.3, 0.1]
        for r in rows:
            assert set(r) == set(SWEEP_COLUMNS)
            assert r["accept_rate"] + r["reject_rate"] + r["inaccurate_rate"] == pytest.approx(1.0)
        path = tmp_path / "sweep.csv"
        emit_sweep(rows, str(path))
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == SWEEP_COLUMNS
        assert len(got) == 3

    def test_bad_level_fails_before_any_level_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "run_trials", ran.append)
        with pytest.raises(DomainError, match="alpha must be"):
            sweep_alpha(ExperimentConfig.from_dict(dict(BASE)), [0.3, 1.5])
        assert ran == []


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class _FakeMallopt:
    """Stands in for libc's mallopt: records each call and returns `result`."""

    def __init__(self, result=1):
        self.calls, self.result = [], result
        self.argtypes = self.restype = None

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class TestFreedHeapKept:
    @pytest.fixture
    def fake_libc(self, monkeypatch):
        """A fake mallopt behind ctypes.CDLL, with the once-per-process cache cleared around the test."""
        mallopt = _FakeMallopt()
        monkeypatch.setattr(bench.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        bench._keep_freed_heap.cache_clear()
        yield mallopt
        bench._keep_freed_heap.cache_clear()

    def test_sets_the_top_pad_on_glibc(self, monkeypatch, fake_libc):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.39")
        bench._keep_freed_heap()
        bench._keep_freed_heap()
        assert fake_libc.calls == [(-2, 4 << 20)]  # M_TOP_PAD, once per process
        assert fake_libc.restype is not None and len(fake_libc.argtypes) == 2

    def test_is_a_no_op_off_glibc(self, monkeypatch, fake_libc):
        def unknown_name(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "confstr", unknown_name)
        bench._keep_freed_heap()
        monkeypatch.delattr(os, "confstr")  # as on Windows
        bench._keep_freed_heap.cache_clear()
        bench._keep_freed_heap()
        assert fake_libc.calls == []

    def test_a_refused_setting_warns(self, monkeypatch, fake_libc):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.39")
        fake_libc.result = 0
        with pytest.warns(RuntimeWarning, match="M_TOP_PAD"):
            bench._keep_freed_heap()

    @pytest.mark.skipif(not _glibc(), reason="M_TOP_PAD is a glibc malloc parameter")
    def test_later_trials_fault_in_no_fresh_pages(self):
        # Without the pad glibc hands each trial's freed arrays back to the
        # OS, and the next trial faults several hundred pages back in.
        cfg = ExperimentConfig.from_dict(dict(PERFBENCH_CONFIGS["hidden_bit_2d"], trials=11, seed=50))
        run_single_trial(cfg, 0)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(1, 11):
            run_single_trial(cfg, i)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 20 * 10


@pytest.mark.parametrize("name", sorted(PERFBENCH_CONFIGS))
def test_a_trial_leaves_no_reference_cycle(name):
    # The pad above saves faults only if each trial's dense laws are freed
    # by their reference counts, not later by the cyclic collector.
    cfg = ExperimentConfig.from_dict(dict(PERFBENCH_CONFIGS[name], trials=2, seed=7))
    run_single_trial(cfg, 0)  # warm-up: fills the per-process caches
    gc.collect()
    gc.disable()
    try:
        run_single_trial(cfg, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAbTrials:
    """scripts/ab_trials.py: two source trees timed in one process, rows compared."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run_script(self, src_a, src_b, chunks):
        script = os.path.join(self.ROOT, "scripts", "ab_trials.py")
        return subprocess.run(
            [sys.executable, script, src_a, src_b, "arity5_d", "--chunks", str(chunks)],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_the_checkout_against_itself_gives_identical_rows(self):
        done = self.run_script(self.ROOT, self.ROOT, 2)
        assert done.returncode == 0, done.stderr
        assert "trials 200 per side" in done.stdout
        assert done.stdout.splitlines()[-1] == "rows identical"

    def test_it_prints_each_sides_quartiles_and_the_chunks_b_won(self):
        done = self.run_script(self.ROOT, self.ROOT, 3)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        for side in "AB":
            (line,) = [s for s in lines if s.startswith(f"{side} ") and "quartiles" in s]
            match = re.match(rf"{side} (\S+) ms/trial  quartiles (\S+) (\S+)  \(", line)
            q1, med, q3 = float(match[2]), float(match[1]), float(match[3])
            assert 0 < q1 <= med <= q3
        (wins,) = [s for s in lines if s.startswith("B faster in ")]
        match = re.fullmatch(r"B faster in (\d+) of 3 chunks", wins)
        assert match and 0 <= int(match[1]) <= 3

    def test_a_tree_that_draws_otherwise_exits_one(self, tmp_path):
        shutil.copytree(os.path.join(self.ROOT, "src", "augtest"), tmp_path / "src" / "augtest")
        estimators = tmp_path / "src" / "augtest" / "estimators.py"
        text = estimators.read_text()
        # the band that serves the cube's 288- to 405-cell flattened joints
        assert text.count("(200, 6.0, 1.95),") == 1
        estimators.write_text(text.replace("(200, 6.0, 1.95),", "(200, 7.0, 1.95),"))
        done = self.run_script(self.ROOT, str(tmp_path), 1)
        assert done.returncode == 1
        assert "trial rows differ between A and B" in done.stderr
