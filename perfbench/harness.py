"""Runs one benchmark workload and checks its verdicts.

A run has five phases over the same chunks of trials (see workloads.py):

1. Set-up: config and the learning reference, repeated SETUP_REPEATS times.
2. Timed trials at jobs=1, one `bench.run_single_trial` call at a time,
   chunk after chunk until the phase's share of the measuring time is used.
3. The same chunks through `bench.run_trials` at jobs=nproc.
4. A rerun of the first trials at jobs=1 (same seed, so the same rows).
5. With tracing on, the same chunks through `bench.run_trials` at jobs=1
   with every module boundary wrapped in a span (see tracing.py).

End-to-end numbers come from phases 1-3 only; phase 5 gives the per-layer
numbers and the tracing overhead.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
from augtest import bench
from augtest.bench import wilson_interval
from augtest.testers import TesterHooks

import tracing
from workloads import WORKLOADS, learning_reference, make_config

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_REPEATS = 5
# The tail is taken over groups of a fixed TAIL_GROUP trials, so that it is
# the same percentile (p90) on every run: over all the trials of a run, a
# faster program would run more of them and report a higher percentile.
TAIL_BEYOND = 10
TAIL_GROUP = 100
MIN_TRIALS = TAIL_GROUP
RERUN_TRIALS = 5
# The three-outcome contract allows each wrong verdict with probability 0.1.
MAX_ERROR_RATE = 0.1
# Share of the measuring time given to phase 2. Phase 3 reruns the same
# trials at 0.6-1.6x the jobs=1 speed, depending on the workload, and a
# traced phase adds one more pass, so the phases together fill about the
# measuring time.
TIMED_SHARE = {False: 0.42, True: 0.28}

# Timing on a shared box. Two effects, both measured on the reference box
# (2-core Xeon, see baseline.json), are not the program's:
# - Preemption. A trial can wait 5-50 ms while the OS runs other tenants,
#   which moved the tail of arity5_d between 22 and 46 ms from run to run.
#   A trial is one thread doing no I/O, so phase 2 times it by its thread's
#   CPU time, which is its wall time on an idle box; the tail then stayed
#   within 22-23 ms.
# - Drift. The box's speed drifts by 10-25 % over seconds to minutes (the
#   median time of identical trials over 12 s windows had an IQR of up to
#   25 % of its median), which no feasible run length averages away. Every
#   time is therefore divided by a local speed factor: the time of a fixed
#   calibration kernel run next to it, over its time on the reference box.
#   The kernel calls numpy only, so no change to augtest moves it;
#   normalized this way the same windows spread by 2-4 %, and the median
#   trial time of closeness_2d moved by 2 % while the box's speed changed
#   by a factor of 1.6. Set-up time is divided by phase 2's speed factor:
#   numpy's import leaves threads spinning that slow a calibration run
#   right after it.
# Phases 3 and 5 run many trials per bench.run_trials call, so they are
# timed by wall clock chunk by chunk, each chunk divided by the speed factor
# of the calibrations either side of it, and phase 3 reports the median
# chunk. The calibration stays on one thread: run on every worker thread at
# once, its threads contend for the GIL and its factor ranged from 0.6 to 4
# within one run.
CALIB_REF_MS = 2.4  # CPU ms of the kernel between trials on the reference box
CALIB_EVERY_S = 0.05
CALIB_WINDOW_S = 0.2
CALIB_AROUND = 3  # calibrations between the chunks of phases 3 and 5
_CALIB_LAMBDAS = np.full(20_000, 300.0)

UNITS = {
    "trials_per_s": "1/s",
    "trials_per_s_parallel": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "samples_per_verdict": "samples",
    "sample_ratio_vs_learning": "ratio",
    "error_rate": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# error_rate reads 0 on a correct program, so the result line carries it as
# failed/attempted and the error-rate gate checks it; it is not a metric there.
REPORTED = [name for name in UNITS if name != "error_rate"]


@dataclass
class Result:
    workload: str
    seed: int
    jobs: int
    trials: int
    failed: int
    speed_factor: float  # raw over normalized trial time in phase 2
    metrics: dict[str, float]
    tail_percentile: float
    error_wilson95: tuple[float, float]
    gates: dict[str, bool]
    errors: list[str] = field(default_factory=list)
    per_layer: dict[str, float] | None = None
    layer_self_ms: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(self.gates.values())


def tail_percentile(times_ms, group: int = TAIL_GROUP) -> tuple[float, float]:
    """(value, percentile) of the trial-time tail.

    In each consecutive group of `group` trials (one group of all of them
    when there are fewer), the highest percentile with TAIL_BEYOND trials
    beyond it; the value is the median over the groups.
    """
    group = min(group, len(times_ms))
    if group <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} trials for a tail, got {len(times_ms)}")
    tails = [
        sorted(times_ms[i : i + group])[group - TAIL_BEYOND - 1]
        for i in range(0, len(times_ms) - group + 1, group)
    ]
    return statistics.median(tails), 100.0 * (group - TAIL_BEYOND) / group


def calibration_ms() -> float:
    """CPU ms of the calibration kernel: 40 stream constructions and 20,000 Poisson draws."""
    t0 = time.thread_time()
    for i in range(40):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(1, spawn_key=(i,))))
    np.random.Generator(np.random.PCG64(7)).poisson(_CALIB_LAMBDAS)
    return (time.thread_time() - t0) * 1e3


def _speed(calib_ms) -> float:
    return statistics.median(calib_ms) / CALIB_REF_MS


def _serial_phase(workload, seed: int, budget_s: float, min_trials: int):
    """Whole chunks of trials one at a time, with a calibration at least every CALIB_EVERY_S.

    Returns the chunk configs, the records (None for a trial that raised),
    the raw and the normalized per-trial ms, and the raised tracebacks.
    """
    configs, records, raw_ms, mids, errors = [], [], [], [], []
    calib_at, calib_ms = [], []
    start = time.perf_counter()
    while len(records) < min_trials or time.perf_counter() - start < budget_s:
        cfg = make_config(workload, seed, len(configs))
        configs.append(cfg)
        for i in range(cfg.trials):
            if not calib_at or time.perf_counter() - calib_at[-1] >= CALIB_EVERY_S:
                calib_ms.append(calibration_ms())
                calib_at.append(time.perf_counter())
            t0, cpu0 = time.perf_counter(), time.thread_time()
            try:
                records.append(bench.run_single_trial(cfg, i))
            except Exception:  # a raising trial is a failed operation; keep measuring
                errors.append(traceback.format_exc())
                records.append(None)
            raw_ms.append((time.thread_time() - cpu0) * 1e3)
            mids.append((t0 + time.perf_counter()) / 2)
    times_ms = []
    for ms, t in zip(raw_ms, mids):
        lo = bisect.bisect_left(calib_at, t - CALIB_WINDOW_S)
        hi = bisect.bisect_right(calib_at, t + CALIB_WINDOW_S)
        times_ms.append(ms / _speed(calib_ms[lo:hi] or calib_ms[max(0, lo - 1) : lo + 1]))
    return configs, records, raw_ms, times_ms, errors


def _chunked_phase(configs):
    """Runs each chunk through bench.run_trials between calibrations.

    Returns the records and each chunk's normalized wall seconds.
    """
    records, seconds = [], []
    before = [calibration_ms() for _ in range(CALIB_AROUND)]
    for cfg in configs:
        t0 = time.perf_counter()
        records.extend(bench.run_trials(cfg))
        elapsed = time.perf_counter() - t0
        after = [calibration_ms() for _ in range(CALIB_AROUND)]
        seconds.append(elapsed / _speed(before + after))
        before = after
    return records, seconds


def _csv(records, name: str) -> bytes:
    """Writes records through bench.emit_report and returns the file's bytes."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    bench.emit_report(records, path)
    with open(path, "rb") as fh:
        return fh.read()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    import_s: float = 0.0,
    hooks: TesterHooks | None = None,
    min_trials: int = MIN_TRIALS,
) -> Result:
    """Runs one workload; `hooks` replaces the testers' stochastic primitives."""
    workload = WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        first = make_config(workload, seed)
        reference = learning_reference(workload, first.seed)
        setup.append(time.perf_counter() - t0)
    jobs = len(os.sched_getaffinity(0))
    gates = {"learning_reference": reference.outcome is workload.truth}

    with tracing.patched(tracing.hook_targets(hooks) if hooks else []):
        bench.run_single_trial(first, 0)  # warm-up: lazy imports and first allocations
        configs, records, raw_ms, times_ms, errors = _serial_phase(
            workload, seed, seconds * TIMED_SHARE[trace], min_trials
        )
        n = len(records)
        gates["no_trial_raised"] = not errors
        parallel_tps = 0.0  # phase 3 is skipped when a trial raised
        if not errors:
            parallel, chunk_s = _chunked_phase([replace(c, jobs=jobs) for c in configs])
            # The median over chunks keeps a chunk that shared the box with a
            # burst of other work from moving the run's figure.
            parallel_tps = statistics.median(c.trials / s for c, s in zip(configs, chunk_s))
            rerun = bench.run_trials(replace(first, trials=RERUN_TRIALS))
            serial_csv = _csv(records, f"{name}_jobs1.csv")
            gates["jobs_csv_identical"] = _csv(parallel, f"{name}_jobs{jobs}.csv") == serial_csv
            gates["rerun_csv_identical"] = _csv(rerun, f"{name}_rerun.csv") == _csv(
                records[:RERUN_TRIALS], f"{name}_prefix.csv"
            )

    done = [r for r in records if r is not None]
    failed = n - sum(r.outcome == workload.truth.value for r in done)
    lo, hi = wilson_interval(failed, n)
    gates["error_rate"] = lo <= MAX_ERROR_RATE
    speed = sum(raw_ms) / sum(times_ms)  # set-up is divided by phase 2's speed factor
    p50 = statistics.median(times_ms)
    tail, tail_pct = tail_percentile(times_ms)
    samples = statistics.fmean(r.samples_total for r in done) if done else 0.0
    metrics = {
        "trials_per_s": n / sum(times_ms) * 1e3,
        "trials_per_s_parallel": parallel_tps,
        "trial_ms_p50": p50,
        "trial_ms_tail": tail,
        "samples_per_verdict": samples,
        "sample_ratio_vs_learning": samples / reference.detail["t"],
        "error_rate": failed / n,
        "setup_s": (import_s + statistics.median(setup)) / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = Result(name, seed, jobs, n, failed, speed, metrics, tail_pct, (lo, hi), gates, errors)

    if trace and not errors:
        tracer = tracing.Tracer(hooks)
        with tracer.installed():
            traced, traced_s = _chunked_phase(configs)
            _csv(traced, f"{name}_traced.csv")
        gates["traced_rows_identical"] = traced == records
        # The traced phase is calibrated per chunk, not per trial: its trial
        # spans (wall time) are scaled by the chunks' normalized over raw time.
        raw = tracer.trial_ms()
        scale = sum(traced_s) * 1e3 / sum(raw)
        result.per_layer = tracer.per_layer_metrics(
            traced,
            jobs_speedup=parallel_tps / metrics["trials_per_s"],
            overhead_ms=statistics.median(raw) * scale - p50,
            time_scale=scale,
        )
        result.layer_self_ms = {k: v * scale / n for k, v in tracer.layer_self_ms().items()}
        tracer.write_spans(os.path.join(OUT_DIR, f"{name}_spans.tsv"))
        if not tracer.votes_measured:
            result.notes.append("estimators.closeness.reject_votes not measured: no count kernel to wrap")
    return result
