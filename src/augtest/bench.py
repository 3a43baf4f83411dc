"""Monte-Carlo benchmark harness: repeated tester trials, rates, CSV reports.

A run is fully determined by (config, seed): trial i uses the derived stream
Rng(seed, (i,)), so results are reproducible byte-for-byte regardless of the
--jobs level. With jobs > 1 the trials split into shares: the caller runs one
share and sends each of the others to a forked worker, jobs - 1 workers,
capped by the trial count and the usable cores. Wall-time measurement is
opt-in (record_timing) because it is the one field that would break
byte-identical reruns.

The workers are forked on the first call that needs them and serve every
later one; jobs and results travel as pickles over a pair of one-way
os.pipe()s per worker, opened as buffered files: a pickle marks its own
end. Forking per call cost a fork, a reap and, on both sides, a
copy-on-write fault on every page written after it: about 850 minor faults
in the caller per 20-trial jobs=2 chunk of perfbench's closeness_2d, against
4 with the workers kept (2-core Xeon). A worker is retired (its pipes
closed, then reaped) when a run fails, when an attribute of a loaded augtest
module or of a class defined in one has been rebound since it was forked,
so that a patched entry point reaches the workers, and at exit. A worker
exits at EOF on its job pipe, so one whose caller is killed exits too, and a
process forked from the caller closes and forgets the caller's workers.

run_single_trial first sets glibc malloc's M_TOP_PAD to 4 MiB, once per
process (forked workers inherit it), so each trial reuses the heap pages the
last one freed instead of faulting them in again; the cost is up to 4 MiB of
already-touched heap kept resident. Off glibc it sets nothing. Over 40
steady-state trials on a 2-core Xeon it took minor faults per trial from
about 580 to 1.5 on perfbench's hidden_bit_2d and from 99 to 1.0 on
closeness_2d; arity5_d stayed at 1.6.
"""

from __future__ import annotations

import atexit
import csv
import ctypes
import functools
import json
import math
import operator
import os
import pickle
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, fields, replace
from typing import BinaryIO, Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    _check_finite,
    _checked_dims,
    _stream_key,
    load_distribution,
    outer_product,
    tv_distance,
)
from .hard_instances import check_hard_params, embed_hard_to_d, gen_valid_hard_2d
from .testers import (
    BASE_DELTA,
    Outcome,
    TesterConfig,
    Verdict,
    _run_at_delta,
    aug_independence_2d,
    aug_independence_3d,
    aug_independence_d,
    test_independence_by_learning,
)

# Instance kind -> the keys its description must hold.
_INSTANCE_KEYS = {
    "uniform": ("dims",),
    "file": ("path",),
    "correlated": ("size",),
    "product_random": ("dims",),
    "hard2d": ("n", "m", "k", "alpha", "eps"),
}
# Instance kind -> the keys its description may hold besides "kind" and the required ones.
_OPTIONAL_INSTANCE_KEYS = {"hard2d": ("force_x", "embed_dims")}

# glibc's mallopt parameter M_TOP_PAD (<malloc.h>) and the pad the harness sets it to.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 4 << 20

SWEEP_COLUMNS = ["alpha", "mean_samples", "accept_rate", "reject_rate", "inaccurate_rate"]
_WILSON_Z = 1.96  # the normal quantile of wilson_interval's 95 % two-sided coverage


@dataclass(slots=True)
class TrialRecord:
    trial: int
    seed: int
    outcome: str
    stage: str
    samples_total: int
    samples_flatten: int
    samples_norm: int
    samples_closeness: int
    samples_learning: int
    ms: float

    def row(self) -> list:
        """The CSV row, in CSV_COLUMNS order; ms is written to the microsecond."""
        return [f"{self.ms:.3f}" if f.name == "ms" else getattr(self, f.name) for f in fields(self)]


CSV_COLUMNS = [f.name for f in fields(TrialRecord)]


@dataclass(frozen=True)  # checked once, at construction; replace() checks the copy
class ExperimentConfig:
    tester: str
    trials: int
    seed: int
    eps: float
    instance: dict
    alpha: float | str = 0.0  # numeric, or "exact" for per-trial tv(p, pred)
    alpha_margin: float = 0.0  # added to "exact" alpha
    delta: float | None = None  # below testers.BASE_DELTA runs amplified
    profile: str = "practical"
    prediction: str | dict = "exact"
    jobs: int = 1
    record_timing: bool = False

    def __post_init__(self):
        if self.tester not in ("2d", "3d", "d", "learn"):
            raise DomainError(f"unknown tester {self.tester!r}")
        for name in ("trials", "jobs", "seed"):
            _stream_key(name, getattr(self, name))
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")
        if not isinstance(self.record_timing, bool):
            raise DomainError(f"record_timing must be true or false, got {self.record_timing!r}")
        _check_finite("alpha_margin", self.alpha_margin)
        if self.delta is not None:
            _check_finite("delta", self.delta, "(0, 1)")
        if not isinstance(self.instance, dict) or self.instance.get("kind") not in _INSTANCE_KEYS:
            raise DomainError(f"instance must be a mapping with a kind in {sorted(_INSTANCE_KEYS)}")
        kind = self.instance["kind"]
        missing = [k for k in _INSTANCE_KEYS[kind] if k not in self.instance]
        if missing:
            raise DomainError(f"instance kind {kind!r} needs keys {missing}")
        allowed = {"kind", *_INSTANCE_KEYS[kind], *_OPTIONAL_INSTANCE_KEYS.get(kind, ())}
        extra = set(self.instance) - allowed
        if extra:
            raise DomainError(f"instance kind {kind!r} takes no keys {sorted(extra)}")
        if isinstance(self.prediction, dict):
            if set(self.prediction) != {"file"} or not isinstance(self.prediction["file"], str):
                raise DomainError(
                    f"a prediction mapping holds one key, file, naming a path; got {self.prediction!r}"
                )
        elif self.prediction not in ("exact", "natural", "uniform", "point_mass"):
            raise DomainError(f"unknown prediction {self.prediction!r}")
        elif self.prediction == "natural" and kind not in ("uniform", "hard2d"):
            raise DomainError(f"instance kind {kind!r} has no natural prediction")
        axes = None  # a file instance's axis count is known only once a trial reads it
        if kind in ("uniform", "product_random"):
            axes = len(_checked_dims(self.instance["dims"]))
        if kind == "correlated":
            _checked_dims([self.instance["size"]])  # an integer >= 2
            axes = 2
        # open() would take an integer path as a file descriptor
        if kind == "file" and not isinstance(self.instance["path"], str):
            raise DomainError(f"a file instance's path must be a string, got {self.instance['path']!r}")
        if kind == "hard2d":
            inst = self.instance
            check_hard_params(inst["n"], inst["m"], inst["k"], inst["alpha"], inst["eps"], inst.get("force_x"))
            if "embed_dims" in inst and math.prod(_checked_dims(inst["embed_dims"])) != inst["m"]:
                raise DomainError(f"embed_dims {inst['embed_dims']} do not multiply to m={inst['m']}")
            axes = 1 + len(inst["embed_dims"]) if "embed_dims" in inst else 2
        if axes is not None and not {"2d": axes == 2, "3d": axes == 3, "d": axes >= 2}.get(self.tester, True):
            raise DomainError(f"tester {self.tester!r} cannot run on a {axes}-axis instance")
        # The testers' own checks; "exact" alpha is a tv distance, so in [0, 1].
        # An array alpha compares elementwise, so only a string is matched.
        exact = isinstance(self.alpha, str) and self.alpha == "exact"
        TesterConfig(self.eps, 0.0 if exact else self.alpha, self.profile).validate()

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise DomainError(f"a config must be a JSON object, got {type(obj).__name__}")
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DomainError(f"unknown config keys: {sorted(extra)}")
        return ExperimentConfig(**obj)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


@functools.lru_cache(maxsize=8)
def _uniform(dims: tuple[int, ...]) -> JointDistribution:
    """The uniform law on dims, built once per process per dims.

    It is read-only and the same on every trial, so the relabelings
    merge_axes memoizes on it serve every later trial too.
    """
    return JointDistribution.uniform(dims)


def _build_instance(desc: dict, rng: Rng) -> tuple[JointDistribution, JointDistribution | None]:
    """Returns (distribution, natural prediction or None)."""
    kind = desc.get("kind")
    if kind == "uniform":
        p = _uniform(_checked_dims(desc["dims"]))
        return p, p
    if kind == "file":
        return load_distribution(desc["path"]), None
    if kind == "correlated":
        return JointDistribution.from_table(np.eye(desc["size"]) / desc["size"]), None
    if kind == "product_random":
        dims = tuple(desc["dims"])
        probs = outer_product(rng.gen.dirichlet(np.ones(d)) for d in dims)
        return JointDistribution(dims, probs), None
    # hard2d
    inst, _, _ = gen_valid_hard_2d(
        desc["n"], desc["m"], desc["k"], desc["alpha"], desc["eps"], rng, force_x=desc.get("force_x")
    )
    if "embed_dims" in desc:
        return embed_hard_to_d(inst, desc["embed_dims"])
    return inst.p, inst.prediction


def _build_prediction(
    choice: str | dict, dist: JointDistribution, natural: JointDistribution | None
) -> JointDistribution:
    if isinstance(choice, dict):
        return load_distribution(choice["file"])
    if choice == "exact":
        return dist
    if choice == "natural":
        return natural
    if choice == "uniform":
        return _uniform(dist.dims)
    # point_mass: all mass on cell 0
    probs = np.zeros(dist.probs.size)
    probs[0] = 1.0
    return JointDistribution(dist.dims, probs)


def _run_tester(tester: str, dist, pred, cfg: TesterConfig, delta: float | None, rng: Rng) -> Verdict:
    """Runs tester "2d", "3d", "d" or "learn" on the law dist with prediction pred, from rng.

    learn reads only cfg.eps; it is sized for delta itself, BASE_DELTA when
    delta is None, and never amplified. The others run through _run_at_delta,
    looked up in this module on every call: a caller may have patched them.
    """
    sampler = JointSampler(dist)
    if tester == "learn":
        return test_independence_by_learning(sampler, cfg.eps, BASE_DELTA if delta is None else delta, rng)
    run = {"2d": aug_independence_2d, "3d": aug_independence_3d, "d": aug_independence_d}[tester]
    return _run_at_delta(lambda r: run(sampler, pred, cfg, r), delta, rng)


@functools.cache
def _keep_freed_heap() -> None:
    """Sets glibc malloc's M_TOP_PAD to _TOP_PAD_BYTES, once per process; a no-op off glibc.

    glibc otherwise hands a trial's freed arrays back to the OS, and the next
    trial faults the same pages in again. With the pad each heap extension
    and trim keeps that much slack. Forked workers inherit the setting.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_TOP_PAD, _TOP_PAD_BYTES) != 1:
        warnings.warn("mallopt(M_TOP_PAD) failed; freed heap pages go back to the OS between trials", RuntimeWarning)


def run_single_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    _keep_freed_heap()
    rng = Rng(cfg.seed, (trial,))
    dist, natural = _build_instance(cfg.instance, rng.split(0))
    pred = _build_prediction(cfg.prediction, dist, natural)
    if cfg.alpha == "exact":
        alpha = min(1.0, max(0.0, tv_distance(dist, pred) + cfg.alpha_margin))
    else:
        alpha = float(cfg.alpha)

    tcfg = TesterConfig(eps=cfg.eps, alpha=alpha, profile=cfg.profile)

    start = time.perf_counter() if cfg.record_timing else 0.0
    verdict = _run_tester(cfg.tester, dist, pred, tcfg, cfg.delta, rng.split(1))
    ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timing else 0.0

    acct = verdict.account
    return TrialRecord(
        trial=trial,
        seed=cfg.seed,
        outcome=verdict.outcome.value,
        stage=verdict.stage,
        samples_total=acct.total,
        samples_flatten=acct.flattening,
        samples_norm=acct.norm,
        samples_closeness=acct.closeness,
        samples_learning=acct.learning,
        ms=ms,
    )


def worker_count(jobs: int, trials: int) -> int:
    """Shares a run splits into: jobs, capped by the trial count and the usable cores.

    The caller runs one share itself and a forked worker runs each other
    share; run_trials keeps the workers for later calls.
    """
    if hasattr(os, "sched_getaffinity"):  # absent on macOS
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(jobs, trials, cores)


def _run_share(cfg: ExperimentConfig, share: range) -> tuple[list[TrialRecord], tuple[int, Exception] | None]:
    """The share's records up to its first failing trial, and that trial's (index, exception) or None."""
    records = []
    for i in share:
        try:
            records.append(run_single_trial(cfg, i))
        except Exception as exc:
            return records, (i, exc)
    return records, None


@dataclass(slots=True)
class _Worker:
    """A forked worker: its pid, the write end of its job pipe and the read end of its result pipe."""

    pid: int
    jobs: BinaryIO
    results: BinaryIO
    code: int | None = None  # its exit code, once reaped

    def reap(self, block: bool = True) -> int | None:
        """The exit code, waiting for the worker to exit when block; None while it runs."""
        if self.code is None:
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            if pid:
                self.code = os.waitstatus_to_exitcode(status)
        return self.code


# The workers run_trials forked, in fork order, and _module_state() as it was
# when the first of them was forked.
_workers: list[_Worker] = []
_forked_with: list = []


def _serve(jobs: BinaryIO, results: BinaryIO) -> None:
    """A worker's loop: runs each (cfg, share) received on jobs and sends the _run_share result, until EOF."""
    while True:
        try:
            job = pickle.load(jobs)
        except (EOFError, pickle.UnpicklingError):  # a caller that died mid-message is EOF too
            return
        records, failure = _run_share(*job)
        if failure is not None:  # pickling drops the traceback; keep it as text
            trace = "".join(traceback.format_exception(failure[1]))
            failure[1].add_note(f"trial {failure[0]} raised in a forked worker:\n{trace}")
        pickle.dump((records, failure), results)
        results.flush()


def _fork_worker() -> _Worker:
    """Forks a worker that serves jobs until its job pipe reaches EOF.

    The worker always ends in os._exit, so it never returns into the
    caller's stack. It holds the write end of no job pipe, its own
    included, so once its caller is gone its job pipe is at EOF.
    """
    jobs_read, jobs_write = os.pipe()
    results_read, results_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (jobs_read, jobs_write, results_read, results_write):
            os.close(fd)
        raise
    if pid == 0:  # _forget_workers has closed the other workers' pipes
        code = 1
        try:
            os.close(jobs_write)
            os.close(results_read)
            _serve(open(jobs_read, "rb"), open(results_write, "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(jobs_read)
    os.close(results_write)
    return _Worker(pid, open(jobs_write, "wb"), open(results_read, "rb"))


def _module_state() -> list:
    """Each loaded module of this package and each class defined in one, followed by its attribute names and values.

    Held by reference and compared item by item with `is`, it tells whether
    any attribute was rebound since it was taken; the objects it holds stay
    alive, so no freed object's address can come back in their place.
    """
    state = []
    for name in [n for n in sys.modules if n == __package__ or n.startswith(__package__ + ".")]:
        module = sys.modules[name]
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
        for namespace in (module, *classes):
            attrs = vars(namespace)
            state.append(namespace)
            state.extend(attrs)
            state.extend(attrs.values())
    return state


def _forget_workers() -> None:
    """Closes every worker's pipes and forgets the workers, reaping none; what a fork of their owner runs."""
    for worker in _workers:
        worker.jobs.raw.close()  # close() would flush any bytes a failed send left, and raise again
        worker.results.close()
    _workers.clear()
    _forked_with.clear()


def _retire_workers() -> None:
    """Closes every worker's pipes, so that each exits at EOF, then reaps them."""
    workers = list(_workers)
    _forget_workers()
    for worker in workers:
        worker.reap()


@functools.cache
def _retire_at_exit() -> None:
    """Retires the workers at exit, and has each later fork forget them; once per process."""
    atexit.register(_retire_workers)
    os.register_at_fork(after_in_child=_forget_workers)


def _pool(size: int) -> list[_Worker]:
    """size running workers forked from the current module state, forking those missing.

    The workers are retired first when an attribute of this package was
    rebound since they were forked (a patched entry point must reach them),
    or when one of them has exited.
    """
    state = _module_state()
    stale = len(state) != len(_forked_with) or not all(map(operator.is_, state, _forked_with))
    if stale or any(worker.reap(block=False) is not None for worker in _workers):
        _retire_workers()
    if not _workers:
        _forked_with[:] = state
        _retire_at_exit()
    while len(_workers) < size:
        _workers.append(_fork_worker())
    return _workers[:size]


def run_trials(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Runs cfg.trials independent trials, split into worker_count shares.

    Trial i belongs to share i % workers. The caller runs share 0 itself
    and sends each other share to a forked worker. The workers are forked
    once and serve every later call with jobs > 1: fork carries in-process
    module state (such as patched entry points) into them without a
    re-import, and they are forked afresh once any attribute of an augtest
    module or class has been rebound since. They are retired (their pipes
    closed, each reaped) when a run fails and at exit; a worker whose caller
    dies exits at EOF on its job pipe. The workers serve one call at a time,
    so calls from several threads at once are not supported. A failing run
    raises the exception of its lowest-numbered failing trial, the same one
    a serial run raises.
    """
    workers = worker_count(cfg.jobs, cfg.trials)
    if workers == 1:
        return [run_single_trial(cfg, i) for i in range(cfg.trials)]
    shares = [range(s, cfg.trials, workers) for s in range(workers)]
    pool = _pool(workers - 1)
    results = []
    try:
        for worker, share in zip(pool, shares[1:]):
            pickle.dump((cfg, share), worker.jobs)
            worker.jobs.flush()
        results.append(_run_share(cfg, shares[0]))
        for worker, share in zip(pool, shares[1:]):
            try:
                results.append(pickle.load(worker.results))
            except (EOFError, pickle.UnpicklingError):  # it exited in a trial or before its whole result was sent
                error = RuntimeError(
                    f"the forked worker running trials from {share[0]} exited with code {worker.reap()},"
                    " sending no records"
                )
                results.append(([], (share[0], error)))
    finally:
        # A failed run retires every worker, also when the caller's own share raised.
        failures = [failure for _, failure in results if failure is not None]
        if failures or len(results) < workers:
            _retire_workers()
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    records = [None] * cfg.trials
    for share, (share_records, _) in zip(shares, results):
        records[share.start :: workers] = share_records
    return records


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95 %) for a binomial rate of successes out of trials."""
    successes, trials = _stream_key("successes", successes), _stream_key("trials", trials)
    if trials == 0:
        raise DomainError("trials must be positive")
    if successes > trials:
        raise DomainError(f"successes {successes} exceed trials {trials}")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # clamp against float drift so the point estimate always lies inside
    return (max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half)))


def summarize(records: Sequence[TrialRecord]) -> dict:
    n = len(records)
    totals = [r.samples_total for r in records]
    out: dict = {
        "trials": n,
        "mean_samples": float(np.mean(totals)),
        "median_samples": float(np.median(totals)),
    }
    for outcome in Outcome:
        count = sum(1 for r in records if r.outcome == outcome.value)
        lo, hi = wilson_interval(count, n)
        out[outcome.value] = {"count": count, "rate": count / n, "wilson95": [lo, hi]}
    return out


def _write_csv(csv_path: str, header: Sequence[str], rows) -> None:
    """Writes a header line and then each row, in the csv module's default dialect."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(records: Sequence[TrialRecord], csv_path: str) -> dict:
    """Writes the per-trial CSV and returns the summary dict."""
    _write_csv(csv_path, CSV_COLUMNS, (r.row() for r in records))
    return summarize(records)


def sweep_alpha(cfg: ExperimentConfig, alphas: Sequence[float]) -> list[dict]:
    """Reruns the experiment at each claimed-accuracy level, collecting rates."""
    levels = [replace(cfg, alpha=float(a)) for a in alphas]  # checks every level before any runs
    rows = []
    for level in levels:
        s = summarize(run_trials(level))
        rows.append(
            {
                "alpha": level.alpha,
                "mean_samples": s["mean_samples"],
                "accept_rate": s["accept"]["rate"],
                "reject_rate": s["reject"]["rate"],
                "inaccurate_rate": s["inaccurate_information"]["rate"],
            }
        )
    return rows


def emit_sweep(rows: Sequence[dict], csv_path: str) -> None:
    """Writes the sweep_alpha rows as a CSV in SWEEP_COLUMNS order."""
    _write_csv(csv_path, SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))
