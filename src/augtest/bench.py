"""Monte-Carlo benchmark harness: repeated tester trials, rates, CSV reports.

A run is fully determined by (config, seed): trial i uses the derived stream
Rng(seed, (i,)), so results are reproducible byte-for-byte regardless of the
--jobs level. With jobs > 1 the trials run in forked worker processes, at most
one per available core. Wall-time measurement is opt-in (record_timing)
because it is the one field that would break byte-identical reruns.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    ProductDomain,
    Rng,
    load_distribution,
    tv_distance,
)
from .estimators import EstimatorConfig
from .hard_instances import embed_hard_to_d, gen_valid_hard_2d, gen_hard_2d, poissonized_counts, validity_check
from .testers import (
    Outcome,
    TesterConfig,
    Verdict,
    amplify,
    aug_independence_2d,
    aug_independence_3d,
    aug_independence_d,
    test_independence_by_learning,
)

CSV_COLUMNS = [
    "trial",
    "seed",
    "outcome",
    "stage",
    "samples_total",
    "samples_flatten",
    "samples_norm",
    "samples_closeness",
    "samples_learning",
    "ms",
]

SWEEP_COLUMNS = ["alpha", "mean_samples", "accept_rate", "reject_rate", "inaccurate_rate"]


@dataclass
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
        return [
            self.trial,
            self.seed,
            self.outcome,
            self.stage,
            self.samples_total,
            self.samples_flatten,
            self.samples_norm,
            self.samples_closeness,
            self.samples_learning,
            f"{self.ms:.3f}",
        ]


@dataclass
class ExperimentConfig:
    tester: str
    trials: int
    seed: int
    eps: float
    instance: dict
    alpha: float | str = 0.0  # numeric, or "exact" for per-trial tv(p, pred)
    alpha_margin: float = 0.0  # added to "exact" alpha
    delta: float | None = None  # < 0.1 runs amplified
    profile: str = "practical"
    prediction: str | dict = "exact"
    jobs: int = 1
    record_timing: bool = False
    estimator: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tester not in ("2d", "3d", "d", "learn"):
            raise DomainError(f"unknown tester {self.tester!r}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DomainError(f"unknown config keys: {sorted(extra)}")
        return ExperimentConfig(**obj)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(**self.estimator)


def _correlated_pair(size: int) -> JointDistribution:
    t = np.zeros((size, size))
    np.fill_diagonal(t, 1.0 / size)
    return JointDistribution.from_table(t)


def _build_instance(desc: dict, rng: Rng) -> tuple[JointDistribution, JointDistribution | None]:
    """Returns (distribution, natural prediction or None)."""
    kind = desc.get("kind")
    if kind == "uniform":
        p = JointDistribution.uniform(desc["dims"])
        return p, p
    if kind == "file":
        return load_distribution(desc["path"]), None
    if kind == "correlated":
        return _correlated_pair(int(desc["size"])), None
    if kind == "product_random":
        dims = desc["dims"]
        acc = np.ones(1)
        for d in dims:
            acc = np.multiply.outer(acc, rng.gen.dirichlet(np.ones(d)))
        p = JointDistribution(ProductDomain(tuple(dims)), acc.reshape(-1))
        return p, None
    if kind == "hard2d":
        force_x = desc.get("force_x")
        if desc.get("require_valid", True):
            inst, _, _ = gen_valid_hard_2d(
                desc["n"], desc["m"], desc["k"], desc["alpha"], desc["eps"], rng, force_x=force_x
            )
        else:
            inst = gen_hard_2d(
                desc["n"], desc["m"], desc["k"], desc["alpha"], desc["eps"], rng, force_x=force_x
            )
        if "embed_dims" in desc:
            return embed_hard_to_d(inst, desc["embed_dims"])
        return inst.p, inst.prediction
    raise DomainError(f"unknown instance kind {kind!r}")


def _build_prediction(
    choice: str | dict, dist: JointDistribution, natural: JointDistribution | None
) -> JointDistribution:
    if isinstance(choice, dict):
        if "file" in choice:
            return load_distribution(choice["file"])
        raise DomainError(f"unknown prediction mapping {choice!r}")
    if choice == "exact":
        return dist
    if choice == "natural":
        if natural is None:
            raise DomainError("instance kind has no natural prediction")
        return natural
    if choice == "uniform":
        return JointDistribution.uniform(dist.dims)
    if choice == "point_mass":
        probs = np.zeros(dist.domain.size)
        probs[0] = 1.0
        return JointDistribution(dist.domain, probs)
    raise DomainError(f"unknown prediction {choice!r}")


def run_single_trial(cfg: ExperimentConfig, trial: int, alpha_override: float | None = None) -> TrialRecord:
    rng = Rng(cfg.seed, (trial,))
    dist, natural = _build_instance(cfg.instance, rng.split(0))
    pred = _build_prediction(cfg.prediction, dist, natural)
    if alpha_override is not None:
        alpha = alpha_override
    elif cfg.alpha == "exact":
        alpha = min(1.0, tv_distance(dist, pred) + cfg.alpha_margin)
    else:
        alpha = float(cfg.alpha)

    tcfg = TesterConfig(
        eps=cfg.eps, alpha=alpha, profile=cfg.profile, estimator=cfg.estimator_config()
    )
    sampler = JointSampler(dist)

    def run(r: Rng) -> Verdict:
        if cfg.tester == "2d":
            return aug_independence_2d(sampler, pred, tcfg, r)
        if cfg.tester == "3d":
            return aug_independence_3d(sampler, pred, tcfg, r)
        if cfg.tester == "d":
            return aug_independence_d(sampler, pred, tcfg, r)
        return test_independence_by_learning(sampler, cfg.eps, cfg.delta or 0.1, r)

    start = time.perf_counter() if cfg.record_timing else 0.0
    if cfg.delta is not None and cfg.delta < 0.1 and cfg.tester != "learn":
        verdict = amplify(run, cfg.delta, rng.split(1))
    else:
        verdict = run(rng.split(1))
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
    """Worker processes for a run: jobs, capped by the trial count and the available cores."""
    if hasattr(os, "sched_getaffinity"):  # absent on macOS
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(jobs, trials, cores)


def run_trials(cfg: ExperimentConfig, alpha_override: float | None = None) -> list[TrialRecord]:
    """Runs cfg.trials independent trials, in up to cfg.jobs forked worker processes.

    Fork carries in-process module state (such as patched entry points) into
    the workers without a re-import. One worker runs the trials in-process.
    """
    trial = functools.partial(run_single_trial, cfg, alpha_override=alpha_override)
    workers = worker_count(cfg.jobs, cfg.trials)
    if workers > 1:
        # Imported here so that serial runs and the verdict commands skip it.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork")) as pool:
            records = list(pool.map(trial, range(cfg.trials)))
    else:
        records = [trial(i) for i in range(cfg.trials)]
    records.sort(key=lambda r: r.trial)
    return records


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial rate."""
    if trials <= 0:
        raise DomainError("trials must be positive")
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


def emit_report(records: Sequence[TrialRecord], csv_path: str) -> dict:
    """Writes the per-trial CSV and returns the summary dict."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.row())
    return summarize(records)


def sweep_alpha(cfg: ExperimentConfig, alphas: Sequence[float]) -> list[dict]:
    """Reruns the experiment at each claimed-accuracy level, collecting rates."""
    rows = []
    for a in alphas:
        records = run_trials(cfg, alpha_override=float(a))
        s = summarize(records)
        rows.append(
            {
                "alpha": float(a),
                "mean_samples": s["mean_samples"],
                "accept_rate": s["accept"]["rate"],
                "reject_rate": s["reject"]["rate"],
                "inaccurate_rate": s["inaccurate_information"]["rate"],
            }
        )
    return rows


def emit_sweep(rows: Sequence[dict], csv_path: str) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:
            writer.writerow([r[c] for c in SWEEP_COLUMNS])
