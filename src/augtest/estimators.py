"""Sample-based estimators: squared l2 norm, two-stream closeness, learning.

All three follow the same amplification scheme: a cheap base routine with
constant failure probability is repeated ceil(8 * ln(1/delta)) times and
aggregated by median (norm) or majority (closeness). Sample draws are logged
into a SampleAccount in units of base joint draws.

When a sample view exposes its explicit law, batches are drawn at the count
level (multinomial, or per-symbol Poisson for Poissonized batches). Both
batching modes produce identically distributed statistics; the count level is
what makes desk-scale Monte-Carlo affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    ProductDomain,
    Rng,
    SampleAccount,
    tv_to_own_product,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Multipliers for the estimator sample sizes and thresholds.

    closeness_sample_mult and closeness_threshold_mult are frozen by the
    committed calibration run (scripts/calibrate_closeness.py); see
    calibration.json for the measured per-repetition error table.
    """

    norm_sample_mult: float = 4.0  # batch size T = this * ceil(sqrt(M))
    closeness_sample_mult: float = 2.0  # lambda = this * M * sqrt(b) / eps^2
    closeness_threshold_mult: float = 1.5  # reject when Z > this * lambda^2 eps^2 / M
    rep_mult: float = 1.0  # scales the ceil(8 ln(1/delta)) repetition count


def repetitions(delta: float, cfg: EstimatorConfig) -> int:
    """Repetition count ceil(8 * rep_mult * ln(1/delta)), at least 1."""
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(8.0 * cfg.rep_mult * math.log(1.0 / delta)))


@dataclass
class VectorSampler:
    """1-D sample view over [M] backed by an explicit mass vector."""

    probs: np.ndarray
    cost: int = 1

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        self.size = self.probs.size
        self._cum = np.cumsum(self.probs)

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        u = rng.gen.random(count)
        flat = np.searchsorted(self._cum, u, side="right")
        return np.clip(flat, 0, self.size - 1)


def _law(view) -> np.ndarray | None:
    """The view's explicit law normalized to sum 1, or None when it can only draw."""
    if view.probs is None:
        return None
    pv = np.asarray(view.probs, dtype=np.float64)
    return pv / pv.sum()


def _batch_counts(view, law: np.ndarray | None, total: int, rng: Rng) -> np.ndarray:
    """Counts of `total` i.i.d. draws from the view, as a length-size vector."""
    if law is not None:
        return rng.gen.multinomial(total, law)
    draws = view.draw(total, rng)
    return np.bincount(draws, minlength=view.size)


def _poissonized_counts(view, law: np.ndarray | None, lam: float, rng: Rng) -> np.ndarray:
    """Per-symbol counts of a Poi(lam)-sized batch; entries are Poi(lam * p_i)."""
    if law is not None:
        return rng.gen.poisson(lam * law)
    k = int(rng.split(0).gen.poisson(lam))
    draws = view.draw(k, rng.split(1))
    return np.bincount(draws, minlength=view.size)


def estimate_l2_squared(
    view,
    M: int,
    delta: float,
    cfg: EstimatorConfig,
    rng: Rng,
    account: SampleAccount | None = None,
    stage: str = "norm",
) -> float:
    """Estimates the squared l2 norm of the view's law within [1/2, 3/2] w.p. >= 1 - delta.

    Each repetition draws a batch of T = norm_sample_mult * ceil(sqrt(M))
    samples and computes the unbiased collision statistic
    sum_i X_i (X_i - 1) / (T (T - 1)); the median over repetitions is returned.
    """
    if M < 1:
        raise DomainError("domain size must be >= 1")
    T = max(2, math.ceil(cfg.norm_sample_mult * math.ceil(math.sqrt(M))))
    r = repetitions(delta, cfg)
    law = _law(view)
    ests = np.empty(r)
    for j in range(r):
        counts = _batch_counts(view, law, T, rng.split(j))
        ests[j] = float(np.dot(counts, counts - 1)) / (T * (T - 1))
    if account is not None:
        account.add(stage, T * r * view.cost)
    return float(np.median(ests))


def closeness_params(M: int, b: float, eps: float, cfg: EstimatorConfig) -> tuple[float, float]:
    """Per-repetition Poisson rate and reject threshold used by closeness_test.

    b is clamped to 1: every mass vector has l2^2 <= 1, so the clamp preserves
    the norm-bound precondition while avoiding inflated batch sizes.
    """
    if not 0 < eps <= 2:
        raise DomainError(f"eps must be in (0, 2], got {eps}")
    if b <= 0:
        raise DomainError(f"norm bound b must be positive, got {b}")
    b_eff = min(float(b), 1.0)
    lam = cfg.closeness_sample_mult * M * math.sqrt(b_eff) / (eps * eps)
    threshold = cfg.closeness_threshold_mult * lam * lam * eps * eps / M
    return lam, threshold


def closeness_test(
    view_p,
    view_q,
    M: int,
    b: float,
    eps: float,
    delta: float,
    cfg: EstimatorConfig,
    rng: Rng,
    account: SampleAccount | None = None,
) -> bool:
    """Tests p = q against tv(p, q) >= eps for laws with min l2^2 <= b.

    Each repetition draws Poissonized count vectors X, Y with expected batch
    size lambda = closeness_sample_mult * M * sqrt(b) / eps^2 per stream and
    rejects when Z = sum (X_i - Y_i)^2 - X_i - Y_i exceeds
    closeness_threshold_mult * lambda^2 eps^2 / M (E[Z] = lambda^2 ||p - q||_2^2,
    and tv >= eps forces ||p - q||_2^2 >= 4 eps^2 / M). Majority vote over
    repetitions; ties reject. Returns True to accept p = q.
    """
    lam, threshold = closeness_params(M, b, eps, cfg)
    r = repetitions(delta, cfg)
    law_p, law_q = _law(view_p), _law(view_q)
    rejects = 0
    used_p = 0
    used_q = 0
    for j in range(r):
        x = _poissonized_counts(view_p, law_p, lam, rng.split(2 * j))
        y = _poissonized_counts(view_q, law_q, lam, rng.split(2 * j + 1))
        used_p += int(x.sum())
        used_q += int(y.sum())
        d = x.astype(np.float64) - y
        # A ufunc reduction, not np.dot: a float dot is a BLAS call, which
        # multi-threads on large M and oversubscribes cores that parallel
        # trials already fill. The terms are integers, so the sum is exact.
        z = float(np.square(d).sum() - x.sum() - y.sum())
        if z > threshold:
            rejects += 1
    if account is not None:
        account.add("closeness", used_p * view_p.cost + used_q * view_q.cost)
    return 2 * rejects < r


def learn_empirical(
    sampler,
    domain: ProductDomain,
    t: int,
    rng: Rng,
    account: SampleAccount | None = None,
) -> JointDistribution:
    """Empirical histogram of t draws, as an exact rational-count distribution."""
    if t < 1:
        raise DomainError("sample size t must be >= 1")
    dist = getattr(sampler, "dist", None)
    if dist is not None:
        counts = rng.gen.multinomial(t, dist.probs / dist.probs.sum())
    else:
        rows = sampler.draw(t, rng)
        flat = np.ravel_multi_index(tuple(np.asarray(rows).T), domain.dims)
        counts = np.bincount(flat, minlength=domain.size)
    if account is not None:
        account.add("learning", t * getattr(sampler, "cost", 1))
    return JointDistribution(domain, counts.astype(np.float64) / t)


def empirical_tv_to_product(
    emp: JointDistribution, grouping: Sequence[Sequence[int]] | None = None
) -> float:
    """tv distance from an empirical distribution to the product of its marginals."""
    return tv_to_own_product(emp, grouping)
