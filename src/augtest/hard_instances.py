"""Generator for the two-axis lower-bound family with a hidden bit.

The family embeds a bit X into a distribution over [n] x [m] that a tester
receiving a uniform prediction must recover: X=0 gives an exactly-product
distribution close to uniform, X=1 gives a distribution far from every
product. Rows are scaled by c_i, which is 1/k ("heavy") with probability
alpha_meas * k / n and 1/n ("light") otherwise; when X=1 the light rows are
perturbed entrywise by fair signs of magnitude eps_meas.

Derived quantities: Q(i,j) = c_i P(i,j), s_i = sum_j P(i,j), C = sum_i c_i,
p(i,j) = Q(i,j) / (s_i C). Sample counts are Poissonized: a_ij ~ Poi(k Q(i,j)).

Validity is checked against the concentration events the guarantee
conditions on, plus exact total-variation certificates for the two
conclusions (X=0: product and tv-to-uniform <= alpha; X=1: tv to the product
of own marginals >= 3 eps, which certifies eps-farness from every product).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    Rng,
    _check_finite,
    _stream_key,
    product_of_marginals,
    split_axis,
    tv_distance,
    tv_to_own_product,
)

_MAX_TRIES = 50  # gen_valid_hard_2d's draw budget; each draw passes validity_check w.p. >= 0.95

# Above this eps the measured perturbation 192*eps would exceed 1 and produce
# negative masses; the construction admits eps <= 1/192.
EPS_REGIME_MAX = 1.0 / 192.0


@dataclass
class HardInstance:
    n: int
    m: int
    k: int
    x: int
    alpha: float
    eps: float
    alpha_meas: float
    eps_meas: float
    c: np.ndarray  # row scalars, len n
    heavy: np.ndarray  # indices with c_i = 1/k
    signs: np.ndarray | None  # (n, m) in {-1, 0, +1}; nonzero on light rows iff x=1
    P: np.ndarray  # (n, m) row family
    Q: np.ndarray  # c_i * P(i, j)
    row_sums: np.ndarray  # s_i
    C: float
    p: JointDistribution
    prediction: JointDistribution  # uniform over [n] x [m]
    regime_ok: bool

    def meta(self, seed: int | None = None) -> dict:
        out = {
            "x": int(self.x),
            "heavy_rows": [int(i) for i in self.heavy],
            "k": self.k,
            "eps_meas": self.eps_meas,
            "alpha_meas": self.alpha_meas,
        }
        if seed is not None:
            out["seed"] = seed
        return out


@dataclass
class ValidityReport:
    valid: bool
    row_signs_ok: bool  # (a) per light row |sum_j signs/m| within target
    col_signs_ok: bool  # (b) per column |sum_{light i} signs/n| within target
    heavy_count_ok: bool  # (c) |H| <= 1.5 * alpha_meas * k
    sample_count_ok: bool  # (d) |S| >= k / 100
    tv_ok: bool  # exact-TV certificate for the x-conclusion
    product_exact_ok: bool  # x=0 only: rank-1 within 1e-12
    max_row_dev: float
    max_col_dev: float
    row_target: float
    col_target: float
    heavy_count: int
    sample_count: int
    tv_to_uniform: float
    tv_to_marg_product: float
    q_l1: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_hard_params(
    n: int, m: int, k: int, alpha: float, eps: float, force_x=None, eps_meas=None, alpha_meas=None
) -> tuple[float, float]:
    """Checks gen_hard_2d's arguments; returns (eps_meas, alpha_meas) with their defaults filled in."""
    n, m, k = (_stream_key(name, value) for name, value in (("n", n), ("m", m), ("k", k)))
    for name, value in (("eps_meas", eps_meas), ("alpha_meas", alpha_meas)):
        if value is not None:  # None picks a measured value's default
            _check_finite(name, value)
    if force_x is not None and _stream_key("force_x", force_x) not in (0, 1):
        raise DomainError(f"force_x must be 0 or 1, got {force_x!r}")
    if not (n >= m >= 2):
        raise DomainError(f"need n >= m >= 2, got n={n}, m={m}")
    if not (1 <= k <= n / 2):
        raise DomainError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    _check_finite("alpha", alpha, "(0, 1]")
    _check_finite("eps", eps, "(0, 1]")
    if eps_meas is None:
        if eps > EPS_REGIME_MAX:
            raise DomainError(
                f"eps={eps} above the regime bound {EPS_REGIME_MAX:.6f}; "
                "pass eps_meas explicitly to override"
            )
        eps_meas = 192.0 * eps
    if alpha_meas is None:
        alpha_meas = 2.0 * alpha / 3.0
    _check_finite("eps_meas", eps_meas, "[0, 1]")
    if alpha_meas * k / n > 1:
        raise DomainError(f"alpha_meas*k/n = {alpha_meas * k / n} exceeds 1")
    return eps_meas, alpha_meas


def gen_hard_2d(
    n: int,
    m: int,
    k: int,
    alpha: float,
    eps: float,
    rng: Rng,
    force_x: int | None = None,
    eps_meas: float | None = None,
    alpha_meas: float | None = None,
) -> HardInstance:
    """Draws one hard instance.

    eps_meas and alpha_meas default to 192*eps and (2/3)*alpha. Passing either
    explicitly is the expert override for out-of-regime experiments; the
    instance is then flagged regime_ok=False and the validity guarantees are
    void. The arguments must pass `check_hard_params`.
    """
    regime_ok = eps_meas is None and alpha_meas is None
    eps_meas, alpha_meas = check_hard_params(n, m, k, alpha, eps, force_x, eps_meas, alpha_meas)
    heavy_prob = alpha_meas * k / n
    if m < math.log(n):
        warnings.warn(f"m={m} below log(n)={math.log(n):.2f}; outside the guarantee regime")
        regime_ok = False

    x = int(force_x) if force_x is not None else int(rng.gen.integers(0, 2))

    heavy_mask = rng.gen.random(n) < heavy_prob
    c = np.where(heavy_mask, 1.0 / k, 1.0 / n)
    heavy = np.flatnonzero(heavy_mask)

    P = np.full((n, m), 1.0 / m)
    signs = None
    if x == 1:
        signs = np.zeros((n, m), dtype=np.int64)
        light = ~heavy_mask
        signs[light] = rng.gen.integers(0, 2, size=(int(light.sum()), m)) * 2 - 1
        P = (1.0 + eps_meas * signs) / m

    Q = c[:, None] * P
    row_sums = P.sum(axis=1)
    C = float(c.sum())
    # At eps_meas = 1 an all-minus row has sum 0 and carries no mass; the
    # guarded divide leaves it empty and the renormalization shifts its row
    # weight onto the rest. Off that boundary the sum is exactly 1.
    denom = row_sums[:, None] * C
    mass = np.divide(Q, denom, out=np.zeros_like(Q), where=denom > 0)
    mass = mass / mass.sum()
    p = JointDistribution((n, m), mass.reshape(-1))
    prediction = JointDistribution.uniform((n, m))

    return HardInstance(
        n=n,
        m=m,
        k=k,
        x=x,
        alpha=alpha,
        eps=eps,
        alpha_meas=float(alpha_meas),
        eps_meas=float(eps_meas),
        c=c,
        heavy=heavy,
        signs=signs,
        P=P,
        Q=Q,
        row_sums=row_sums,
        C=C,
        p=p,
        prediction=prediction,
        regime_ok=regime_ok,
    )


def poissonized_counts(inst: HardInstance, rng: Rng) -> np.ndarray:
    """Sample-count matrix a_ij ~ Poi(k * Q(i, j)), the lower-bound sample model."""
    return rng.gen.poisson(inst.k * inst.Q)


def rank_one_gap(p: JointDistribution) -> float:
    """Max absolute gap between a distribution and the product of its marginals."""
    return float(np.abs(p.probs - product_of_marginals(p).probs).max())


def validity_check(inst: HardInstance, counts: np.ndarray) -> ValidityReport:
    """Evaluates the concentration events plus the exact-TV certificates.

    Events (a)/(b) use the concentration targets eps_meas*sqrt((2/m)ln(50n))
    per light row and eps_meas*sqrt((2/n)ln(50m)) per column, which is what
    the sign draws satisfy with probability >= 0.95 at any scale. The
    conclusions the events exist to support are certified directly:
    x=0 instances must be exactly product (rank-1 within 1e-12) with
    tv(p, uniform) <= alpha; x=1 instances must have
    tv(p, marginal product) >= 3*eps, which implies eps-farness from every
    product distribution.
    """
    counts = np.asarray(counts)
    if counts.shape != (inst.n, inst.m):
        raise DomainError(f"counts shape {counts.shape} != ({inst.n}, {inst.m})")

    row_target = inst.eps_meas * math.sqrt((2.0 / inst.m) * math.log(50.0 * inst.n))
    col_target = inst.eps_meas * math.sqrt((2.0 / inst.n) * math.log(50.0 * inst.m))
    if inst.signs is not None:
        dev = inst.eps_meas * inst.signs
        max_row_dev = float(np.abs(dev.sum(axis=1) / inst.m).max())
        max_col_dev = float(np.abs(dev.sum(axis=0) / inst.n).max())
    else:
        max_row_dev = 0.0
        max_col_dev = 0.0
    row_signs_ok = max_row_dev <= row_target
    col_signs_ok = max_col_dev <= col_target

    heavy_count = int(inst.heavy.size)
    heavy_count_ok = heavy_count <= 1.5 * inst.alpha_meas * inst.k
    sample_count = int(counts.sum())
    sample_count_ok = sample_count >= inst.k / 100.0

    tv_to_uniform = tv_distance(inst.p, inst.prediction)
    tv_to_marg_product = tv_to_own_product(inst.p)
    if inst.x == 0:
        product_exact_ok = rank_one_gap(inst.p) <= 1e-12
        tv_ok = product_exact_ok and tv_to_uniform <= inst.alpha
    else:
        product_exact_ok = True  # not applicable
        tv_ok = tv_to_marg_product >= 3.0 * inst.eps

    valid = row_signs_ok and col_signs_ok and heavy_count_ok and sample_count_ok and tv_ok
    return ValidityReport(
        row_signs_ok=row_signs_ok,
        col_signs_ok=col_signs_ok,
        heavy_count_ok=heavy_count_ok,
        sample_count_ok=sample_count_ok,
        tv_ok=tv_ok,
        product_exact_ok=product_exact_ok,
        max_row_dev=max_row_dev,
        max_col_dev=max_col_dev,
        row_target=row_target,
        col_target=col_target,
        heavy_count=heavy_count,
        sample_count=sample_count,
        tv_to_uniform=float(tv_to_uniform),
        tv_to_marg_product=float(tv_to_marg_product),
        q_l1=float(np.abs(inst.Q).sum()),
        valid=valid,
    )


def gen_valid_hard_2d(
    n: int,
    m: int,
    k: int,
    alpha: float,
    eps: float,
    rng: Rng,
    force_x: int | None = None,
) -> tuple[HardInstance, np.ndarray, ValidityReport]:
    """Redraws until validity_check passes, at most _MAX_TRIES times; the pass rate is >= 0.95 by design."""
    for t in range(_MAX_TRIES):
        sub = rng.split(t)
        inst = gen_hard_2d(n, m, k, alpha, eps, sub.split(0), force_x=force_x)
        counts = poissonized_counts(inst, sub.split(1))
        report = validity_check(inst, counts)
        if report.valid:
            return inst, counts, report
    raise RuntimeError(f"no valid instance in {_MAX_TRIES} draws; parameters off-regime?")


def embed_hard_to_d(
    inst: HardInstance, target_dims: Sequence[int]
) -> tuple[JointDistribution, JointDistribution]:
    """Reshapes a 2-axis instance to [n] x target_dims by splitting the second axis.

    The reindexing is bijective, so tv distances and product structure carry
    over exactly; the uniform prediction stays uniform. Returns the reshaped
    distribution and prediction.
    """
    p_d = split_axis(inst.p, 1, target_dims)
    return p_d, JointDistribution.uniform(p_d.dims)
