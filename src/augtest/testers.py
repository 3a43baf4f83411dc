"""Prediction-assisted independence testers.

Given sample access to an unknown joint distribution p, a predicted
distribution pred, and a claimed accuracy alpha with tv(p, pred) <= alpha,
the testers distinguish product distributions from distributions eps-far (in
tv) from every product, with a third verdict InaccurateInformation that is
only permitted when the claimed accuracy is violated. Each failure mode has
probability at most 0.1.

Pipeline for 2 and 3 axes: Poissonized per-axis sample sizes with a cap
check, prediction-assisted flattening of every axis, an l2 gate on each
flattened marginal (fires InaccurateInformation), an l2 gate on the flattened
joint (fires Reject), and finally an l1 closeness test between the flattened
joint and the product of flattened marginals. Higher arities are reduced to a
grouped 2- or 3-axis instance plus learning-based tests inside the grouped
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    ProductDomain,
    Rng,
    SampleAccount,
    marginal,
    merge_axes,
    merge_index,
    poisson,
)
from .estimators import (
    EstimatorConfig,
    closeness_test,
    empirical_tv_to_product,
    estimate_l2_squared,
    learn_empirical,
)
from .flattening import (
    ProductFlattening,
    build_axis_flattening,
    flattened_axis_view,
    flattened_joint_view,
    flattened_product_view,
)


class Outcome(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    INACCURATE = "inaccurate_information"


@dataclass
class Verdict:
    outcome: Outcome
    stage: str  # the stage whose check decided the run
    stage_log: list[str]  # ordered stages entered
    account: SampleAccount
    detail: dict = field(default_factory=dict)

    def to_json(self, seed: int | None = None) -> dict:
        out = {
            "outcome": self.outcome.value,
            "samples": self.account.as_dict(),
            "stage": self.stage,
        }
        if seed is not None:
            out["seed"] = seed
        return out


# ---------------------------------------------------------------------------
# Profiles

# (norm gate multiplier, Poisson cap multiplier) per (profile, arity). The
# theory values are the ones the soundness proofs use; the practical values
# keep the identical control flow and gate structure at desk-scale sample
# sizes (3-axis values scale the 2-axis ones by the same 1.5x ratio the
# theory constants use).
_PROFILE_GATES = {
    ("theory", 2): (120.0, 160.0),
    ("practical", 2): (6.0, 8.0),
    ("theory", 3): (180.0, 240.0),
    ("practical", 3): (9.0, 12.0),
}

# Sub-confidences are structural, not profile-dependent: per-axis and joint
# norm estimates, then the closeness call.
_NORM_DELTA = {2: 1.0 / 120.0, 3: 1.0 / 180.0}
_CLOSENESS_DELTA = {2: 1.0 / 80.0, 3: 1.0 / 120.0}


@dataclass(frozen=True)
class TesterConfig:
    """Parameters shared by all testers.

    alpha is the claimed tv accuracy of the prediction; eps the farness
    proximity. profile selects the gate constants; explicit gate/cap
    overrides win over the profile when set.
    """

    eps: float
    alpha: float
    profile: str = "practical"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    norm_gate: float | None = None
    poisson_cap: float | None = None

    def gates(self, arity: int) -> tuple[float, float]:
        if self.profile not in ("theory", "practical"):
            raise DomainError(f"unknown profile {self.profile!r}")
        gate, cap = _PROFILE_GATES[(self.profile, arity)]
        if self.norm_gate is not None:
            gate = float(self.norm_gate)
        if self.poisson_cap is not None:
            cap = float(self.poisson_cap)
        return gate, cap

    def validate(self) -> None:
        if not 0 < self.eps <= 1:
            raise DomainError(f"eps must be in (0, 1], got {self.eps}")
        if not 0 <= self.alpha <= 1:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass
class TesterHooks:
    """Injection seam: the three stochastic primitives the gate logic consumes.

    Tests script these to drive every branch deterministically; defaults call
    the real implementations.
    """

    poisson: Callable = poisson
    norm: Callable = estimate_l2_squared
    closeness: Callable = closeness_test


_DEFAULT_HOOKS = TesterHooks()


# ---------------------------------------------------------------------------
# Sampler wrappers


def as_sampler(obj):
    """Accepts a JointDistribution or any draw/dims sampler."""
    if isinstance(obj, JointDistribution):
        return JointSampler(obj)
    if not hasattr(obj, "draw") or not hasattr(obj, "dims"):
        raise DomainError("sampler must expose draw(count, rng) and dims")
    return obj


class PermutedSampler:
    """Axis-permuted view of a sampler: coordinate i comes from axis perm[i]."""

    def __init__(self, base, perm: Sequence[int]):
        self.base = base
        self.perm = tuple(int(a) for a in perm)
        self.dims = tuple(base.dims[a] for a in self.perm)
        self.cost = getattr(base, "cost", 1)
        inner = getattr(base, "dist", None)
        self.dist = (
            merge_axes(inner, [[a] for a in self.perm]) if inner is not None else None
        )

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        return self.base.draw(count, rng)[:, self.perm]


class GroupedSampler:
    """View that merges axis blocks into single coordinates, row-major."""

    def __init__(self, base, blocks: Sequence[Sequence[int]]):
        self.base = base
        self.blocks = [list(b) for b in blocks]
        self.dims = tuple(
            math.prod(base.dims[a] for a in blk) for blk in self.blocks
        )
        self.cost = getattr(base, "cost", 1)
        inner = getattr(base, "dist", None)
        self.dist = merge_axes(inner, self.blocks) if inner is not None else None

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        rows = self.base.draw(count, rng)
        return merge_index(rows, self.base.dims, self.blocks)


class ProjectedSampler:
    """View of a sampler projected onto an axis subset (marginal sampling)."""

    def __init__(self, base, axes: Sequence[int]):
        self.base = base
        self.axes = [int(a) for a in axes]
        self.dims = tuple(base.dims[a] for a in self.axes)
        self.cost = getattr(base, "cost", 1)
        inner = getattr(base, "dist", None)
        self.dist = marginal(inner, self.axes) if inner is not None else None

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        return self.base.draw(count, rng)[:, self.axes]


def _descending_view(sampler, pred):
    """Sorts axes so sizes descend (stable), permuting sampler and prediction."""
    dims = sampler.dims
    perm = tuple(int(a) for a in np.argsort([-d for d in dims], kind="stable"))
    if perm == tuple(range(len(dims))):
        return sampler, pred
    return PermutedSampler(sampler, perm), merge_axes(pred, [[a] for a in perm])


# ---------------------------------------------------------------------------
# Shared 2/3-axis pipeline


def _flatten_pipeline(sampler, pred, cfg: TesterConfig, rng: Rng, hooks: TesterHooks) -> Verdict:
    dims = sampler.dims
    arity = len(dims)
    gate, cap = cfg.gates(arity)
    norm_delta = _NORM_DELTA[arity]
    close_delta = _CLOSENESS_DELTA[arity]
    eps, alpha = cfg.eps, cfg.alpha
    est = cfg.estimator
    account = SampleAccount()
    stage_log: list[str] = []
    detail: dict = {"dims": dims, "profile": cfg.profile}

    # Poissonized per-axis sample sizes, clamped below at 1 so tau stays finite.
    n1 = dims[0]
    rest = math.prod(dims[1:])
    s = [
        max(
            1.0,
            min(
                n1 ** (2.0 / 3.0) * rest ** (1.0 / 3.0) * alpha ** (1.0 / 3.0) / eps ** (4.0 / 3.0),
                n1 * alpha,
            ),
        )
    ]
    s += [max(1.0, d * alpha) for d in dims[1:]]
    tau = [2.0 * alpha / s[l] + 4.0 / dims[l] for l in range(arity)]
    detail["s"] = s
    detail["tau"] = tau

    stage_log.append("poisson_cap")
    shat = [hooks.poisson(s[l], rng.split(l)) for l in range(arity)]
    detail["s_hat"] = shat
    if any(shat[l] > cap * s[l] for l in range(arity)):
        return Verdict(Outcome.REJECT, "poisson_cap", stage_log, account, detail)

    # Flattening: each axis consumes its own projected joint draws.
    stage_log.append("flattening")
    flats = []
    for l in range(arity):
        rows = sampler.draw(shat[l], rng.split(10 + l))
        counts = np.bincount(rows[:, l], minlength=dims[l])
        account.add("flattening", shat[l])
        flats.append(build_axis_flattening(marginal(pred, [l]).probs, counts))
    pf = ProductFlattening(flats)
    detail["flat_dims"] = pf.flat_dims

    # Per-axis norm gate: an oversized flattened marginal betrays a violated
    # accuracy claim, the one case InaccurateInformation is allowed.
    stage_log.append("norm_gate")
    marg_norms = []
    for l in range(arity):
        view = flattened_axis_view(sampler, l, flats[l])
        marg_norms.append(
            hooks.norm(view, flats[l].flat_size, norm_delta, est, rng.split(20 + l), account)
        )
    detail["marginal_norms"] = marg_norms
    if any(marg_norms[l] > gate * tau[l] for l in range(arity)):
        return Verdict(Outcome.INACCURATE, "norm_gate", stage_log, account, detail)

    # Joint norm gate: a product of small-norm marginals has small joint norm,
    # so an oversized joint flattened norm is evidence against independence.
    stage_log.append("joint_norm")
    tau_prod = math.prod(tau)
    joint_reject = (10.0 * gate * gate) if arity == 2 else (6.0 * gate ** 3)
    closeness_b = (4.0 * gate * gate) if arity == 2 else (6.0 * gate ** 3)
    # One view serves both the joint norm and closeness: it holds the dense
    # flattened joint law, the largest array a run builds.
    joint_view = flattened_joint_view(sampler, pf)
    joint_norm = hooks.norm(joint_view, pf.flat_size, norm_delta, est, rng.split(30), account)
    detail["joint_norm"] = joint_norm
    if joint_norm > joint_reject * tau_prod:
        return Verdict(Outcome.REJECT, "joint_norm", stage_log, account, detail)

    # l1 closeness between the flattened joint and the product of flattened
    # marginals; flattening preserved the tv gap.
    stage_log.append("closeness")
    ok = hooks.closeness(
        joint_view,
        flattened_product_view(sampler, pf),
        pf.flat_size,
        closeness_b * tau_prod,
        eps,
        close_delta,
        est,
        rng.split(31),
        account,
    )
    outcome = Outcome.ACCEPT if ok else Outcome.REJECT
    return Verdict(outcome, "closeness", stage_log, account, detail)


def _check_inputs(sampler, pred, arity: int) -> None:
    if len(sampler.dims) != arity:
        raise DomainError(f"expected {arity} axes, got dims {sampler.dims}")
    if pred.dims != tuple(sampler.dims):
        raise DomainError(f"prediction dims {pred.dims} != input dims {tuple(sampler.dims)}")


def aug_independence_2d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """Two-axis prediction-assisted independence tester.

    Axes are swapped internally so the first is the larger; the verdict is
    orientation-independent.
    """
    cfg.validate()
    sampler = as_sampler(sampler)
    _check_inputs(sampler, pred, 2)
    sampler, pred = _descending_view(sampler, pred)
    return _flatten_pipeline(sampler, pred, cfg, rng, hooks or _DEFAULT_HOOKS)


def aug_independence_3d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """Three-axis variant with its own gate constants and sub-confidences."""
    cfg.validate()
    sampler = as_sampler(sampler)
    _check_inputs(sampler, pred, 3)
    sampler, pred = _descending_view(sampler, pred)
    return _flatten_pipeline(sampler, pred, cfg, rng, hooks or _DEFAULT_HOOKS)


# ---------------------------------------------------------------------------
# Coordinate partition and the general-arity reduction


def partition_coordinates(dims: Sequence[int]) -> list[list[int]]:
    """Splits descending-sorted axes into 2 or 3 blocks of balanced sizes.

    Returns [[0], B] when n_1 >= sqrt(N) (two-block view), else [[0], B, C]
    where B is the shortest prefix of the remaining axes whose size product
    reaches sqrt(N). Every returned block beyond the first has size product
    at most sqrt(N).
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise DomainError("need at least two axes to partition")
    if any(dims[i] < dims[i + 1] for i in range(len(dims) - 1)):
        raise DomainError(f"dims must be sorted descending, got {dims}")
    if any(d < 2 for d in dims):
        raise DomainError("axis sizes must be >= 2")
    total = math.prod(dims)
    root = math.sqrt(total)
    if dims[0] >= root:
        return [[0], list(range(1, len(dims)))]
    prod = dims[0]
    for t in range(1, len(dims)):
        prod *= dims[t]
        if prod >= root:
            return [[0], list(range(1, t + 1)), list(range(t + 1, len(dims)))]
    raise AssertionError("unreachable: full product exceeds sqrt of itself")


def test_independence_by_learning(
    sampler, eps: float, delta: float, rng: Rng, account: SampleAccount | None = None
) -> Verdict:
    """Learns the joint empirically and compares it to its own marginal product.

    Uses t = ceil((N_S + ln(1/delta')) / eta^2) samples with eta = eps/7 and
    delta' = delta / (arity + 1); accepts when the learned joint is within
    6 * eta of the product of its marginals. Single-axis inputs accept
    immediately with zero samples.
    """
    if not 0 < eps <= 1:
        raise DomainError(f"eps must be in (0, 1], got {eps}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    sampler = as_sampler(sampler)
    acct = account if account is not None else SampleAccount()
    dims = tuple(sampler.dims)
    if len(dims) == 1:
        return Verdict(Outcome.ACCEPT, "learning", ["learning"], acct, {"dims": dims, "t": 0})
    size = math.prod(dims)
    delta_p = delta / (len(dims) + 1)
    eta = eps / 7.0
    t = math.ceil((size + math.log(1.0 / delta_p)) / (eta * eta))
    emp = learn_empirical(sampler, ProductDomain(dims), t, rng, acct)
    gap = empirical_tv_to_product(emp)
    outcome = Outcome.ACCEPT if gap <= 6.0 * eta else Outcome.REJECT
    return Verdict(outcome, "learning", ["learning"], acct, {"dims": dims, "t": t, "gap": gap})


def aug_independence_d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """General-arity tester.

    Arity 2 and 3 route unchanged to the dedicated testers. Otherwise the
    axes (sorted by size) are partitioned into 2 or 3 blocks; the grouped
    view runs the matching tester at eps/12, and each multi-axis block is
    then checked for internal independence by learning at confidence
    delta/5 per call. Any sub-test failure decides the verdict.
    """
    cfg.validate()
    sampler = as_sampler(sampler)
    if pred.dims != tuple(sampler.dims):
        raise DomainError(f"prediction dims {pred.dims} != input dims {tuple(sampler.dims)}")
    d = len(sampler.dims)
    if d == 2:
        return aug_independence_2d(sampler, pred, cfg, rng, hooks)
    if d == 3:
        return aug_independence_3d(sampler, pred, cfg, rng, hooks)

    eps_inner = cfg.eps / 12.0
    delta_inner = 0.1 / 5.0
    order = [int(a) for a in np.argsort([-x for x in sampler.dims], kind="stable")]
    sorted_dims = [sampler.dims[a] for a in order]
    blocks_sorted = partition_coordinates(sorted_dims)
    blocks = [[order[i] for i in blk] for blk in blocks_sorted]

    grouped = GroupedSampler(sampler, blocks)
    grouped_pred = merge_axes(pred, blocks)
    inner_cfg = replace(cfg, eps=eps_inner)
    run = aug_independence_2d if len(blocks) == 2 else aug_independence_3d
    inner = run(grouped, grouped_pred, inner_cfg, rng.split(0), hooks)
    stage_log = ["partition"] + inner.stage_log
    detail = {"blocks": blocks, "grouped_dims": grouped.dims, "inner": inner.detail}
    if inner.outcome is not Outcome.ACCEPT:
        return Verdict(inner.outcome, inner.stage, stage_log, inner.account, detail)

    account = inner.account
    verdict = Verdict(Outcome.ACCEPT, inner.stage, stage_log, account, detail)
    for i, blk in enumerate(blocks[1:], start=1):
        if len(blk) == 1:
            continue  # a single axis is trivially a product over itself
        stage_log.append("learning")
        sub = test_independence_by_learning(
            ProjectedSampler(sampler, blk), eps_inner, delta_inner, rng.split(i), account
        )
        detail[f"learning_block_{i}"] = sub.detail
        if sub.outcome is not Outcome.ACCEPT:
            return Verdict(Outcome.REJECT, "learning", stage_log, account, detail)
        verdict = Verdict(Outcome.ACCEPT, "learning", stage_log, account, detail)
    return verdict


# ---------------------------------------------------------------------------
# Confidence amplification

_TIE_ORDER = [Outcome.REJECT, Outcome.INACCURATE, Outcome.ACCEPT]


def amplify(run: Callable[[Rng], Verdict], delta_target: float, rng: Rng) -> Verdict:
    """Drives the base testers' 0.1 failure probability down to delta_target.

    Runs 2 * ceil(12 * ln(1/delta_target)) + 1 independent trials and returns
    the most frequent outcome; ties break toward Reject, then
    InaccurateInformation. Sample accounts sum over the runs.
    """
    if not 0 < delta_target < 1:
        raise DomainError(f"delta_target must be in (0, 1), got {delta_target}")
    runs = 2 * math.ceil(12.0 * math.log(1.0 / delta_target)) + 1
    account = SampleAccount()
    tally: dict[Outcome, int] = {o: 0 for o in Outcome}
    last: dict[Outcome, Verdict] = {}
    for i in range(runs):
        v = run(rng.split(i))
        tally[v.outcome] += 1
        last[v.outcome] = v
        account.merge(v.account)
    best = max(tally.values())
    winner = next(o for o in _TIE_ORDER if tally[o] == best)
    rep = last[winner]
    detail = {"runs": runs, "tally": {o.value: c for o, c in tally.items()}}
    return Verdict(winner, rep.stage, ["amplify"] + rep.stage_log, account, detail)
