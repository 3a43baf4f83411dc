"""Prediction-assisted independence testers.

Given sample access to an unknown joint distribution p, a predicted
distribution pred, and a claimed accuracy alpha with tv(p, pred) <= alpha,
the testers distinguish product distributions from distributions eps-far (in
tv) from every product, with a third verdict InaccurateInformation that is
only permitted when the claimed accuracy is violated. Each failure mode has
probability at most BASE_DELTA.

Pipeline for 2 and 3 axes: Poissonized per-axis sample sizes with a cap
check, prediction-assisted flattening of every axis, an l2 gate on each
flattened marginal (fires InaccurateInformation), an l2 gate on the flattened
joint (fires Reject), and finally an l1 closeness test between the flattened
joint and the product of flattened marginals. Each closeness batch draws
one table of a flattened law alone and scores it against the product of
that law's own marginals: on two axes one batch of the joint; on three one
batch of the joint tests the first two axes together against the third and,
if it accepts, a second tests the first axis against the second on their
flattened marginal (see aug_independence_3d). Higher arities are reduced to
a grouped 2- or 3-axis instance plus learning-based tests inside the
grouped blocks. One plan (_Plan) sizes every stage before any draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    SampleAccount,
    _check_blocks,
    _check_finite,
    _checked_dims,
    _merge_index as merge_index,  # the unchecked kernel, under the name perfbench's tracer wraps
    _normal_square,
    marginal,
    merge_axes,
    poisson,
    tv_to_own_product as empirical_tv_to_product,  # the name perfbench's tracer wraps
)
from .estimators import (
    EstimatorConfig,
    _norm_batch,
    binomial_tail_at_most,
    closeness_params,
    closeness_test,
    estimate_l2_squared,
    learn_empirical,
    repetitions,
)
from .flattening import (
    ProductFlattening,
    _flat_view,
    build_axis_flattening,
    flattened_axis_view,
    flattened_joint_view,
    flattened_product_view,
)

# perfbench's tracer wraps testers.flattened_product_view by name, so the name stays bound here
# until ROADMAP item 8 moves the tracer off it; no tester builds a product view.
flattened_product_view = flattened_product_view


class Outcome(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    INACCURATE = "inaccurate_information"


@dataclass
class Verdict:
    outcome: Outcome
    stage_log: list[str]  # ordered stages entered
    account: SampleAccount
    detail: dict = field(default_factory=dict)

    @property
    def stage(self) -> str:
        """The stage whose check decided the run: the last one entered."""
        return self.stage_log[-1]

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
# Config

# The estimators run at their calibrated multipliers.
_ESTIMATOR = EstimatorConfig()

# The failure probability each base tester is built for; a smaller target
# is reached by amplify.
BASE_DELTA = 0.1


@dataclass(frozen=True)
class TesterConfig:
    """Parameters shared by all testers.

    alpha is the claimed tv accuracy of the prediction; eps the farness
    proximity. profile selects the gate constants.
    """

    eps: float
    alpha: float
    profile: str = "practical"

    def validate(self) -> None:
        if self.profile not in ("theory", "practical"):
            raise DomainError(f"unknown profile {self.profile!r}")
        _check_finite("eps", self.eps, "(0, 1]")
        _check_finite("alpha", self.alpha, "[0, 1]")


@dataclass
class TesterHooks:
    """Injection seam: the three stochastic primitives the gate logic consumes.

    Tests script these to drive every branch deterministically; defaults call
    the real implementations. closeness gets one view per batch: the
    flattened joint, and on three axes then the flattened marginal of the
    first two axes, whose batch thins the joint's, or is drawn fresh after a
    closeness that drew none (see aug_independence_3d).
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


class ReindexedSampler:
    """View of a sampler whose coordinate i is the row-major merge of base axes blocks[i].

    One axis per block permutes or projects the base axes; several axes per
    block group them. Base axes in no block are marginalized away.
    """

    def __init__(self, base, blocks: Sequence[Sequence[int]]):
        self.base = base
        self.blocks = _check_blocks(len(base.dims), blocks)
        self.dims = tuple(math.prod(base.dims[a] for a in blk) for blk in self.blocks)
        inner = getattr(base, "dist", None)
        self.dist = None if inner is None else merge_axes(inner, self.blocks)

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        # merge_index here is domain's unchecked kernel: __init__ checked the blocks once.
        return merge_index(self.base.draw(count, rng), self.base.dims, self.blocks)


# ---------------------------------------------------------------------------
# The plan and the shared 2/3-axis pipeline


@dataclass(frozen=True)
class _Plan:
    """Every size a run of aug_independence_d draws at, fixed from (dims, cfg) before any draw.

    blocks partitions the input's axes: one per axis on 2 or 3 axes, else
    partition_coordinates' blocks of the axes stable-sorted by size. The
    pipeline merges the axes of view[i], the blocks stable-sorted by size
    descending, into coordinate i. On its k axes s is the Poissonized
    sample sizes (at least 1, so that tau stays finite) and tau the norm
    thresholds; gate is 60 k on the theory profile, whose constants the
    proofs use, and 3 k on the practical one, of the same control flow at
    desk-scale sizes; cap is 4/3 gate, joint_reject 10 gate^2 on two axes
    and 6 gate^3 on three. Each norm call runs at norm_delta = 1/(60 k),
    each closeness batch at close_delta = 1/(40 k) and its batch_eps: eps on
    two axes, eps/2 for each of two batches on three (aug_independence_3d).

    eps is the input's eps / m, with m 1 plus the number of blocks of two or
    more axes. Such a block, of k axes, learns at block_eta = eps / (2k + 2)
    and rejects when its gap exceeds (k + 1) * eta; a single axis runs no
    test (None). The blocks learn from one draw at learn_delta =
    BASE_DELTA / 5, which is None on 2 or 3 axes, where none is learned.

    Why the split is sound. Write p_B for p's marginal on the axes of block
    B, p_i for its marginal on axis i, q = prod_B p_B for the product of
    the block marginals and pi = prod_i p_i. The tv of two products is at
    most the sum of their factors' tvs, so

        tv(p, pi) <= tv(p, q) + tv(q, pi)
                  <= tv(p, q) + sum over multi-axis B of tv(p_B, prod_{i in B} p_i),

    where a single-axis block adds nothing. That is m terms. pi is a
    product, so if p is eps-far from every product, tv(p, pi) >= eps and
    some term is at least eps / m. Each sub-test rejects when its own term
    is (w.p. its own confidence):

    - tv(p, q) >= eps / m. This is the grouped view's distance to the
      product of its own marginals. The pipeline's closeness tests the
      flattened joint against the product of its own flattened marginals
      (on three blocks in two batches; see aug_independence_3d), and
      flattening keeps that tv, so the pipeline at eps / m rejects. (Merging
      axes does not grow tv(p, pred), so InaccurateInformation stays
      reserved for a prediction that misses alpha.)
    - E = tv(p_B, prod_{i in B} p_i) >= eps / m = (2k + 2) * eta on a block
      of k axes. Its learned law p-hat has tv(p-hat, p_B) < eta (see
      _learn_blocks), and so does each marginal, since marginalizing never
      grows tv. Hence
          gap >= E - tv(p-hat, p_B) - sum_i tv(p-hat_i, p_i)
              >  E - (k + 1) * eta >= (k + 1) * eta.
      The middle step is strict, so the test rejects also at the boundary
      E = (2k + 2) * eta.

    For a product p, q = p and every p_B is a product. The pipeline accepts
    w.p. its own confidence, and a block's gap is below
    tv(p-hat, p_B) + sum_i tv(p-hat_i, p_i) < (k + 1) * eta, so it accepts.
    In test_independence_by_learning's terms this is eta = eps' / c at
    eps' = (eps / m) * c / (c + k) with c = k + 2, the least c both sides
    allow.

    Error budget, by a union bound over the calls: on two pipeline axes
    three norm calls at 1/120 and one batch at 1/80 err w.p. at most
    0.0375, on three four norm calls at 1/180 and two batches at 1/120 at
    most 0.039, and learning adds 0.02: at most 0.059 < BASE_DELTA. It
    needs no independence between the calls, so the two 3-axis batches may
    share one table (aug_independence_3d).
    """

    profile: str
    blocks: tuple[tuple[int, ...], ...]
    view: tuple[tuple[int, ...], ...]
    eps: float
    s: tuple[float, ...]
    tau: tuple[float, ...]
    gate: float
    cap: float
    joint_reject: float
    norm_delta: float
    close_delta: float
    batch_eps: tuple[float, ...]
    block_eta: tuple[float | None, ...]
    learn_delta: float | None

    def closeness_bound(
        self, batch: int, M: int, marg_norms: Sequence[float], joint_norm: float = math.inf
    ) -> tuple[float, str]:
        """The norm bound b closeness batch `batch` on M cells runs at, and which bound set it.

        A norm estimate is at least half its truth w.p. >= 1 - norm_delta,
        so 2 * joint_norm bounds the batch's law's squared norm, and the
        product of 2 * m over its grid's marginal norms the product law's
        (on three axes see aug_independence_3d); closeness_test needs the
        smaller only, and a joint_norm of inf, as when the pipeline skips
        the joint norm, leaves the product. b never goes below 1/M, the
        least squared norm on M cells; closeness_params clamps it at 1.
        """
        if len(marg_norms) == 3:  # batch 0's grid is (XY, Z), batch 1's (X, Y)
            marg_norms = marg_norms[:2] if batch else [min(marg_norms[:2]), marg_norms[2]]
        joint = 2.0 * joint_norm
        product = math.prod(2.0 * m for m in marg_norms)
        b, source = (joint, "joint") if joint <= product else (product, "product")
        if b < 1.0 / M:
            return 1.0 / M, "floor"
        return b, source

    def joint_norm_trade(self, M: int, view_cost: int, marg_norms: Sequence[float]) -> tuple[int, float]:
        """(cost, saving) in samples of the joint norm on M cells; the pipeline draws it only when cost < saving.

        cost, known before any draw, is r batches of T at norm_delta, each
        sample view_cost joint draws. saving is what the joint bound saves
        on a product, where 2 * joint_norm lands near half the product
        bound b_prod: the first batch's rate at b_prod less its rate at
        max(b_prod / 2, 1/M), so the band and the clamps enter. The product
        bound alone is sound, so the joint norm is only an optimisation. A
        b_prod whose rate closeness_params refuses saves without limit: the
        joint bound may bring the rate back within range.
        """
        cost = _norm_batch(M, _ESTIMATOR.norm_sample_mult) * repetitions(self.norm_delta, _ESTIMATOR) * view_cost
        b_prod, _ = self.closeness_bound(0, M, marg_norms)
        try:
            lam_prod, _ = closeness_params(M, b_prod, self.batch_eps[0], _ESTIMATOR)
        except DomainError:
            return cost, math.inf
        lam_joint, _ = closeness_params(M, max(b_prod / 2.0, 1.0 / M), self.batch_eps[0], _ESTIMATOR)
        return cost, (lam_prod - lam_joint) * view_cost


@functools.lru_cache(maxsize=64)
def _plan(dims: tuple[int, ...], cfg: TesterConfig) -> _Plan:
    """The plan of aug_independence_d on an input of these dims at cfg (see _Plan); memoized, being immutable."""
    d = len(dims)
    if d < 2:
        raise DomainError(f"independence needs at least two axes, got dims {tuple(dims)}")
    if d <= 3:
        blocks = tuple((a,) for a in range(d))
    else:
        order = sorted(range(d), key=lambda a: -dims[a])
        blocks = tuple(tuple(order[i] for i in blk) for blk in partition_coordinates([dims[a] for a in order]))
    view = tuple(sorted(blocks, key=lambda blk: -math.prod(dims[a] for a in blk)))
    eps = cfg.eps / (1 + sum(len(blk) > 1 for blk in blocks))

    pdims = [math.prod(dims[a] for a in blk) for blk in view]
    k, alpha = len(pdims), cfg.alpha
    n1, rest = pdims[0], math.prod(pdims[1:])
    s1 = n1 ** (2.0 / 3.0) * rest ** (1.0 / 3.0) * alpha ** (1.0 / 3.0) / eps ** (4.0 / 3.0)
    s = (max(1.0, min(s1, n1 * alpha)),) + tuple(max(1.0, n * alpha) for n in pdims[1:])
    gate = {"theory": 60.0, "practical": 3.0}[cfg.profile] * k
    return _Plan(
        profile=cfg.profile,
        blocks=blocks,
        view=view,
        eps=eps,
        s=s,
        tau=tuple(2.0 * alpha / s[l] + 4.0 / pdims[l] for l in range(k)),
        gate=gate,
        cap=gate * 4.0 / 3.0,
        joint_reject=(10.0 * gate * gate) if k == 2 else (6.0 * gate**3),
        norm_delta=1.0 / (60 * k),
        close_delta=1.0 / (40 * k),
        batch_eps=(eps,) if k == 2 else (eps / 2, eps / 2),
        block_eta=tuple(eps / (2 * len(blk) + 2) if len(blk) > 1 else None for blk in blocks),
        learn_delta=BASE_DELTA / 5.0 if d > 3 else None,
    )


def _flatten_pipeline(sampler, pred, plan: _Plan, rng: Rng, hooks: TesterHooks | None) -> Verdict:
    """Runs the plan's pipeline on the view merging the input's axes plan.view[i] into coordinate i."""
    if plan.view != tuple((a,) for a in range(len(sampler.dims))):
        sampler, pred = ReindexedSampler(sampler, plan.view), merge_axes(pred, plan.view)
    hooks = hooks or _DEFAULT_HOOKS
    dims = sampler.dims
    arity = len(dims)
    s, tau = plan.s, plan.tau
    account = SampleAccount()
    stage_log: list[str] = []
    detail: dict = {"dims": dims, "profile": plan.profile, "s": list(s), "tau": list(tau)}

    stage_log.append("poisson_cap")
    shat = [hooks.poisson(s[l], rng.split(l)) for l in range(arity)]
    detail["s_hat"] = shat
    if any(shat[l] > plan.cap * s[l] for l in range(arity)):
        return Verdict(Outcome.REJECT, stage_log, account, detail)

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
    axis_views = [flattened_axis_view(sampler, l, pf) for l in range(arity)]
    marg_norms = [
        hooks.norm(view, view.size, plan.norm_delta, _ESTIMATOR, rng.split(20 + l), account)
        for l, view in enumerate(axis_views)
    ]
    detail["marginal_norms"] = marg_norms
    if any(marg_norms[l] > plan.gate * tau[l] for l in range(arity)):
        return Verdict(Outcome.INACCURATE, stage_log, account, detail)

    # Joint norm gate, drawn only where it pays (joint_norm_trade): a product
    # of small-norm marginals has small joint norm, so an oversized joint
    # flattened norm is evidence against independence. The view is built
    # either way: it holds the dense flattened joint law, the largest array
    # a run builds, and closeness reads it.
    joint_view = flattened_joint_view(sampler, pf)
    M = pf.flat_size
    cost, saving = plan.joint_norm_trade(M, joint_view.cost, marg_norms)
    detail["joint_norm_cost"], detail["joint_norm_saving"] = cost, saving
    joint_norm = math.inf
    if cost < saving:
        stage_log.append("joint_norm")
        joint_norm = hooks.norm(joint_view, M, plan.norm_delta, _ESTIMATOR, rng.split(30), account)
        detail["joint_norm"] = joint_norm
        if joint_norm > plan.joint_reject * math.prod(tau):
            return Verdict(Outcome.REJECT, stage_log, account, detail)

    # l1 closeness between the flattened joint and the product of flattened
    # marginals; flattening preserved the tv gap. Each batch tests the last
    # axis of its view's grid against the others: on three axes the joint
    # batch tests (X, Y) against Z and, if it accepts, the (X, Y) marginal's
    # batch, thinned from the joint batch's table, tests X against Y (see
    # aug_independence_3d). closeness_drawn holds what each batch drew fresh.
    stage_log.append("closeness")
    b, detail["closeness_b_source"] = plan.closeness_bound(0, M, marg_norms, joint_norm)
    detail["closeness_b"] = b
    detail["closeness_grids"], detail["closeness_drawn"] = [], []
    view = joint_view
    for batch, batch_eps in enumerate(plan.batch_eps):
        if batch:
            law = None if joint_view.probs is None else joint_view.probs.reshape(pf.flat_dims).sum(axis=2)
            view = _flat_view(sampler, pf, [[0, 1]], law, joint_view)
            b, _ = plan.closeness_bound(1, view.size, marg_norms)
        detail["closeness_grids"].append((view.size // view.dims[-1], view.dims[-1]))
        drawn = account.closeness
        ok = hooks.closeness(view, view.size, b, batch_eps, plan.close_delta, _ESTIMATOR, rng.split(31 + batch), account)
        detail["closeness_drawn"].append(account.closeness - drawn)
        if not ok:
            break
    outcome = Outcome.ACCEPT if ok else Outcome.REJECT
    return Verdict(outcome, stage_log, account, detail)


def _check_prediction(pred, arity: int | None = None) -> None:
    """Raises DomainError unless pred is a JointDistribution, of the given arity if one is given."""
    if not isinstance(pred, JointDistribution):
        raise DomainError(f"prediction must be a JointDistribution, got {type(pred).__name__}")
    if arity is not None and len(pred.dims) != arity:
        raise DomainError(f"expected {arity} axes, got dims {pred.dims}")


def aug_independence_2d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """aug_independence_d on a two-axis input; the verdict is orientation-independent."""
    _check_prediction(pred, 2)
    return aug_independence_d(sampler, pred, cfg, rng, hooks)


def aug_independence_3d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """aug_independence_d on a three-axis input, with its own gate constants and sub-confidences.

    The pipeline sorts the axes so that X >= Y >= Z by size and runs two
    closeness batches, each at eps/2 and delta 1/120: the flattened joint,
    read as an (F_X F_Y, F_Z) grid, tests (X, Y) against Z; if that accepts,
    the flattened (X, Y) marginal, an (F_X, F_Y) grid drawn from joint
    draws, tests X against Y. detail["closeness_grids"] lists the grids of
    the batches run, so the last one decided; _Plan states the error
    budget. Why that is sound:

    - Far side. p_X x p_Y x p_Z is a product, so an eps-far p has
          eps <= tv(p, p_X x p_Y x p_Z)
              <= tv(p, p_XY x p_Z) + tv(p_XY x p_Z, p_X x p_Y x p_Z)
               = tv(p, p_XY x p_Z) + tv(p_XY, p_X x p_Y),
      since two products with a common factor are as far apart as their
      other factors. One term is at least eps/2, and the batch that tests it
      rejects. Flattening keeps both tvs: each side splits every cell's
      mass evenly over the same sub-buckets, and the flattened p_XY x p_Z
      and p_X x p_Y are the products of the flattened laws' own marginals on
      each batch's grid.
    - Product side. A product p has p = p_XY x p_Z and p_XY = p_X x p_Y, so
      both batches face their null and accept.
    - Norm bounds. Batch 1 needs b >= min(||p||^2, ||p_XY||^2 ||p_Z||^2),
      and ||p_XY||^2 = sum p_XY(x, y)^2 <= sum p_XY(x, y) p_X(x) = ||p_X||^2,
      and likewise for Y, so it runs at 2 min(m_X, m_Y) * 2 m_Z from the
      measured marginal norms, or at 2 * joint_norm if that is smaller and
      the joint norm was drawn (_Plan.joint_norm_trade). Batch 2's law has
      no measured norm of its own, so it runs at 2 m_X * 2 m_Y.
    - One draw. Batch 1's table at rate lam_1, summed over Z, holds
      independent Poi(lam_1 p_XY) counts. Batch 2 keeps each sample w.p.
      min(1, lam_2 / lam_1) and draws only Poi(max(0, lam_2 - lam_1) p_XY)
      fresh, from rng.split(32). Thinning a Poisson gives a Poisson, so
      batch 2 has exactly its calibrated law Poi(lam_2 p_XY), and the union
      bound over the batches needs no independence. The account, and
      detail["closeness_drawn"] per batch, count only fresh samples.
    """
    _check_prediction(pred, 3)
    return aug_independence_d(sampler, pred, cfg, rng, hooks)


# ---------------------------------------------------------------------------
# Coordinate partition and the general-arity reduction


def partition_coordinates(dims: Sequence[int]) -> list[list[int]]:
    """Splits descending-sorted axes into 2 or 3 blocks of balanced sizes.

    Returns [[0], B] when n_1 >= sqrt(N) (two-block view), else [[0], B, C]
    where B is the shortest prefix of the remaining axes for which n_1 times
    B's size product reaches sqrt(N); C holds the rest. On (4, 4, 4, 4) that
    is [[0], [1], [2, 3]]: n_1 * 4 = 16 = sqrt(256), so B = [1] has size 4.
    Every returned block beyond the first has size product at most sqrt(N).
    """
    dims = _checked_dims(dims)
    if len(dims) < 2:
        raise DomainError("need at least two axes to partition")
    if any(dims[i] < dims[i + 1] for i in range(len(dims) - 1)):
        raise DomainError(f"dims must be sorted descending, got {dims}")
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


def _learn_blocks(
    sampler, blocks: Sequence[Sequence[int]], etas: Sequence[float], delta: float, rng: Rng, account: SampleAccount
) -> tuple[int, list[float]]:
    """Learns the sampler's law from one draw and scores each block of its axes.

    Returns (t, gaps). t = max over blocks B of
    ceil((N_B + ln(1/delta)) / eta_B^2), with N_B the size of B's axes. The
    learned law of B is the marginal on B of the one histogram of t draws,
    and gaps[j] is its tv to the product of its own marginals. A projection
    of t i.i.d. joint draws is t i.i.d. draws of B, so each block's learned
    law is within eta_B of the truth w.p. 1 - delta (see
    test_independence_by_learning); a union bound over blocks needs no
    independence between them. An eta whose square is not a positive normal
    float, or a t beyond the floats, is a DomainError.
    """
    log_term = math.log(1.0 / delta)
    size = max(
        (math.prod(sampler.dims[a] for a in blk) + log_term) / _normal_square("eta", eta)
        for blk, eta in zip(blocks, etas)
    )
    _check_finite("sample size t", size)
    t = math.ceil(size)
    emp = learn_empirical(sampler, t, rng, account)
    return t, [empirical_tv_to_product(marginal(emp, blk)) for blk in blocks]


def test_independence_by_learning(sampler, eps: float, delta: float, rng: Rng) -> Verdict:
    """Learns the joint empirically and compares it to its own marginal product.

    On k axes it uses t = ceil((N_S + ln(1/delta)) / eta^2) samples with
    eta = eps / c and c = max(7, k + 2), and accepts when the learned joint
    is within eps - eta of the product of its marginals; for k <= 5 that is
    eta = eps / 7 and the threshold 6 * eta. Single-axis inputs accept
    immediately with zero samples.

    With t samples the learned law p-hat is within (sqrt(3)/2) * eta < eta
    of p w.p. 1 - delta: tv(p-hat, p) exceeds its mean, at most
    sqrt(N_S/4t), by more than sqrt(ln(1/delta)/2t) w.p. at most delta
    (McDiarmid), and the two terms sum to at most (sqrt(3)/2) * eta when
    t >= (N_S + ln(1/delta)) / eta^2. That one event covers every marginal
    too, since no marginal of p-hat is farther from p's than p-hat is from
    p. Both sides follow from it:

    - Product. The gap is within (k + 1) * eta of p's own distance to the
      product of its marginals, so a product, at distance 0, scores at most
      (k + 1) * eta <= (c - 1) * eta = eps - eta: the test accepts it.
    - Far. An accept puts p-hat within eps - eta of the product of its own
      marginals, and p within eta of p-hat, so p is within
      eta + (eps - eta) = eps of that product: p is not eps-far from every
      product, and an eps-far p is rejected.

    c = k + 2 would suffice on both sides, as it does for the d-ary blocks
    (_Plan). c stays max(7, k + 2) here because this t is the
    reference the benchmark compares the augmented tester against.
    """
    _check_finite("eps", eps, "(0, 1]")
    _check_finite("delta", delta, "(0, 1)")
    sampler = as_sampler(sampler)
    acct = SampleAccount()
    dims = tuple(sampler.dims)
    if len(dims) == 1:
        return Verdict(Outcome.ACCEPT, ["learning"], acct, {"dims": dims, "t": 0})
    eta = eps / max(7, len(dims) + 2)
    t, (gap,) = _learn_blocks(sampler, [range(len(dims))], [eta], delta, rng, acct)
    outcome = Outcome.ACCEPT if gap <= eps - eta else Outcome.REJECT
    return Verdict(outcome, ["learning"], acct, {"dims": dims, "t": t, "gap": gap})


def aug_independence_d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """General-arity tester; the one entry point behind the 2- and 3-axis ones.

    It validates cfg, the prediction's type and its dims (at least two
    axes) once, and sizes every stage before any draw (_Plan). Arity 2 and
    3 run the flattening pipeline on the axes stable-sorted so sizes
    descend. Otherwise the axes (sorted by size) are partitioned into 2 or
    3 blocks, and the grouped view runs the matching pipeline. If it
    accepts, the learning stage checks each multi-axis block for internal
    independence: one learned histogram over the union of those blocks'
    axes, drawn from one stream, gives each block's law as a marginal
    (_learn_blocks). The plan sets the pipeline's eps and each block's eta
    and proves the split sound; detail["eps_split"] records it, and
    detail["learning"] the shared t and each block's eta, gap, threshold
    (k + 1) * eta and margin (threshold - gap; negative rejects). Any
    sub-test failure decides the verdict.
    """
    cfg.validate()
    _check_prediction(pred)
    sampler = as_sampler(sampler)
    if pred.dims != tuple(sampler.dims):
        raise DomainError(f"prediction dims {pred.dims} != input dims {tuple(sampler.dims)}")
    plan = _plan(pred.dims, cfg)
    if plan.learn_delta is None:
        return _flatten_pipeline(sampler, pred, plan, rng, hooks)

    inner = _flatten_pipeline(sampler, pred, plan, rng.split(0), hooks)
    stage_log = ["partition"] + inner.stage_log
    blocks = plan.blocks
    detail = {
        "blocks": [list(blk) for blk in blocks],
        "grouped_dims": tuple(math.prod(sampler.dims[a] for a in blk) for blk in blocks),
        "eps_split": {"pipeline": plan.eps, "block_eta": plan.block_eta},
        "inner": inner.detail,
    }
    if inner.outcome is not Outcome.ACCEPT:
        return Verdict(inner.outcome, stage_log, inner.account, detail)

    tested = [(blk, eta) for blk, eta in zip(blocks, plan.block_eta) if eta is not None]
    union = [a for blk, _ in tested for a in blk]
    local = {a: i for i, a in enumerate(union)}
    stage_log.append("learning")
    t, gaps = _learn_blocks(
        ReindexedSampler(sampler, [[a] for a in union]),
        [[local[a] for a in blk] for blk, _ in tested],
        [eta for _, eta in tested],
        plan.learn_delta,
        rng.split(1),
        inner.account,
    )
    learned = []
    for (blk, eta), gap in zip(tested, gaps):
        threshold = (len(blk) + 1) * eta
        learned.append({"axes": list(blk), "eta": eta, "gap": gap, "threshold": threshold, "margin": threshold - gap})
    detail["learning"] = {"t": t, "blocks": learned}
    outcome = Outcome.ACCEPT if all(b["gap"] <= b["threshold"] for b in learned) else Outcome.REJECT
    return Verdict(outcome, stage_log, inner.account, detail)


# ---------------------------------------------------------------------------
# Confidence amplification

_TIE_ORDER = [Outcome.REJECT, Outcome.INACCURATE, Outcome.ACCEPT]


def amplify(run: Callable[[Rng], Verdict], delta_target: float, rng: Rng) -> Verdict:
    """Drives the base testers' failure probability BASE_DELTA = 0.1 down to delta_target.

    Runs r independent trials and returns the most frequent outcome; ties
    break toward Reject, then InaccurateInformation. Sample accounts sum over
    the runs. Each base run lands on each disallowed outcome w.p. at most
    BASE_DELTA, and r is the smallest odd count for which the exact binomial
    tails cover both cases of the contract:

    - one allowed outcome (tv(p, p-hat) <= alpha): the two disallowed ones
      together occur w.p. at most 2 * BASE_DELTA, and the allowed outcome
      holds a strict majority unless at least ceil(r/2) runs are disallowed,
      so P(Bin(r, 2 * BASE_DELTA) >= ceil(r/2)) <= delta_target;
    - two allowed outcomes (tv(p, p-hat) > alpha, where InaccurateInformation
      is also correct): with D < r/3 runs on the disallowed one, the allowed
      two hold more than 2r/3, so one of them beats D, and
      P(Bin(r, BASE_DELTA) >= ceil(r/3)) <= delta_target.

    That is 7 runs at delta_target 0.05, 13 at 0.01 and 25 at 0.001.

    The runs stop early once the leader's count exceeds every other count
    plus the runs left: no rest of the sequence can then change the full
    rule's outcome, whatever the tie order. A unanimous input stops after
    4, 7 and 13 runs. Run i draws from rng.split(i) either way; detail
    reports the runs planned ("runs") and the runs run ("runs_run"), and
    the stage is that of the winner's last run.
    """
    _check_finite("delta_target", delta_target, "(0, 1)")
    runs = 1
    while not (
        binomial_tail_at_most(runs, 2 * BASE_DELTA, (runs + 1) // 2, delta_target)
        and binomial_tail_at_most(runs, BASE_DELTA, (runs + 2) // 3, delta_target)
    ):
        runs += 2
    account = SampleAccount()
    tally: dict[Outcome, int] = {o: 0 for o in Outcome}
    last: dict[Outcome, Verdict] = {}
    for i in range(runs):
        v = run(rng.split(i))
        tally[v.outcome] += 1
        last[v.outcome] = v
        account.merge(v.account)
        second, lead = sorted(tally.values())[-2:]
        if lead - second > runs - (i + 1):
            break
    best = max(tally.values())
    winner = next(o for o in _TIE_ORDER if tally[o] == best)
    rep = last[winner]
    detail = {"runs": runs, "runs_run": i + 1, "tally": {o.value: c for o, c in tally.items()}}
    return Verdict(winner, ["amplify"] + rep.stage_log, account, detail)


def _run_at_delta(run: Callable[[Rng], Verdict], delta: float | None, rng: Rng) -> Verdict:
    """Runs a base tester once, or amplified to delta when delta < BASE_DELTA.

    delta None means the base testers' own BASE_DELTA; any other delta must be in (0, 1).
    """
    if delta is None:
        return run(rng)
    _check_finite("delta", delta, "(0, 1)")
    return amplify(run, delta, rng) if delta < BASE_DELTA else run(rng)
