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
grouped blocks.
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
    binomial_tail_at_most,
    closeness_test,
    estimate_l2_squared,
    learn_empirical,
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

    def gates(self, arity: int) -> tuple[float, float]:
        """(norm gate multiplier, Poisson cap multiplier) of the profile at this arity."""
        return _PROFILE_GATES[(self.profile, arity)]

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
    first two axes.
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
# Shared 2/3-axis pipeline


def _flatten_pipeline(sampler, pred, cfg: TesterConfig, rng: Rng, hooks: TesterHooks) -> Verdict:
    dims = sampler.dims
    arity = len(dims)
    gate, cap = cfg.gates(arity)
    norm_delta = _NORM_DELTA[arity]
    close_delta = _CLOSENESS_DELTA[arity]
    eps, alpha = cfg.eps, cfg.alpha
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
        hooks.norm(view, view.size, norm_delta, _ESTIMATOR, rng.split(20 + l), account)
        for l, view in enumerate(axis_views)
    ]
    detail["marginal_norms"] = marg_norms
    if any(marg_norms[l] > gate * tau[l] for l in range(arity)):
        return Verdict(Outcome.INACCURATE, stage_log, account, detail)

    # Joint norm gate: a product of small-norm marginals has small joint norm,
    # so an oversized joint flattened norm is evidence against independence.
    stage_log.append("joint_norm")
    joint_reject = (10.0 * gate * gate) if arity == 2 else (6.0 * gate ** 3)
    # One view serves both the joint norm and closeness: it holds the dense
    # flattened joint law, the largest array a run builds.
    joint_view = flattened_joint_view(sampler, pf)
    joint_norm = hooks.norm(joint_view, pf.flat_size, norm_delta, _ESTIMATOR, rng.split(30), account)
    detail["joint_norm"] = joint_norm
    if joint_norm > joint_reject * math.prod(tau):
        return Verdict(Outcome.REJECT, stage_log, account, detail)

    # l1 closeness between the flattened joint and the product of flattened
    # marginals; flattening preserved the tv gap. Each batch tests the last
    # axis of its view's grid against the others. On three axes the joint
    # batch tests (X, Y) against Z, whose ||p_XY||^2 is at most
    # min(||p_X||^2, ||p_Y||^2), and the (X, Y) marginal's batch then tests
    # X against Y, each at eps/2 (see aug_independence_3d).
    stage_log.append("closeness")
    M, last = pf.flat_size, pf.flat_dims[-1]
    batch_eps = eps if arity == 2 else eps / 2
    grid_norms = marg_norms if arity == 2 else [min(marg_norms[:2]), marg_norms[2]]
    b, detail["closeness_b_source"] = _closeness_bound(joint_norm, grid_norms, M)
    detail["closeness_b"] = b
    detail["closeness_grids"] = [(M // last, last)]
    ok = hooks.closeness(joint_view, M, b, batch_eps, close_delta, _ESTIMATOR, rng.split(31), account)
    if ok and arity == 3:
        law = joint_view.probs
        pair_view = _flat_view(sampler, pf, [[0, 1]], None if law is None else law.reshape(pf.flat_dims).sum(axis=2))
        b, _ = _closeness_bound(math.inf, marg_norms[:2], pair_view.size)
        detail["closeness_grids"].append(pair_view.dims)
        ok = hooks.closeness(pair_view, pair_view.size, b, batch_eps, close_delta, _ESTIMATOR, rng.split(32), account)
    outcome = Outcome.ACCEPT if ok else Outcome.REJECT
    return Verdict(outcome, stage_log, account, detail)


def _closeness_bound(joint_norm: float, marg_norms: Sequence[float], M: int) -> tuple[float, str]:
    """The norm bound b a closeness batch on M cells runs at, and which bound set it.

    The batch tests a law p against the product of its grid's marginals.
    Each norm estimate is at least half its truth (w.p. >= 1 - norm_delta),
    so 2 * joint_norm bounds ||p||^2, and the product of 2 * m over
    marg_norms bounds the product law's when each m estimates a marginal's
    squared norm or one at least as large; a joint_norm of inf leaves the
    product term alone. closeness_test needs a bound on the smaller of the
    two only. Every law on M cells has ||p||^2 >= 1/M,
    so b never goes below that floor; closeness_params clamps b above at 1.
    """
    joint = 2.0 * joint_norm
    product = math.prod(2.0 * m for m in marg_norms)
    b, source = (joint, "joint") if joint <= product else (product, "product")
    if b < 1.0 / M:
        return 1.0 / M, "floor"
    return b, source


def _run_blocks(sampler, pred, cfg: TesterConfig, rng: Rng, hooks, blocks) -> Verdict:
    """The pipeline on the view merging base axes blocks[i] into coordinate i, sizes descending (stable)."""
    blocks = sorted(blocks, key=lambda blk: -math.prod(sampler.dims[a] for a in blk))
    if blocks != [[a] for a in range(len(sampler.dims))]:
        sampler, pred = ReindexedSampler(sampler, blocks), merge_axes(pred, blocks)
    return _flatten_pipeline(sampler, pred, cfg, rng, hooks or _DEFAULT_HOOKS)


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
    the batches run, so the last one decided. Why that is sound:

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
      and likewise for Y, so it runs at the smaller of 2 * joint_norm and
      2 min(m_X, m_Y) * 2 m_Z, from the measured norms. Batch 2's law has no
      measured norm of its own, so it runs at 2 m_X * 2 m_Y.
    - Error budget. The four norm calls run at delta 1/180 and each batch at
      1/120, so by a union bound a call errs w.p. at most
      4/180 + 2/120 ~ 0.039, below BASE_DELTA.
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
    (_dary_split). c stays max(7, k + 2) here because this t is the
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


def _dary_split(eps: float, blocks: Sequence[Sequence[int]]) -> tuple[float, tuple[float | None, ...]]:
    """The eps of the grouped pipeline and the eta of each block's learning test.

    Returns (eps / m, per_block), where m is 1 plus the number of blocks of
    two or more axes. per_block[j] is eta = (eps / m) / (2k + 2) for a block
    of k >= 2 axes, whose test rejects when its gap exceeds (k + 1) * eta,
    and None for a single axis, which runs no test.

    Why it is sound. Write p_B for p's marginal on the axes of block B, p_i
    for its marginal on axis i, q = prod_B p_B for the product of the block
    marginals and pi = prod_i p_i. The tv of two products is at most the
    sum of their factors' tvs, so

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

    Error budget. The pipeline errs w.p. at most 4/180 + 2/120 ~ 0.039 on a
    grouped view of three blocks (see aug_independence_3d) and
    3/120 + 1/80 = 0.0375 on one of two, and the learning stage w.p.
    BASE_DELTA / 5 = 0.02, so a d-ary call errs w.p. at most 0.059, below
    BASE_DELTA.
    """
    multi = sum(len(blk) > 1 for blk in blocks)
    eps_pipeline = eps / (1 + multi)
    per_block = tuple(eps_pipeline / (2 * len(blk) + 2) if len(blk) > 1 else None for blk in blocks)
    return eps_pipeline, per_block


def aug_independence_d(
    sampler, pred: JointDistribution, cfg: TesterConfig, rng: Rng, hooks: TesterHooks | None = None
) -> Verdict:
    """General-arity tester; the one entry point behind the 2- and 3-axis ones.

    It validates cfg, the prediction's type and its dims once. Arity 2 and
    3 run the flattening pipeline on the axes stable-sorted so sizes
    descend. Otherwise the axes (sorted by size) are partitioned into 2 or 3
    blocks, and the grouped view runs the matching pipeline. If it accepts,
    the learning stage checks each multi-axis block for internal
    independence: one learned histogram over the union of those blocks'
    axes, drawn from one stream, gives each block's law as a marginal
    (_learn_blocks). Each block's learned law is within its eta of the truth
    w.p. 1 - BASE_DELTA/5, and a union bound covers the blocks. _dary_split
    sets the pipeline's eps and each block's eta and proves the split
    sound; detail["eps_split"] records it, and
    detail["learning"] the shared t and each block's eta, gap, threshold
    (k + 1) * eta and margin (threshold - gap; negative rejects). Any
    sub-test failure decides the verdict.
    """
    cfg.validate()
    _check_prediction(pred)
    sampler = as_sampler(sampler)
    if pred.dims != tuple(sampler.dims):
        raise DomainError(f"prediction dims {pred.dims} != input dims {tuple(sampler.dims)}")
    d = len(sampler.dims)
    if d in (2, 3):
        return _run_blocks(sampler, pred, cfg, rng, hooks, [[a] for a in range(d)])

    delta_inner = BASE_DELTA / 5.0
    order = [int(a) for a in np.argsort([-x for x in sampler.dims], kind="stable")]
    sorted_dims = [sampler.dims[a] for a in order]
    blocks_sorted = partition_coordinates(sorted_dims)
    blocks = [[order[i] for i in blk] for blk in blocks_sorted]
    eps_pipeline, etas = _dary_split(cfg.eps, blocks)

    inner = _run_blocks(sampler, pred, replace(cfg, eps=eps_pipeline), rng.split(0), hooks, blocks)
    stage_log = ["partition"] + inner.stage_log
    grouped_dims = tuple(math.prod(sampler.dims[a] for a in blk) for blk in blocks)
    detail = {
        "blocks": blocks,
        "grouped_dims": grouped_dims,
        "eps_split": {"pipeline": eps_pipeline, "block_eta": etas},
        "inner": inner.detail,
    }
    if inner.outcome is not Outcome.ACCEPT:
        return Verdict(inner.outcome, stage_log, inner.account, detail)

    # At 4 or more axes some block has two or more: a single axis is
    # trivially a product over itself and needs no test.
    tested = [(blk, eta) for blk, eta in zip(blocks, etas) if eta is not None]
    union = [a for blk, _ in tested for a in blk]
    local = {a: i for i, a in enumerate(union)}
    stage_log.append("learning")
    t, gaps = _learn_blocks(
        ReindexedSampler(sampler, [[a] for a in union]),
        [[local[a] for a in blk] for blk, _ in tested],
        [eta for _, eta in tested],
        delta_inner,
        rng.split(1),
        inner.account,
    )
    learned = []
    for (blk, eta), gap in zip(tested, gaps):
        threshold = (len(blk) + 1) * eta
        learned.append({"axes": blk, "eta": eta, "gap": gap, "threshold": threshold, "margin": threshold - gap})
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
