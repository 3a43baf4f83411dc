"""Sample-based estimators: squared l2 norm, two-stream closeness, learning.

The norm and closeness estimators follow the median and vote amplification
of Chan-Diakonikolas-Valiant-Valiant (SODA'14) and Diakonikolas-Kane
(FOCS'16): a cheap base routine with a bounded error is repeated and
aggregated. The norm takes the median of r statistics. The median misses
low only when ceil(r/2) statistics miss low, and likewise high, so r is the
smallest count whose exact binomial tail P(Bin(r, e) >= ceil(r/2)) is at
most delta / 2, where e = NORM_SIDE_ERROR is the calibrated bound on either
side's per-statistic miss (see _median_plan). Closeness runs a sequential
vote (Wald's SPRT, 1945): it stops once accepts and rejects differ by h, or
after r votes, and accepts iff accepts outnumber rejects, where (h, r) is
sized so that its exact error at the calibrated per-vote error bound
VOTE_ERROR is at most delta, with a cap of at least 2h + 1 votes (see
_race_plan). The batch multipliers and those bounds are calibrated together,
so a clean input stops after 3 votes; only the votes that run draw samples.
Sample draws are logged into a SampleAccount in units of base joint draws,
counting only what was drawn.

When a sample view exposes its law, batches are drawn at the count level: a
norm call as one (repetitions, T) block of inverse-CDF draws, each row sorted
so its collision count is read off run lengths (exactly the multinomial
histogram's sum X_i (X_i - 1), with O(r sqrt(M)) working arrays beside the
law's tables), a Poissonized batch as per-symbol Poisson counts
Poi(lambda p_i). Below one expected sample per cell (lambda < M) such a batch
is drawn as K ~ Poi(lambda) inverse-CDF symbols and binned, which has the
same law by Poisson splitting and draws about lambda uniforms in place of
M Poissons; at lambda >= M it is one Poisson per cell. Each view keeps one
inverse-CDF map of its law for its lifetime (FlatView.inverse_cdf), so the
norm and closeness calls on one view share it; from the first call that
looks up enough symbols on, it is a guide table, which finds a symbol in
O(1) where a binary search takes O(log M), and returns the same index (see
domain.inverse_cdf). Both batching modes produce identically distributed
statistics; the count level is what makes desk-scale Monte-Carlo affordable.

Stream layout: at the count level one estimator call draws all of its
repetitions (closeness votes) in sequence from the generator of the Rng it
was given, building no child stream. A view without a law can only draw
from an Rng, so there each repetition j splits its own child stream (j for
the norm, 2j and 2j+1 for the two batches of closeness vote j).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    Rng,
    SampleAccount,
    _check_finite,
    _stream_key,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Multipliers for the estimator sample sizes and thresholds.

    All three are frozen by the committed calibration run
    (scripts/calibrate_closeness.py); see calibration.json for the measured
    per-repetition error tables, the norm's under its "norm" key.
    """

    norm_sample_mult: float = 4.0  # batch size T = this * ceil(sqrt(M))
    closeness_sample_mult: float = 3.0  # lambda = this * M * sqrt(b) / eps^2
    closeness_threshold_mult: float = 1.65  # reject when Z > this * lambda^2 eps^2 / M


# The per-side error the norm's median is sized for: the chance that one
# statistic falls below 1/2, or above 3/2, of the truth. It is the
# calibrated batch's worst measured side plus two binomial standard errors,
# rounded up to a multiple of 1/64 (calibration.json records it under
# "norm" with the repetitions it gives).
NORM_SIDE_ERROR = 0.15625
# The per-vote error the closeness race is sized for: the calibrated rule's
# worst measured cell plus two binomial standard errors, rounded up to a
# multiple of 1/64 (calibration.json records it with the plans it gives).
VOTE_ERROR = 0.125

# The most samples two closeness batches may hold for their int64 Z to be exact.
_INT64_DOT_SAMPLES = math.isqrt(2**63 - 1)


def binomial_tail_at_most(r: int, p: float, k: int, delta: float) -> bool:
    """Whether P(Bin(r, p) >= k) <= delta, decided exactly.

    Floats are dyadic rationals a/b, so the tail times b^r is an integer sum
    over math.comb and the comparison needs no rounding.
    """
    a, b = p.as_integer_ratio()
    num, den = delta.as_integer_ratio()
    tail = sum(math.comb(r, i) * a**i * (b - a) ** (r - i) for i in range(k, r + 1))
    return tail * den <= num * b**r


def repetitions(delta: float, cfg: EstimatorConfig) -> int:
    """The norm estimator's repetition count at confidence delta: _median_plan(delta).

    cfg does not enter the count; it stays in the signature so every sizing
    call reads alike. The closeness vote is sized by _race_plan instead.
    """
    return _median_plan(delta)


@functools.cache
def _median_plan(delta: float, side_error: float = NORM_SIDE_ERROR) -> int:
    """The smallest r with P(Bin(r, side_error) >= ceil(r/2)) <= delta / 2.

    If each statistic falls below 1/2 times the truth w.p. at most
    side_error, their median does only when at least ceil(r/2) of them do,
    which this tail bounds by delta / 2; the same holds above 3/2, and the
    two sides together miss w.p. at most delta (a union bound). At the
    calibrated NORM_SIDE_ERROR of 10/64 that gives 11 repetitions at delta
    1/120 and 13 at 1/180.

    The tail is not monotone in r (at 10/64, r = 1 gives 0.156 and r = 2
    gives 0.288, since an even r fails on r/2 misses), so r is found by
    scanning up from 1; it is memoized.
    """
    _check_finite("delta", delta, "(0, 1)")
    _check_finite("side_error", side_error, "(0, 1/2)")
    r = 1
    while not binomial_tail_at_most(r, side_error, (r + 1) // 2, delta / 2):
        r += 1
    return r


def _race_errors(h: int, vote_error: float):
    """Yields the exact chance that the race (h, r) errs on a null input, for r = 1, 2, ...

    The race is a walk on the lead of right over wrong votes: one step up
    w.p. 1 - vote_error, one down w.p. vote_error, stopped at -h, +h or step
    r. On a null input it errs when it stops at a lead of 0 or less. The
    paths are weighed as integers over vote_error's dyadic ratio, as
    binomial_tail_at_most does, so each value is an exact Fraction.
    """
    wrong, total = vote_error.as_integer_ratio()
    right = total - wrong
    # walk[i] weighs the paths at lead i - h, scaled by total^r after r
    # steps; the two ends absorb.
    walk = [0] * (2 * h + 1)
    walk[h] = 1
    scale = 1
    while True:
        step = [0] * (2 * h + 1)
        step[0], step[-1] = walk[0] * total, walk[-1] * total
        for i in range(1, 2 * h):
            step[i + 1] += walk[i] * right
            step[i - 1] += walk[i] * wrong
        walk, scale = step, scale * total
        yield Fraction(sum(walk[: h + 1]), scale)


@functools.cache
def _race_plan(delta: float, vote_error: float = VOTE_ERROR) -> tuple[int, int]:
    """(h, r) for the closeness vote: stop at a lead of h votes, or after r.

    The vote accepts iff accepts > rejects when it stops. With each vote
    wrong w.p. p = vote_error, a far input, where ties reject, errs only on
    paths where a null input errs too, so the plan is sized by the exact
    null-input error _race_errors(h, p), compared against delta.

    Without a cap the walk hits -h first w.p. p^h / (p^h + (1 - p)^h)
    (gambler's ruin), and each two more votes lower the capped error toward
    that limit. h is the smallest lead whose limit is at most delta / 2, and
    r the smallest odd cap of at least 2h + 1 votes whose error is at most
    delta, so the cap spends the other half and always exists. A race errs
    at a per-vote error well below p about as often as h wrong votes open
    it; a shorter cap would let a wrong verdict at the cap take fewer, while
    at 2h + 1 it takes h + 1, so the cap never sets the error there. At the
    calibrated VOTE_ERROR of 1/8 that gives (3, 7) at delta 1/80 and 1/120,
    and a clean input stops after 3 votes.

    The per-vote error p is the worst case. Couple the votes through
    uniforms U_j, vote j wrong iff U_j < p. Raising p only turns right votes
    into wrong ones, which lowers the walk at every step; a lower walk hits
    -h no later, +h no sooner and ends no higher, so it errs whenever the
    higher one does, and the error cannot fall as the per-vote error rises
    to p.
    """
    _check_finite("delta", delta, "(0, 1)")
    _check_finite("vote_error", vote_error, "(0, 1/2)")
    wrong, total = vote_error.as_integer_ratio()
    right = total - wrong
    num, den = delta.as_integer_ratio()
    h = 1
    while 2 * wrong**h * den > num * (wrong**h + right**h):
        h += 1
    for r, error in enumerate(_race_errors(h, vote_error), start=1):
        if r % 2 and r > 2 * h and error <= delta:
            return h, r


def _rep_rng(rng: Rng, count_level: bool, index: int) -> Rng:
    """The stream repetition `index` draws from: the call's own stream at the
    count level, its own child stream when the view can only draw."""
    return rng if count_level else rng.split(index)


def _ordered_pairs(idx: np.ndarray) -> np.ndarray:
    """Per row of sorted symbol indices, the ordered pairs of equal entries.

    That is sum_i X_i (X_i - 1) for the row's histogram X, read off run
    lengths: the entry at position k of a run starting at s pairs with the
    k - s equal entries before it, and each pair is counted in both orders.
    """
    pos = np.arange(idx.shape[1])
    new_run = np.ones(idx.shape, dtype=bool)
    np.not_equal(idx[:, 1:], idx[:, :-1], out=new_run[:, 1:])
    start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    return 2 * (pos - start).sum(axis=1)


def _median(values: np.ndarray) -> float:
    """float(np.median(values)), bit for bit, for a nonempty 1-D float array without NaNs.

    values is sorted in place and its middle entry read, or the mean of its
    two middle entries when the length is even, the same (a + b) / 2 that
    np.median takes; a sort of a few dozen floats skips np.median's fixed
    per-call cost.
    """
    values.sort()
    mid = values.size // 2
    if values.size % 2:
        return float(values[mid])
    return float((values[mid - 1] + values[mid]) / 2)


def _check_size(M: int, *views) -> None:
    """Raises DomainError unless M >= 1 cells and every view draws over exactly M."""
    if M < 1:
        raise DomainError("domain size must be >= 1")
    for view in views:
        if view.size != M:
            raise DomainError(f"domain size M = {M} but the view has {view.size} cells")


def _count_table(view, lam: float, r: int):
    """What _poissonized_counts draws about r Poi(lam)-sized batches of the view from.

    That is the inverse-CDF map of the view's law when lam < M, where a batch
    is sparse, and the per-cell means lam * law otherwise; None when the view
    can only draw.
    """
    if view.probs is None:
        return None
    return view.inverse_cdf(r * lam) if lam < view.size else lam * view.probs


def _poissonized_counts(view, table, lam: float, rng: Rng) -> np.ndarray:
    """Per-symbol counts of a Poi(lam)-sized batch: independent Poi(lam * p_i)
    entries, as a dense integer vector of length M.

    table is _count_table(view, lam, r). Below lam = M it is the law's inverse-CDF
    map, and K ~ Poi(lam) uniforms are mapped through it and binned, which
    Poisson splitting makes the same law; otherwise it holds the means and
    each cell draws its own Poisson.
    """
    if table is None:
        k = int(rng.split(0).gen.poisson(lam))
        draws = view.draw(k, rng.split(1))
        return np.bincount(draws, minlength=view.size)
    if lam >= view.size:
        return rng.gen.poisson(table)
    u = rng.gen.random(int(rng.gen.poisson(lam)))
    return np.bincount(table(u), minlength=view.size)


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
    When the view exposes its law, all repetitions draw in sequence from
    rng's own generator as one (r, T) block; otherwise repetition j draws from
    rng.split(j).
    """
    _check_size(M, view)
    T = max(2, math.ceil(cfg.norm_sample_mult * math.ceil(math.sqrt(M))))
    r = repetitions(delta, cfg)
    ests = _norm_statistics(view, T, r, rng)
    if account is not None:
        account.add(stage, T * r * view.cost)
    return _median(ests)


def _norm_statistics(view, T: int, r: int, rng: Rng) -> np.ndarray:
    """The collision statistics of r batches of T draws of the view, as estimate_l2_squared draws them.

    When the view exposes its law, the batches are the rows of one (r, T)
    block of uniforms from rng's own generator, so calls on one rng continue
    its stream; otherwise batch j draws from rng.split(j).
    """
    if view.probs is not None:
        # One random(r * T) call draws what r random(T) calls would; sorted
        # rows group equal symbols.
        u = rng.gen.random(r * T).reshape(r, T)
        u.sort(axis=1)
        idx = view.inverse_cdf(u.size)(u)
    else:
        idx = np.sort([view.draw(T, rng.split(j)) for j in range(r)], axis=1)
    return _ordered_pairs(idx) / (T * (T - 1))


def closeness_params(M: int, b: float, eps: float, cfg: EstimatorConfig) -> tuple[float, float]:
    """Per-repetition Poisson rate and reject threshold used by closeness_test.

    b bounds min(||p||_2^2, ||q||_2^2). A b above 1 says nothing, since every
    mass vector has l2^2 <= 1, so it is clamped to 1 rather than inflating
    the batch; the testers pass measured bounds, which are usually far below.
    """
    _check_finite("eps", eps, "(0, 2]")
    _check_finite("b", b)
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
    and tv >= eps forces ||p - q||_2^2 >= 4 eps^2 / M). The votes race:
    with (h, r) = _race_plan(delta) the loop stops once accepts and rejects
    differ by h, or after r votes (r is odd), and returns True to accept
    p = q iff accepts > rejects. The account holds the samples of the
    votes that ran.

    A view that exposes its law draws its batches from rng's own generator,
    X then Y within each vote; otherwise vote j draws X from rng.split(2j)
    and Y from rng.split(2j + 1).
    """
    _check_size(M, view_p, view_q)
    lam, threshold = closeness_params(M, b, eps, cfg)
    h, r = _race_plan(delta)
    # A vote runs at least h repetitions, and a clean input runs exactly h.
    table_p = _count_table(view_p, lam, h)
    table_q = _count_table(view_q, lam, h)
    lead = 0  # accepts - rejects
    used_p = used_q = 0
    # X - Y of every vote goes here, so a vote allocates only X and Y. The
    # bench harness has glibc keep freed heap pages between trials, but a
    # caller outside it runs with glibc's default trimming, where a third
    # M-sized array can make glibc trim the heap top and fault it back in.
    d = np.empty(M, dtype=np.int64)
    for j in range(r):
        x = _poissonized_counts(view_p, table_p, lam, _rep_rng(rng, table_p is not None, 2 * j))
        y = _poissonized_counts(view_q, table_q, lam, _rep_rng(rng, table_q is not None, 2 * j + 1))
        sx, sy = int(x.sum()), int(y.sum())
        used_p += sx
        used_q += sy
        np.subtract(x, y, out=d)
        # Exact integer Z. sum d_i^2 <= (sum |d_i|)^2 <= (sx + sy)^2, so the
        # int64 dot cannot wrap while sx + sy <= isqrt(2^63 - 1); a larger
        # batch is summed in Python ints. numpy's integer dot is its own loop,
        # not a BLAS call, so it does not multi-thread over the cores that
        # parallel trials already fill.
        e = d.astype(object) if sx + sy > _INT64_DOT_SAMPLES else d
        z = int(e @ e) - sx - sy
        # Free this vote's vectors before the next one draws its own.
        del x, y, e
        lead += 1 if z <= threshold else -1
        if abs(lead) == h:
            break
    if account is not None:
        account.add("closeness", used_p * view_p.cost + used_q * view_q.cost)
    return lead > 0


def learn_empirical(sampler, t: int, rng: Rng, account: SampleAccount | None = None) -> JointDistribution:
    """Empirical histogram of t draws over sampler.dims, as an exact rational-count distribution."""
    t = _stream_key("sample size t", t)
    if t < 1:
        raise DomainError("sample size t must be >= 1")
    dims = tuple(sampler.dims)
    dist = getattr(sampler, "dist", None)
    if dist is not None:
        counts = rng.gen.multinomial(t, dist.probs / dist.probs.sum())
    else:
        rows = sampler.draw(t, rng)
        flat = np.ravel_multi_index(tuple(np.asarray(rows).T), dims)
        counts = np.bincount(flat, minlength=math.prod(dims))
    if account is not None:
        account.add("learning", t)
    hist = counts.astype(np.float64) / t
    if dist is None:
        return JointDistribution(dims, hist)  # a sampler's rows are not known to number t
    # t multinomial counts over dist's cells: non-negative and summing to t.
    return JointDistribution._derived(dist.dims, hist)
