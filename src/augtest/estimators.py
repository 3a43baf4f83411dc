"""Sample-based estimators: squared l2 norm, closeness, learning.

The norm follows the median amplification of Chan-Diakonikolas-Valiant-
Valiant (SODA'14) and Diakonikolas-Kane (FOCS'16): a cheap base statistic
with a bounded error is repeated and the median of r statistics returned.
The median misses low only when ceil(r/2) statistics miss low, and likewise
high, so r is the smallest count whose exact binomial tail
P(Bin(r, e) >= ceil(r/2)) is at most delta / 2, where e = NORM_SIDE_ERROR is
the calibrated bound on either side's per-statistic miss; that count is
always odd (see _median_plan), so the median is one statistic. Closeness
tests a joint law on a grid against the product of its last axis's
marginal and the marginal of the others, from one Poissonized batch of the
joint alone (Diakonikolas-Kane FOCS'16; Acharya-Daskalakis-Kamath
NeurIPS'15): a table N of counts, read with the last axis as columns, whose
coincidences among distinct samples in one cell, one row or one column
estimate ||p - p_rows x p_cols||_2^2 without bias (_independence_terms), so
no sample of the product is drawn. The statistic's signal-to-noise ratio
grows linearly in the batch rate, so one batch calibrated to err w.p. at
most CLOSENESS_ERROR serves every delta at or above that bound; amplify
reaches a smaller one. The batch rate and threshold are calibrated per band
of the flattened domain size M (EstimatorConfig.closeness_bands), each band
on the calibration laws of its smallest grids. That rests on the premise
that a band's error does not grow with M: the statistic sums more and
smaller terms as M grows, its tails thin toward the Gaussian's, and the
lowest M binds; the top band's point serves every larger M. Sample draws
are logged into a SampleAccount, one per sample, since every view emits one
sample per base joint draw, counting only what was drawn: a batch thinned
from a parent view's (_poissonized_counts) adds only its fresh samples.

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
norm and closeness calls on one view share it; from the first call whose
symbols pay for one on, in their count and order (the norm's rows are
sorted, closeness's uniforms are not), it is a guide table, which finds a
symbol in O(1) where a binary search takes O(log M), and returns the same
index (see domain.inverse_cdf). Both batching modes produce identically
distributed statistics; the count level is what makes desk-scale
Monte-Carlo affordable.
Each kernel reads its mode off the view it is given: _norm_statistics for
the norm, _poissonized_counts for the closeness batch.

Stream layout: at the count level one estimator call draws all of its
batches in sequence from the generator of the Rng it was given, building no
child stream. A view without a law can only draw from an Rng, so there each
batch splits its own child stream (j for the norm's repetition j, 0 for the
closeness batch).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    Rng,
    SampleAccount,
    _POISSON_MEAN_MAX,
    _check_finite,
    _normal_square,
    _stream_key,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Multipliers for the estimator sample sizes and thresholds.

    The norm's batch has one multiplier. Closeness has one pair per band of
    the flattened domain size M: closeness_bands holds (first M, C, C_thr)
    per band, by ascending first M, and a call on M cells runs at the last
    band whose first M is at most M; the first band also serves every
    smaller M and the last every larger one. The call draws one joint batch
    at lambda = C * M * sqrt(b) / eps^2 and rejects when
    Z > C_thr * lambda^2 eps^2 / M.

    Each band is calibrated on product laws of its smallest 2-axis grids
    and their sign perturbations at tv eps, on the premise that a band's
    error does not grow with M: the statistic's tails thin toward the
    Gaussian's as the counts spread over more cells, so the band's lowest M
    binds, and the top band's point holds on every larger domain. The
    calibration checks that premise on the top band's 100 x 20 and 128 x 64
    grids, and it keeps each band's threshold at least 4 measured standard
    deviations of the null's Z out at a tight b, so that the tail the
    testers meet over many calls on null laws stays thin. All of them are
    frozen by the committed calibration run (scripts/calibrate_closeness.py);
    see calibration.json for the measured error tables, each closeness
    band's under "independence" and the norm's under "norm".
    """

    norm_sample_mult: float = 4.0  # batch size T = this * ceil(sqrt(M))
    closeness_bands: tuple[tuple[int, float, float], ...] = (
        (9, 3.0, 1.45),
        (50, 3.0, 1.75),
        (200, 3.5, 1.7),
    )


# The per-side error the norm's median is sized for: the chance that one
# statistic falls below 1/2, or above 3/2, of the truth. It is the
# calibrated batch's worst measured side plus two binomial standard errors,
# rounded up to a multiple of 1/64 (calibration.json records it under
# "norm" with the repetitions it gives).
NORM_SIDE_ERROR = 0.15625
# The error closeness_test is sized for: the bound every closeness band is
# held to, each band's worst cell error on the calibration's held-out draws
# plus two binomial standard errors, rounded up to a multiple of 1/2048
# (calibration.json records each under its band's "chosen"). It is the
# smallest delta closeness_test takes, and at most 1/120, the three-axis
# testers' delta.
CLOSENESS_ERROR = 13 / 2048
_DELTA_RANGE_OF_CLOSENESS = f"[{Fraction(CLOSENESS_ERROR)}, 1)"

_INT64_MAX = int(np.iinfo(np.int64).max)
# The most samples a closeness batch may hold for its int64 sums of squares
# to be exact.
_INT64_DOT_SAMPLES = math.isqrt(_INT64_MAX)


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
    call reads alike.
    """
    return _median_plan(delta)


@functools.cache
def _median_plan(delta: float, side_error: float = NORM_SIDE_ERROR) -> int:
    """The smallest r with P(Bin(r, side_error) >= ceil(r/2)) <= delta / 2; it is odd.

    If each statistic falls below 1/2 times the truth w.p. at most
    side_error, their median does only when at least ceil(r/2) of them do,
    which this tail bounds by delta / 2; the same holds above 3/2, and the
    two sides together miss w.p. at most delta (a union bound). At the
    calibrated NORM_SIDE_ERROR of 10/64 that gives 11 repetitions at delta
    1/120 and 13 at 1/180.

    An even r = 2k fails on k misses, and so does 2k - 1, from one fewer
    statistic, so whenever 2k meets the bound 2k - 1 meets it too. The
    smallest r is therefore odd, and only odd r are scanned, up from 1; the
    count is memoized.
    """
    _check_finite("delta", delta, "(0, 1)")
    _check_finite("side_error", side_error, "(0, 1/2)")
    r = 1
    while not binomial_tail_at_most(r, side_error, (r + 1) // 2, delta / 2):
        r += 2
    return r


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
    """float(np.median(values)), bit for bit, for a 1-D float array of odd length without NaNs.

    values is sorted in place and its middle entry read; the length is a
    _median_plan count, which is odd. A sort of a few dozen floats skips
    np.median's fixed per-call cost.
    """
    values.sort()
    return float(values[values.size // 2])


def _check_size(M: int, view) -> None:
    """Raises DomainError unless M >= 1 cells and the view draws over exactly M."""
    if M < 1:
        raise DomainError("domain size must be >= 1")
    if view.size != M:
        raise DomainError(f"domain size M = {M} but the view has {view.size} cells")


def _poissonized_counts(view, lam: float, rng: Rng) -> np.ndarray:
    """Per-symbol counts of a Poi(lam)-sized batch: independent Poi(lam * p_i)
    entries, as a dense integer vector of length M; view.last records them
    with lam and the samples drawn fresh.

    A view whose parent holds a batch at lam_1 (parent.last) keeps each of
    its samples, summed over the parent's trailing axes, w.p.
    min(1, lam / lam_1), by binomial draws from rng's own generator:
    thinning Poi(lam_1 p_i) leaves Poi(min(lam, lam_1) p_i). The rest of the
    rate, l = lam - lam_1 (all of lam with no parent batch), is drawn fresh.
    A view without a law draws it from rng.split(0): K ~ Poi(l) from its
    child 0 and K symbols from its child 1. A view with one draws from rng's
    own generator: at l >= M one Poisson per cell; below, K ~ Poi(l)
    uniforms mapped through view.inverse_cdf(l) and binned, which Poisson
    splitting makes the same law.
    """
    lam_parent, counts = 0.0, None
    if view.parent is not None and view.parent.last is not None:
        lam_parent, table, _ = view.parent.last
        counts = rng.gen.binomial(table.reshape(view.size, -1).sum(axis=1), min(1.0, lam / lam_parent))
    fresh_lam, drawn = lam - lam_parent, 0
    if fresh_lam > 0:
        if view.probs is None:
            rng = rng.split(0)
            drawn = int(rng.split(0).gen.poisson(fresh_lam))
            fresh = np.bincount(view.draw(drawn, rng.split(1)), minlength=view.size)
        elif fresh_lam >= view.size:
            fresh = rng.gen.poisson(fresh_lam * view.probs)
            drawn = int(fresh.sum())
        else:
            drawn = int(rng.gen.poisson(fresh_lam))
            fresh = np.bincount(view.inverse_cdf(fresh_lam)(rng.gen.random(drawn)), minlength=view.size)
        counts = fresh if counts is None else counts + fresh
    view.last = (lam, counts, drawn)
    return counts


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
    T = _norm_batch(M, cfg.norm_sample_mult)
    r = repetitions(delta, cfg)
    ests = _norm_statistics(view, T, r, rng)
    if account is not None:
        account.add(stage, T * r)
    return _median(ests)


def _norm_batch(M: int, mult: float) -> int:
    """The norm's batch size on M cells: T = mult * ceil(sqrt(M)), rounded up, at least 2."""
    return max(2, math.ceil(mult * math.ceil(math.sqrt(M))))


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
        idx = view.inverse_cdf(u.size, sorted_rows=True)(u)
    else:
        idx = np.sort([view.draw(T, rng.split(j)) for j in range(r)], axis=1)
    return _ordered_pairs(idx) / (T * (T - 1))


def closeness_params(M: int, b: float, eps: float, cfg: EstimatorConfig) -> tuple[float, float]:
    """Poisson rate and reject threshold used by closeness_test on M cells:
    lambda = C * M * sqrt(min(b, 1)) / eps^2 and C_thr * lambda^2 eps^2 / M,
    with (C, C_thr) the band of cfg.closeness_bands that serves M.

    b bounds min(||p||_2^2, ||q||_2^2) of the joint p and the product q it
    is tested against. A b above 1 says nothing, since every mass vector has
    l2^2 <= 1, so it is clamped to 1 rather than inflating the batch; the
    testers pass measured bounds, which are usually far below. An eps whose
    square is not a positive normal float is rejected, and so is a rate
    above the largest Poisson mean numpy draws at; no cell's mean
    lambda * p_i exceeds it.
    """
    _check_finite("eps", eps, "(0, 2]")
    _check_finite("b", b)
    if b <= 0:
        raise DomainError(f"norm bound b must be positive, got {b}")
    _, sample_mult, threshold_mult = _closeness_band(M, cfg.closeness_bands)
    b_eff = min(float(b), 1.0)
    lam = sample_mult * M * math.sqrt(b_eff) / _normal_square("eps", eps)
    if lam > _POISSON_MEAN_MAX:
        raise DomainError(
            f"closeness batch mean lambda = {lam:.6g} exceeds the largest Poisson mean,"
            f" {_POISSON_MEAN_MAX:.6g}; eps = {eps!r} is too small"
        )
    threshold = threshold_mult * lam * lam * eps * eps / M
    return lam, threshold


def _closeness_band(M: int, bands: tuple[tuple[int, float, float], ...]) -> tuple[int, float, float]:
    """The (first M, C, C_thr) of the band that serves M cells: the last
    whose first M is at most M, or the first band below them all."""
    band = bands[0]
    for nxt in bands[1:]:
        if nxt[0] > M:
            break
        band = nxt
    return band


def closeness_test(
    view,
    M: int,
    b: float,
    eps: float,
    delta: float,
    cfg: EstimatorConfig,
    rng: Rng,
    account: SampleAccount | None = None,
) -> bool:
    """Tests whether the last axis of the view's grid is independent of the others, from one batch.

    Reads the view's law p on its grid view.dims as a table whose columns
    are the last axis and whose rows are the others, row-major, and tests p
    = p_rows x p_cols, the product of its row and column marginals, against
    tv(p, p_rows x p_cols) >= eps, for laws with
    min(||p||_2^2, ||p_rows x p_cols||_2^2) <= b; errs w.p. at most delta.
    Returns True to accept.

    Draws one Poissonized count table N of the view at rate
    lambda = C * M * sqrt(b) / eps^2 and rejects when
    Z = D - 2 T_3 / lambda + T_4 / lambda^2 exceeds
    C_thr * lambda^2 eps^2 / M, with (C, C_thr) the band of
    cfg.closeness_bands that serves M. The coincidence counts D, T_3, T_4
    (_independence_terms) have means lambda^2 ||p||_2^2,
    lambda^3 sum_ij p_ij p_rows(i) p_cols(j) and
    lambda^4 ||p_rows||_2^2 ||p_cols||_2^2, so
    E[Z] = lambda^2 ||p - p_rows x p_cols||_2^2, which tv >= eps puts at
    4 lambda^2 eps^2 / M or more. Z is compared with the threshold exactly.
    The calibrated rule errs w.p. at most CLOSENESS_ERROR in every band, so
    delta must be at least that; amplify reaches a smaller one. The account
    holds the fresh samples. N is _poissonized_counts(view, lambda, rng).
    """
    if len(view.dims) < 2:
        raise DomainError(f"closeness tests an axis against the others, but the view's grid is {view.dims}")
    _check_size(M, view)
    lam, threshold = closeness_params(M, b, eps, cfg)
    _check_finite("delta", delta, _DELTA_RANGE_OF_CLOSENESS)
    counts = _poissonized_counts(view, lam, rng).reshape(-1, view.dims[-1])
    pairs, triples, quads, _ = _independence_terms(counts)
    if account is not None:
        account.add("closeness", view.last[2])
    # Z <= threshold, times lambda^2 and both denominators: lambda = a / c
    # and threshold = t / u exactly, as floats are.
    a, c = lam.as_integer_ratio()
    t, u = threshold.as_integer_ratio()
    return (pairs * a * a - 2 * triples * a * c + quads * c * c) * u <= t * a * a


def _independence_terms(counts: np.ndarray) -> tuple[int, int, int, int]:
    """(D, T_3, T_4, K) of a count table N with row sums R and column sums C, as exact ints.

    Read each of the K = sum N samples as a cell (i, j). D = sum N_ij (N_ij - 1)
    counts ordered pairs of distinct samples in one cell. T_3 counts ordered
    triples (s, t, u) of distinct samples with t in the row of s and u in
    its column, which is R . (N C) less the triples in which two coincide:
    T_3 = R . (N C) - sum R_i^2 - sum C_j^2 - sum N_ij^2 + 2 K. T_4 counts
    ordered quadruples of distinct samples, two in one row and two in one
    column: sum R_i (R_i - 1) * sum C_j (C_j - 1) less the pairs of pairs
    that share a sample, 4 T_3 of them sharing one and 2 D sharing two. On
    Poissonized counts every such tuple of distinct samples has mean
    lambda^k times the product of the masses it names.

    The sums of squares are at most K^2, and N C or R N at most K times a
    row or column sum; while K <= isqrt(2^63 - 1) they are summed in int64,
    a larger table in Python ints. The last dot product, over the shorter
    axis, is always summed in Python ints, since it reaches K^3.
    """
    k = int(counts.sum())
    if k > _INT64_DOT_SAMPLES:
        counts = counts.astype(object)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    flat = counts.reshape(-1)
    squares, row_squares, col_squares = int(flat @ flat), int(rows @ rows), int(cols @ cols)
    short, inner = (rows, counts @ cols) if rows.size <= cols.size else (cols, rows @ counts)
    weighted = sum(map(operator.mul, short.tolist(), inner.tolist()))
    pairs = squares - k
    triples = weighted - row_squares - col_squares - squares + 2 * k
    quads = (row_squares - k) * (col_squares - k) - 4 * triples - 2 * pairs
    return pairs, triples, quads, k


def learn_empirical(sampler, t: int, rng: Rng, account: SampleAccount | None = None) -> JointDistribution:
    """Empirical histogram of t draws over sampler.dims, as an exact rational-count distribution."""
    t = _stream_key("sample size t", t)
    if t < 1:
        raise DomainError("sample size t must be >= 1")
    if t > _INT64_MAX:
        raise DomainError(f"sample size t = {t} exceeds the largest count numpy draws, {_INT64_MAX}")
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
