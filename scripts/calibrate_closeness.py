#!/usr/bin/env python3
"""Grid-search the closeness multipliers per domain-size band, and the norm's.

The closeness test draws one pair of Poissonized count vectors X, Y at
per-stream rate lambda = C_close * M * sqrt(b) / eps^2 and rejects when
Z = sum (X_i - Y_i)^2 - X_i - Y_i exceeds C_thr * lambda^2 eps^2 / M. This
script measures the error of that rule over a grid of (C_close, C_thr) on
matched null/alternative instances:

  null: p = q = a law on [M]
  alt:  p = the law, q = p +- 2 eps / M alternating, so tv(p, q) = eps
        and ||p - q||_2^2 = 4 eps^2 / M (the extremal spread pair)

with eps in {0.1, 0.3} and the tight norm bound b = ||p||_2^2 (=
min(||p||_2^2, ||q||_2^2) exactly). The laws are the uniform one (b M = 1)
and two-level laws with b M in {2, 5}, each with M in {10, 50, 200, 2000,
8192}: the testers size closeness from measured norms, which put b M near 2
on a uniform (100, 20) input and near 5 on the hidden-bit instances. Every
cell of a law exceeds 2 eps / M, so q stays a law, save on the two-level
law with b M = 5 on 10 cells at eps 0.3, which is left out. The M = 10 laws
stand for the smallest flattened domain a tester builds, 9 cells: an axis of
size 2 flattens to at least 3 buckets.

Each band of flattened domain sizes in EstimatorConfig.closeness_bands
(BANDS; they start at M = 9, 50 and 200) gets its own (C_close, C_thr),
calibrated on the cells of the band's lowest M. That rests on the premise
that a band's error does not grow with M: Z's tails thin toward the
Gaussian as M grows, so the lowest M binds. The lowest band also serves M
below its first, and the top band every larger M. The premise is checked
on the band's cells of higher M (the 2000- and 8192-cell ones, in the top
band): each draws one held-out set at the band's chosen point, and that
set's worst error, plus two binomial standard errors and rounded up as
below, must stay within the band's bound.

Per band, each C_close draws two sets of TRIALS statistics per cell on apart
streams. Its threshold is the C_thr with the smallest worst cell error on the
first set (the selection set); the same rule's worst cell error on the
second set (the check set) is held out from that choice. The point's bound
is the held-out worst error plus two binomial standard errors, rounded up to
a multiple of 1/2048. A point is left when its bound is at most the smallest
confidence the testers run closeness at (delta 1/120, three axes) and its
threshold sits at least NULL_SDS standard deviations of the null's Z out at
a tight b. The band's winner is the left point with the smallest C_close,
which is the call's cost in units of M sqrt(b) / eps^2 samples per stream;
so C_close runs up the grid and stops at the band's first left point.

The null tail is a rule of its own because the bound of 1/120 does not see
it. Under the null Var Z = 8 lambda^2 ||p||_2^2 exactly, so at a tight b
the threshold sits C_close * C_thr / (2 sqrt 2) standard deviations out,
whatever the cell (null_sds). A benchmark run of the testers makes tens of
thousands of closeness calls on null laws, so a call may err far less often
than 1/120 allows: at (5, 2.0), 3.5 standard deviations out, 1 in 80,000
trials of a uniform (100, 20) joint rejected, while the single-point
calibration's (8, 1.5), 4.2 out, never did; NULL_SDS = 4 lies between.

The one-batch statistic of closeness_test(view, None, ...), which tests a
two-axis joint against the product of its own marginals, gets its own
bands (EstimatorConfig.independence_bands, the same edges; INDEPENDENCE_*
below). Each band is calibrated on product laws of its smallest grids,
INDEPENDENCE_GRIDS (3 x 3 and 4 x 3 for the band from 9 cells, 10 x 5 from
50, 20 x 10 and 40 x 5 from 200), as nulls, and on their sign
perturbations p_1(i) p_2(j) (1 + 2 eps s_i t_j) as alternatives: signs
with sum p_1 s = sum p_2 t = 0 keep both marginals, and the perturbation
lies at tv eps from their product. On each grid the laws are the flat one
(uniform on an even axis, (2, 1, ..., 1) on an odd one) and those with
b M in INDEPENDENCE_RATIOS that heavy pairs on the first axis reach (see
axis_law), at b = min(||p||_2^2, ||p_1 x p_2||_2^2). The rule is the one
above, save two things: a point is left only when its bound is at most
estimators.CLOSENESS_ERROR, the error closeness_test is sized for, and its
null_sds is measured, the threshold over the largest standard deviation of
the band's null statistics, since this Z's null variance has no closed
form here. The top band's premise is checked on PREMISE_GRIDS, 100 x 20
and 128 x 64.

The norm's batch and median are chosen per side. For each C_norm in
NORM_SAMPLE_MULTS and each law on at most 200 cells above plus the uniform
law on 8,192 cells (about the size of a flattened (100, 20) joint),
NORM_TRIALS collision statistics over batches of T = C_norm * ceil(sqrt(M))
are drawn, and the shares below 1/2 and above 3/2 of ||p||_2^2 are counted
apart. The point's per-side bound is its worst side plus two binomial
standard errors, rounded up to a multiple of 1/64, and its repetition counts
are estimators._median_plan at that bound for the two- and three-axis norm
confidences. The winner has the smallest C_norm * r at the two-axis
confidence, then the smallest r at the three-axis one.

Every cell runs in a worker process, one per core the process may use; each
cell's streams are fixed, so the record is the same at any core count. A
block of a cell's statistics holds about BLOCK_COUNTS Poisson counts, so
the workers' memory does not grow with M.

Writes calibration.json next to pyproject.toml and prints the chosen points.
The chosen multipliers are frozen as EstimatorConfig defaults (the joint
batch's under "independence"), and
estimators.CLOSENESS_ERROR (the largest band bound) and
estimators.NORM_SIDE_ERROR are the bounds the estimators are sized for; the
script exits 1 when a band has no left point, when a premise check fails,
or when a chosen bound exceeds the committed one.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from augtest.domain import Rng
from augtest.estimators import (
    CLOSENESS_ERROR,
    NORM_SIDE_ERROR,
    EstimatorConfig,
    _closeness_band,
    _median_plan,
    _norm_batch,
    _norm_statistics,
    closeness_params,
    independence_params,
)
from augtest.flattening import FlatView
from augtest.testers import _CLOSENESS_DELTA, _NORM_DELTA

SEED = 20260814
TRIALS = 40000  # statistics per cell in each of the selection and check sets
SAMPLE_MULTS = [5.0, 6.0, 7.0, 8.0, 9.0]
# 0.8, 0.85, ..., 3.55
THRESHOLD_MULTS = [round(0.8 + 0.05 * i, 2) for i in range(56)]
# A left point's bound is at most the smallest confidence the testers run
# closeness at.
LEFT_BOUND = min(_CLOSENESS_DELTA.values())
# A left point's threshold also sits at least this many standard deviations
# of the null's Z out at a tight b (see the module docstring).
NULL_SDS = 4.0
SELECT, CHECK = 0, 1  # the two stream sets of a closeness cell
# Poisson counts per working array; a block of statistics holds
# max(1, BLOCK_COUNTS // M) rows of M cells.
BLOCK_COUNTS = 1 << 20
# Bounds are rounded up to a multiple of 1 / CLOSENESS_GRID (closeness) and
# 1 / BOUND_GRID (the norm's per-side error).
CLOSENESS_GRID = 2048
BOUND_GRID = 64
SIZES = [10, 50, 200]
EPSILONS = [0.1, 0.3]
# b M of the two-level laws, and their sizes; b M = 1 is the uniform law.
NORM_RATIOS = [2, 5]
SHAPED_SIZES = [50, 200]
HEAVY_SHARE = 0.02  # share of the cells that are heavy in a two-level law
# Closeness alone also draws on the uniform and two-level laws of these
# sizes, which check the top band's premise, and on the two-level laws of
# the smallest size, which the lowest band is calibrated on.
LARGE_SIZES = [2000, 8192]
# The closeness bands of EstimatorConfig, (first M, C_close, C_thr) by
# ascending first M; the script takes their edges and calibrates a point for
# each.
BANDS = EstimatorConfig().closeness_bands
NORM_TRIALS = 40000
NORM_SAMPLE_MULTS = [3.0, 3.5, 4.0, 5.0, 6.0]
NORM_LARGE_M = 8192  # a uniform law the norm is also calibrated on
# The confidences the two- and three-axis testers run each norm call at.
NORM_DELTAS = {f"delta=1/{round(1 / d)}": d for d in _NORM_DELTA.values()}
TWO_AXIS, THREE_AXIS = NORM_DELTAS
# The norm grid draws from Rng(SEED).split(NORM_STREAM), apart from the
# closeness rows, which take the streams 0, 1, ... of their C_close.
NORM_STREAM = 100
NORM_CHUNK = 5000  # statistics drawn per block, to bound the working arrays
# The one-batch statistic of two-axis joints (EstimatorConfig.independence_bands):
# its C grid, the grids of each band's smallest laws, keyed by the band's
# first M, and the grids of higher M that check the top band's premise. A
# flattened axis has at least 3 cells, so 3 x 3 is the smallest grid.
INDEPENDENCE_BANDS = EstimatorConfig().independence_bands
INDEPENDENCE_MULTS = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0]
INDEPENDENCE_GRIDS = {9: [(3, 3), (4, 3)], 50: [(10, 5)], 200: [(20, 10), (40, 5)]}
PREMISE_GRIDS = [(100, 20), (128, 64)]
# b M of the laws beside the flat one on each grid.
INDEPENDENCE_RATIOS = [2, 5]
# The independence cells draw from Rng(SEED).split(INDEPENDENCE_STREAM).
INDEPENDENCE_STREAM = 200


def two_level_law(M: int, ratio: float) -> np.ndarray:
    """A law on [M] with M ||p||_2^2 = ratio: k = HEAVY_SHARE * M heavy cells
    at the even positions 0, 2, ..., the rest light at l / M each.

    With f = k / M, mass 1 and M ||p||^2 = ratio give
    1 - l = sqrt((ratio - 1) f / (1 - f)).
    """
    k = max(1, round(HEAVY_SHARE * M))
    f = k / M
    light = 1.0 - np.sqrt((ratio - 1.0) * f / (1.0 - f))
    heavy = light + (1.0 - light) / f
    p = np.full(M, light / M)
    p[0 : 2 * k : 2] = heavy / M
    assert abs(p.sum() - 1.0) < 1e-12 and abs(M * np.dot(p, p) - ratio) < 1e-9
    return p


def spread_pair(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """p and its alternating perturbation q = p +- 2 eps / M, with tv(p, q) = eps.

    The heavy cells of a two-level law sit at even positions and gain mass,
    so ||q||_2^2 >= ||p||_2^2 and b = ||p||_2^2 is the tight bound.
    """
    M = p.size
    signs = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    q = p + signs * (2.0 * eps / M)
    assert q.min() > 0 and abs(q.sum() - 1.0) < 1e-12
    assert abs(0.5 * np.abs(p - q).sum() - eps) < 1e-12
    assert np.dot(q, q) >= np.dot(p, p)
    return p, q


def z_samples(p: np.ndarray, q: np.ndarray, lam: float, trials: int, rng: Rng) -> np.ndarray:
    """`trials` independent draws of the single-batch statistic Z, X from
    rng.split(0) and Y from rng.split(1).

    Each block draws whole rows of p.size counts, about BLOCK_COUNTS in all,
    so the working arrays are bounded whatever M is; a generator hands out
    the same counts however its rows are blocked.
    """
    gx, gy = rng.split(0).gen, rng.split(1).gen
    block = max(1, BLOCK_COUNTS // p.size)
    z = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        x = gx.poisson(lam * p, size=(rows, p.size))
        y = gy.poisson(lam * q, size=(rows, q.size))
        s = x + y
        np.subtract(x, y, out=x)
        np.multiply(x, x, out=x)
        np.subtract(x, s, out=x)
        x.sum(axis=1, out=z[start : start + rows])
    return z


def cell_errors(z: np.ndarray, unit: float, case: str) -> list[float]:
    """The rule's error on one cell's statistics z at each C_thr of
    THRESHOLD_MULTS, where the threshold is C_thr * unit: the share of z
    above it on a null cell, at or below it on an alternative one."""
    at_or_below = np.searchsorted(np.sort(z), [c_thr * unit for c_thr in THRESHOLD_MULTS], side="right")
    wrong = z.size - at_or_below if case == "null" else at_or_below
    return [float(w) / z.size for w in wrong]


def bound_up(error: float, trials: int, grid: int) -> float:
    """error plus two binomial standard errors over trials draws, rounded up to a multiple of 1 / grid."""
    return math.ceil((error + 2.0 * math.sqrt(error * (1.0 - error) / trials)) * grid) / grid


def threshold_index(select_worst: list[float]) -> int:
    """The index of the first C_thr with the smallest worst cell error on the selection set."""
    return min(range(len(THRESHOLD_MULTS)), key=select_worst.__getitem__)


def closeness_point(c_close: float, select_worst: list[float], select_errors: dict, check_errors: dict) -> dict:
    """The C_close row's threshold, held-out bound and standing in one band.

    select_worst holds the selection set's worst cell error over the band's
    cells at each C_thr of THRESHOLD_MULTS; select_errors and check_errors
    are the per-cell errors at the threshold_index(select_worst) one on the
    selection and check sets.
    """
    i = threshold_index(select_worst)
    check = max(check_errors.values())
    bound = bound_up(check, TRIALS, CLOSENESS_GRID)
    null_sds = c_close * THRESHOLD_MULTS[i] / (2.0 * math.sqrt(2.0))
    return {
        "closeness_sample_mult": c_close,
        "closeness_threshold_mult": THRESHOLD_MULTS[i],
        "select_error": select_worst[i],
        "check_error": check,
        "binding_cell": max(check_errors, key=check_errors.get),
        "bound": bound,
        "null_sds": null_sds,
        "left": bound <= LEFT_BOUND and null_sds >= NULL_SDS,
        "select_worst": select_worst,
        "select_errors": select_errors,
        "check_errors": check_errors,
    }


def band_point(c_close: float, errors: dict) -> dict:
    """closeness_point of one band's C_close row from its cells' errors.

    errors maps SELECT and CHECK to {cell label: errors by C_thr}.
    """
    return closeness_point(c_close, *selected_errors(errors))


def selected_errors(errors: dict) -> tuple[list[float], dict, dict]:
    """The selection set's worst cell error at each C_thr of THRESHOLD_MULTS,
    and each cell's selection and check errors at the threshold_index one."""
    select_worst = [max(e[i] for e in errors[SELECT].values()) for i in range(len(THRESHOLD_MULTS))]
    i = threshold_index(select_worst)
    at = {s: {label: e[i] for label, e in by_label.items()} for s, by_label in errors.items()}
    return select_worst, at[SELECT], at[CHECK]


def norm_ratios(law: np.ndarray, c_norm: float, trials: int, rng: Rng) -> np.ndarray:
    """`trials` collision statistics of the norm estimator over batches of
    T = c_norm * ceil(sqrt(M)) draws of law, each divided by ||law||_2^2."""
    T = _norm_batch(law.size, c_norm)
    view = FlatView.from_law(law)
    stats = [
        _norm_statistics(view, T, min(NORM_CHUNK, trials - start), rng) for start in range(0, trials, NORM_CHUNK)
    ]
    return np.concatenate(stats) / float(law @ law)


def norm_plan_point(c_norm: float, errors: dict[str, float]) -> dict:
    """The norm grid point's per-side bound, repetition counts and cost."""
    max_err = max(errors.values())
    bound = bound_up(max_err, NORM_TRIALS, BOUND_GRID)
    reps = {label: _median_plan(delta, bound) for label, delta in NORM_DELTAS.items()}
    return {
        "norm_sample_mult": c_norm,
        "max_error": max_err,
        "bound": bound,
        "reps": reps,
        # samples per norm call in units of ceil(sqrt(M)), at the two-axis confidence
        "cost": c_norm * reps[TWO_AXIS],
        "errors": errors,
    }


def norm_cell(law: np.ndarray, c_norm: float, stream: tuple[int, ...]) -> tuple[float, float]:
    """The shares of NORM_TRIALS statistics below 1/2 and above 3/2 of the truth on Rng(SEED, stream)."""
    ratio = norm_ratios(law, c_norm, NORM_TRIALS, Rng(SEED, stream))
    return float(np.mean(ratio < 0.5)), float(np.mean(ratio > 1.5))


def calibrate_norm(laws, pool) -> dict:
    """The norm grid's points and the chosen one, as calibration.json records them.

    The norm point at grid index m draws law l from Rng(SEED).split(NORM_STREAM).split(m).split(l).
    """
    jobs = {
        (mi, li): pool.submit(norm_cell, law, c_norm, (NORM_STREAM, mi, li))
        for mi, c_norm in enumerate(NORM_SAMPLE_MULTS)
        for li, (_, law, _) in enumerate(laws)
    }
    results = []
    for mi, c_norm in enumerate(NORM_SAMPLE_MULTS):
        errors = {}
        for li, (name, _, _) in enumerate(laws):
            errors[f"{name},low"], errors[f"{name},high"] = jobs[mi, li].result()
        results.append(norm_plan_point(c_norm, errors))
    chosen = min(results, key=lambda r: (r["cost"], r["reps"][THREE_AXIS]))
    return {
        "trials_per_law": NORM_TRIALS,
        "criterion": (
            "per side (below 1/2 or above 3/2 of ||p||_2^2): bound = worst side over the laws "
            "+ 2 binomial standard errors, rounded up to k/64; reps = _median_plan(delta, bound), "
            "the smallest r with P(Bin(r, bound) >= ceil(r/2)) <= delta/2, at the two- and "
            "three-axis norm deltas; the winner has the smallest C_norm * r at delta 1/120, "
            "then the smallest r at delta 1/180"
        ),
        "grid": {"norm_sample_mult": NORM_SAMPLE_MULTS, "laws": [name for name, _, _ in laws]},
        "chosen": chosen,
        "results": results,
    }


def calibration_laws() -> list[tuple[str, np.ndarray, int]]:
    """(label, law, b M) of the laws on at most 200 cells: the uniform ones, then the two-level ones."""
    laws = [(f"M={M}", np.full(M, 1.0 / M), 1) for M in SIZES]
    return laws + [
        (f"M={M},bM={ratio}", two_level_law(M, ratio), ratio)
        for ratio in NORM_RATIOS
        for M in SHAPED_SIZES
    ]


def added_laws() -> list[tuple[str, np.ndarray, int]]:
    """(label, law, b M) of the laws closeness alone draws on: the uniform and
    two-level ones on LARGE_SIZES cells, then the two-level ones on the
    smallest size, so that the lowest band meets them too."""
    large = [(f"M={M}", np.full(M, 1.0 / M), 1) for M in LARGE_SIZES]
    large += [(f"M={M},bM={ratio}", two_level_law(M, ratio), ratio) for ratio in NORM_RATIOS for M in LARGE_SIZES]
    M = SIZES[0]
    return large + [(f"M={M},bM={ratio}", two_level_law(M, ratio), ratio) for ratio in NORM_RATIOS]


def closeness_cells(laws) -> list[tuple[str, np.ndarray, float, float, str]]:
    """(label, law, b, eps, case) of every closeness cell, with b = b M / M = ||p||_2^2 of the law.

    A law whose lightest cell is at most 2 eps / M has no spread pair at
    that eps, and its cells there are left out.
    """
    return [
        (f"{name},eps={eps},{case}", law, ratio / law.size, eps, case)
        for name, law, ratio in laws
        for eps in EPSILONS
        if law.min() > 2.0 * eps / law.size
        for case in ("null", "alt")
    ]


def all_closeness_cells() -> list[tuple[str, np.ndarray, float, float, str]]:
    """Every closeness cell, in stream order: those of calibration_laws(), then those of added_laws().

    The cells of calibration_laws() keep the indices the single-point
    calibration gave them, so their statistics are drawn from the same streams.
    """
    return closeness_cells(calibration_laws()) + closeness_cells(added_laws())


def band_of(M: int) -> int:
    """The index in BANDS of the band that serves M cells."""
    return BANDS.index(_closeness_band(M, BANDS))


def band_cells(cells) -> tuple[list[list[int]], list[list[int]]]:
    """Per band, the indices of the cells it is calibrated on, those of its
    lowest M, and of the cells that check its premise, those of higher M."""
    sizes = [[law.size for _, law, *_ in cells if band_of(law.size) == band] for band in range(len(BANDS))]
    lowest = [min(in_band) for in_band in sizes]
    members = [[k for k, (_, law, *_) in enumerate(cells) if law.size == M] for M in lowest]
    above = [
        [k for k, (_, law, *_) in enumerate(cells) if band_of(law.size) == band and law.size > M]
        for band, M in enumerate(lowest)
    ]
    return members, above


def cell_row(cell, c_close: float, trials: int, stream: tuple[int, ...]) -> list[float]:
    """cell_errors of `trials` statistics of one cell at C_close, drawn on Rng(SEED, stream)."""
    _, law, b, eps, case = cell
    lam, unit = closeness_params(law.size, b, eps, EstimatorConfig(closeness_bands=((1, c_close, 1.0),)))
    p, q = spread_pair(law, eps)
    z = z_samples(p, p if case == "null" else q, lam, trials, Rng(SEED, stream))
    return cell_errors(z, unit, case)


def premise_check(chosen: dict, rows: dict) -> dict:
    """The band's chosen point on the cells of higher M: their check-set
    errors at its threshold, the worst, and its bound, which must stay
    within the band's. rows maps each cell's label to its errors by C_thr."""
    i = THRESHOLD_MULTS.index(chosen["closeness_threshold_mult"])
    errors = {label: row[i] for label, row in rows.items()}
    check = max(errors.values())
    bound = bound_up(check, TRIALS, CLOSENESS_GRID)
    return {"check_error": check, "bound": bound, "holds": bound <= chosen["bound"], "check_errors": errors}


def calibrate_bands(cells, pool) -> list[dict]:
    """Per band, its C_close rows up to the first left one, that point, and
    the point's premise check on the band's cells of higher M.

    Each round runs the next C_close of every band without a left point yet,
    all of its cells and both stream sets in the pool at once. Cell k of the
    C_close at grid index c draws its set s from Rng(SEED).split(c).split(k).split(s);
    a premise check draws the check set of its cells at the chosen C_close.
    """
    members, above = band_cells(cells)
    rows: list[list[dict]] = [[] for _ in BANDS]
    premise_jobs: list[list] = [[] for _ in BANDS]
    for ci, c_close in enumerate(SAMPLE_MULTS):
        open_bands = [band for band in range(len(BANDS)) if not (rows[band] and rows[band][-1]["left"])]
        # the largest cells first, so the small ones fill the cores at the end
        order = sorted(
            ((k, s) for band in open_bands for k in members[band] for s in (SELECT, CHECK)),
            key=lambda ks: -cells[ks[0]][1].size,
        )
        jobs = {(k, s): pool.submit(cell_row, cells[k], c_close, TRIALS, (ci, k, s)) for k, s in order}
        for band in open_bands:
            errors = {s: {cells[k][0]: jobs[k, s].result() for k in members[band]} for s in (SELECT, CHECK)}
            rows[band].append(band_point(c_close, errors))
            if rows[band][-1]["left"]:
                # drawn while the other bands run on
                premise_jobs[band] = [
                    (cells[k][0], pool.submit(cell_row, cells[k], c_close, TRIALS, (ci, k, CHECK)))
                    for k in above[band]
                ]
    out = []
    for band, (first_M, _, _) in enumerate(BANDS):
        chosen = next((row for row in rows[band] if row["left"]), None)
        out.append(
            {
                "first_M": first_M,
                "M": int(cells[members[band][0]][1].size),
                "chosen": chosen,
                "premise": (
                    premise_check(chosen, {label: job.result() for label, job in premise_jobs[band]})
                    if premise_jobs[band]
                    else None
                ),
                "results": rows[band],
            }
        )
    return out


def axis_law(n: int, ratio: float | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """A law on n cells and signs s = +-1 with sum law * s = 0, or None when
    no law of this shape reaches the ratio.

    The cells form units whose masses cancel under s: pairs (w, w) signed
    (+, -), and on odd n a leading triple (2w, w, w) signed (+, -, -). With
    ratio None every w is equal (the uniform law on even n). Otherwise the
    first max(1, round(HEAVY_SHARE * n / 2)) pairs are heavy, their w raised
    so that n ||law||_2^2 = ratio; a ratio at or above what heavy pairs
    alone give is not reached.
    """
    first = 3 * (n % 2)  # the cells of the triple
    w = np.ones(n)
    w[:first] = (2.0, 1.0, 1.0)[:first]
    s = np.concatenate(((1.0, -1.0, -1.0)[:first], np.where(np.arange(n - first) % 2 == 0, 1.0, -1.0)))
    if ratio is not None:
        heavy = np.zeros(n, dtype=bool)
        heavy[first : first + 2 * max(1, round(HEAVY_SHARE * n / 2))] = True
        if not heavy.any():
            return None
        sh, qh = w[heavy].sum(), (w[heavy] ** 2).sum()
        sl, ql = w[~heavy].sum(), (w[~heavy] ** 2).sum()
        # ratio = n (h^2 qh + ql) / (h sh + sl)^2, a quadratic in the heavy factor h
        a, b, c = n * qh - ratio * sh * sh, -2.0 * ratio * sh * sl, n * ql - ratio * sl * sl
        if a <= 0:
            return None
        h = max((-b + sign * math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a) for sign in (1.0, -1.0))
        w[heavy] *= h
    law = w / w.sum()
    assert abs(law @ s) < 1e-12
    assert ratio is None or abs(n * (law @ law) - ratio) < 1e-9
    return law, s


def grid_laws(dims: tuple[int, int]) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(label, p_1, s, p_2, t) of the product laws on a grid: the flat one,
    then those whose b M is each of INDEPENDENCE_RATIOS that axis 1 reaches,
    with axis 2 flat."""
    p2, t = axis_law(dims[1])
    laws = [(f"{dims[0]}x{dims[1]}", *axis_law(dims[0]), p2, t)]
    for ratio in INDEPENDENCE_RATIOS:
        axis = axis_law(dims[0], ratio / (dims[1] * float(p2 @ p2)))
        if axis is not None:
            laws.append((f"{dims[0]}x{dims[1]},bM={ratio}", *axis, p2, t))
    return laws


def independence_cells(grids) -> list[tuple[str, np.ndarray, float, float, str]]:
    """(label, joint law, b, eps, case) of every cell on the grids.

    The null law is the product p_1 x p_2; the alternative perturbs it by
    1 + 2 eps s_i t_j, which keeps both marginals (sum p_1 s = sum p_2 t = 0)
    and lies at tv eps from that product. b is the tight bound
    min(||p||_2^2, ||p_1 x p_2||_2^2).
    """
    cells = []
    for dims in grids:
        for name, p1, s, p2, t in grid_laws(dims):
            product = np.outer(p1, p2)
            for eps in EPSILONS:
                alt = product * (1.0 + 2.0 * eps * np.outer(s, t))
                assert abs(0.5 * np.abs(alt - product).sum() - eps) < 1e-12
                b = min(float((alt * alt).sum()), float((product * product).sum()))
                cells.append((f"{name},eps={eps},null", product, float((product * product).sum()), eps, "null"))
                cells.append((f"{name},eps={eps},alt", alt, b, eps, "alt"))
    return cells


def joint_z_samples(p: np.ndarray, lam: float, trials: int, rng: Rng) -> np.ndarray:
    """`trials` independent draws of the one-batch statistic Z of a joint law
    p on a grid, each from a table N of Poi(lam p_ij) counts on rng's generator.

    Z = D - 2 T_3 / lam + T_4 / lam^2, with the coincidence counts of
    estimators._independence_terms taken row-wise over blocks of tables.
    """
    gen = rng.gen
    block = max(1, BLOCK_COUNTS // p.size)
    z = np.empty(trials)
    for start in range(0, trials, block):
        n = gen.poisson(lam * p, size=(min(block, trials - start), *p.shape))
        k = n.sum(axis=(1, 2))
        rows, cols = n.sum(axis=2), n.sum(axis=1)
        squares = (n * n).sum(axis=(1, 2))
        row_squares, col_squares = (rows * rows).sum(axis=1), (cols * cols).sum(axis=1)
        weighted = np.einsum("ri,rij,rj->r", rows, n, cols)
        pairs = squares - k
        triples = weighted - row_squares - col_squares - squares + 2 * k
        quads = (row_squares - k).astype(np.float64) * (col_squares - k) - 4 * triples - 2 * pairs
        z[start : start + n.shape[0]] = pairs - 2.0 * triples / lam + quads / (lam * lam)
    return z


def independence_row(cell, c: float, trials: int, stream: tuple[int, ...]) -> tuple[list[float], float]:
    """cell_errors of `trials` one-batch statistics of a cell at sample
    multiplier c, drawn on Rng(SEED, stream), and their standard deviation
    in units of the threshold at C_thr = 1."""
    _, law, b, eps, case = cell
    lam, unit = independence_params(law.size, b, eps, EstimatorConfig(independence_bands=((1, c, 1.0),)))
    z = joint_z_samples(law, lam, trials, Rng(SEED, stream))
    return cell_errors(z, unit, case), float(z.std()) / unit


def independence_point(
    c: float, select_worst: list[float], select_errors: dict, check_errors: dict, null_sd: dict
) -> dict:
    """closeness_point of a joint batch band's row at sample multiplier c,
    whose null_sds is measured: the threshold over the largest standard
    deviation of its null cells' Z, null_sd[label] in units of the threshold
    at C_thr = 1. The point is left when its bound is at most
    CLOSENESS_ERROR and null_sds is at least NULL_SDS.
    """
    point = closeness_point(c, select_worst, select_errors, check_errors)
    null_sds = point["closeness_threshold_mult"] / max(null_sd.values())
    point.update(null_sds=null_sds, left=point["bound"] <= CLOSENESS_ERROR and null_sds >= NULL_SDS, null_sd=null_sd)
    return point


def calibrate_independence(pool) -> list[dict]:
    """Per band of INDEPENDENCE_BANDS, its rows up to the first left one on
    the cells of INDEPENDENCE_GRIDS[first M], that point, and, in the top
    band, the point's premise check on the cells of PREMISE_GRIDS.

    Cell k of the band's cells at grid index c of INDEPENDENCE_MULTS draws
    its set s from Rng(SEED).split(INDEPENDENCE_STREAM).split(c).split(first M).split(k).split(s);
    a premise cell k draws its check set at the chosen c from
    .split(c).split(0).split(k).split(CHECK). A null cell's standard
    deviation is that of both of its sets' statistics, the larger one.
    """
    out = []
    for first_M, _, _ in INDEPENDENCE_BANDS:
        cells = independence_cells(INDEPENDENCE_GRIDS[first_M])
        rows = []
        for ci, c in enumerate(INDEPENDENCE_MULTS):
            jobs = {
                (k, s): pool.submit(independence_row, cell, c, TRIALS, (INDEPENDENCE_STREAM, ci, first_M, k, s))
                for k, cell in enumerate(cells)
                for s in (SELECT, CHECK)
            }
            errors = {s: {cell[0]: jobs[k, s].result()[0] for k, cell in enumerate(cells)} for s in (SELECT, CHECK)}
            null_sd = {
                cell[0]: max(jobs[k, s].result()[1] for s in (SELECT, CHECK))
                for k, cell in enumerate(cells)
                if cell[4] == "null"
            }
            rows.append(independence_point(c, *selected_errors(errors), null_sd))
            if rows[-1]["left"]:
                break
        chosen = rows[-1] if rows[-1]["left"] else None
        premise = None
        if chosen is not None and first_M == INDEPENDENCE_BANDS[-1][0]:
            c = chosen["closeness_sample_mult"]
            ci = INDEPENDENCE_MULTS.index(c)
            jobs = [
                (cell[0], pool.submit(independence_row, cell, c, TRIALS, (INDEPENDENCE_STREAM, ci, 0, k, CHECK)))
                for k, cell in enumerate(independence_cells(PREMISE_GRIDS))
            ]
            premise = premise_check(chosen, {label: job.result()[0] for label, job in jobs})
        out.append(
            {
                "first_M": first_M,
                "grids": [list(dims) for dims in INDEPENDENCE_GRIDS[first_M]],
                "cells": [cell[0] for cell in cells],
                "chosen": chosen,
                "premise": premise,
                "results": rows,
            }
        )
    return out


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    began = time.monotonic()
    cells = all_closeness_cells()
    laws = calibration_laws()
    large = np.full(NORM_LARGE_M, 1.0 / NORM_LARGE_M)
    workers = len(os.sched_getaffinity(0))  # the cores this process may run on
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        bands = calibrate_bands(cells, pool)
        norm = calibrate_norm(laws + [(f"M={NORM_LARGE_M}", large, 1)], pool)
        independence = calibrate_independence(pool)

    out = {
        "seed": SEED,
        "trials_per_cell": TRIALS,
        "streams": (
            "cell k of the C_close at grid index c draws its selection set from "
            "Rng(seed).split(c).split(k).split(0) and its check set from .split(1); "
            "X from the set's .split(0), Y from its .split(1); k indexes the cells in the "
            "order of cells, the same in every band"
        ),
        "criterion": (
            "per band, on the cells of its lowest M: one X/Y batch per call; the threshold is the "
            "first C_thr with the smallest worst cell error on the selection set; bound = worst "
            "cell error on the check set + 2 binomial standard errors, rounded up to "
            f"k/{CLOSENESS_GRID}; a point is left when its bound is at most {LEFT_BOUND!r} "
            f"(delta 1/120) and null_sds = C_close * C_thr / (2 sqrt 2), the threshold's distance "
            f"in null standard deviations of Z at a tight b, is at least {NULL_SDS!r}; C_close "
            "runs up the grid and the band's first left point wins; its premise check draws the "
            "check set of the band's cells of higher M at that point, and its bound, rounded up "
            "likewise, must be at most the band's"
        ),
        "norm_bound": (
            "b = ||p||_2^2 (exactly min(||p||_2^2, ||q||_2^2)); bM = 1 on the uniform "
            "cells, bM = 2 and 5 on the two-level ones"
        ),
        "grid": {
            "closeness_sample_mult": SAMPLE_MULTS,
            "closeness_threshold_mult": THRESHOLD_MULTS,
            "M": SIZES + LARGE_SIZES,
            "two_level_bM": NORM_RATIOS,
            "two_level_M": SIZES[:1] + SHAPED_SIZES + LARGE_SIZES,
            "eps": EPSILONS,
            "bands": [first_M for first_M, _, _ in BANDS],
        },
        "cells": [label for label, *_ in cells],
        "bands": bands,
        "norm": norm,
        "independence": {
            "streams": (
                "cell k of the band starting at M = m, at grid index c of sample_mult, draws its "
                f"set s from Rng(seed).split({INDEPENDENCE_STREAM}).split(c).split(m).split(k).split(s); "
                "premise cell k draws its check set from .split(c).split(0).split(k).split(1)"
            ),
            "criterion": (
                "per band, on the product laws of its smallest grids (null) and their sign "
                "perturbations 1 + 2 eps s_i t_j at tv eps (alt), at b = min(||p||_2^2, "
                "||p_1 x p_2||_2^2): one joint batch per call; the threshold and bound follow the "
                f"closeness rule; a point is left when its bound is at most CLOSENESS_ERROR = "
                f"{CLOSENESS_ERROR!r} and null_sds = C_thr / (the largest standard deviation of the "
                f"null cells' Z, in units of the threshold at C_thr 1) is at least {NULL_SDS!r}; the "
                "top band's premise check draws the check set of its grids of higher M"
            ),
            "grid": {
                "sample_mult": INDEPENDENCE_MULTS,
                "bM": INDEPENDENCE_RATIOS,
                "premise_grids": [list(dims) for dims in PREMISE_GRIDS],
            },
            "bands": independence,
        },
    }
    path = root / "calibration.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path} in {time.monotonic() - began:.0f} s on {workers} cores")
    status = 0
    for band in bands:
        chosen = band["chosen"]
        if chosen is None:
            print(f"band M >= {band['first_M']}: no grid point is left", file=sys.stderr)
            status = 1
            continue
        print(
            f"band M >= {band['first_M']}: closeness_sample_mult={chosen['closeness_sample_mult']}, "
            f"closeness_threshold_mult={chosen['closeness_threshold_mult']} (held-out worst cell error "
            f"{chosen['check_error']:.4f} at {chosen['binding_cell']}, bound {chosen['bound']}, "
            f"{chosen['null_sds']:.2f} null SDs out)"
        )
        premise = band["premise"]
        if premise is not None and not premise["holds"]:
            print(
                f"band M >= {band['first_M']}: its cells of higher M err up to {premise['check_error']:.4f}, "
                f"a bound of {premise['bound']} above the band's",
                file=sys.stderr,
            )
            status = 1
    for band in independence:
        chosen, premise = band["chosen"], band["premise"]
        if chosen is None:
            print(f"independence band M >= {band['first_M']}: no grid point is left", file=sys.stderr)
            status = 1
            continue
        print(
            f"independence band M >= {band['first_M']}: sample_mult={chosen['closeness_sample_mult']}, "
            f"threshold_mult={chosen['closeness_threshold_mult']} (held-out worst cell error "
            f"{chosen['check_error']:.4f} at {chosen['binding_cell']}, bound {chosen['bound']}, "
            f"{chosen['null_sds']:.2f} null SDs out)"
        )
        if premise is not None and not premise["holds"]:
            print(
                f"independence band M >= {band['first_M']}: its grids of higher M err up to "
                f"{premise['check_error']:.4f}, a bound of {premise['bound']} above the band's",
                file=sys.stderr,
            )
            status = 1
    norm_chosen = norm["chosen"]
    print(
        f"chosen: norm_sample_mult={norm_chosen['norm_sample_mult']} (max per-side error "
        f"{norm_chosen['max_error']:.4f}, bound {norm_chosen['bound']}, reps {norm_chosen['reps']})"
    )
    if status:
        return status
    # bound >= max_error by construction, so this also holds the premises
    for name, got, committed in (
        ("CLOSENESS_ERROR", max(band["chosen"]["bound"] for band in bands), CLOSENESS_ERROR),
        ("NORM_SIDE_ERROR", norm_chosen["bound"], NORM_SIDE_ERROR),
    ):
        if got > committed:
            print(
                f"the chosen bound {got} exceeds estimators.{name} = {committed}, "
                "the error the committed estimators are sized for",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
