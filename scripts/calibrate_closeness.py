#!/usr/bin/env python3
"""Grid-search the closeness multipliers per domain-size band, and the norm's.

closeness_test draws one Poissonized table N of a joint law p on a grid at
rate lambda = C * M * sqrt(b) / eps^2 and rejects when
Z = D - 2 T_3 / lambda + T_4 / lambda^2 exceeds C_thr * lambda^2 eps^2 / M,
where D, T_3 and T_4 are the coincidence counts of
estimators._independence_terms (E[Z] = lambda^2 ||p - p_1 x p_2||_2^2 for
the marginals p_1, p_2 of its rows and columns). This script measures the
error of that rule over a grid of (C, C_thr) on matched null/alternative
instances:

  null: a product law p_1 x p_2 on a 2-axis grid
  alt:  its sign perturbation p_1(i) p_2(j) (1 + 2 eps s_i t_j): signs with
        sum p_1 s = sum p_2 t = 0 keep both marginals, and the perturbation
        lies at tv eps from their product

with eps in {0.1, 0.3} and the tight norm bound
b = min(||p||_2^2, ||p_1 x p_2||_2^2). On each grid the laws are the flat
one (uniform on an even axis, (2, 1, ..., 1) on an odd one) and those with
b M in INDEPENDENCE_RATIOS that heavy pairs on the first axis reach (see
axis_law): the testers size closeness from measured norms, which put b M
near 2 on a uniform (100, 20) input and near 5 on the hidden-bit instances.

Each band of flattened domain sizes in EstimatorConfig.closeness_bands
(INDEPENDENCE_BANDS; they start at M = 9, 50 and 200) gets its own
(C, C_thr), calibrated on the laws of the band's smallest grids,
INDEPENDENCE_GRIDS (3 x 3 and 4 x 3 for the band from 9 cells, 10 x 5 from
50, 20 x 10 and 40 x 5 from 200; a flattened axis has at least 3 cells, so
3 x 3 is the smallest grid). That rests on the premise that a band's error
does not grow with M: Z's tails thin toward the Gaussian as M grows, so the
lowest M binds. The lowest band also serves M below its first, and the top
band every larger M. The premise is checked on the top band's laws on
PREMISE_GRIDS, 100 x 20 and 128 x 64: each draws one held-out set at the
band's chosen point, and that set's worst error, plus two binomial standard
errors and rounded up as below, must stay within the band's bound.

Per band, each C draws two sets of TRIALS statistics per cell on apart
streams. Its threshold is the C_thr with the smallest worst cell error on the
first set (the selection set); the same rule's worst cell error on the
second set (the check set) is held out from that choice. The point's bound
is the held-out worst error plus two binomial standard errors, rounded up to
a multiple of 1/2048. A point is left when its bound is at most
estimators.CLOSENESS_ERROR, the error closeness_test is sized for, and its
threshold sits at least NULL_SDS standard deviations of the null's Z out at
a tight b, measured: the threshold over the largest standard deviation of
the band's null statistics, since this Z's null variance has no closed form
here. The band's winner is the left point with the smallest C, which is the
call's cost in units of M sqrt(b) / eps^2 samples; so C runs up the grid
and stops at the band's first left point.

The null tail is a rule of its own because the error bound does not see it.
A benchmark run of the testers makes tens of thousands of closeness calls on
null laws, so a call may err far less often than CLOSENESS_ERROR allows: a
calibrated closeness point 3.5 standard deviations out rejected 1 in 80,000
trials of a uniform (100, 20) joint, while one 4.2 out never did;
NULL_SDS = 4 lies between.

The norm's batch and median are chosen per side. For each C_norm in
NORM_SAMPLE_MULTS and each law of calibration_laws() plus the uniform law on
8,192 cells (about the size of a flattened (100, 20) joint), NORM_TRIALS
collision statistics over batches of T = C_norm * ceil(sqrt(M)) are drawn,
and the shares below 1/2 and above 3/2 of ||p||_2^2 are counted apart. The
point's per-side bound is its worst side plus two binomial standard errors,
rounded up to a multiple of 1/64, and its repetition counts are
estimators._median_plan at that bound for the two- and three-axis norm
confidences. The winner has the smallest C_norm * r at the two-axis
confidence, then the smallest r at the three-axis one.

Every cell runs in a worker process, one per core the process may use; each
cell's streams are fixed, so the record is the same at any core count. A
block of a cell's statistics holds about BLOCK_COUNTS Poisson counts, so
the workers' memory does not grow with M.

Writes calibration.json next to pyproject.toml and prints the chosen points.
The chosen multipliers are frozen as EstimatorConfig defaults (the closeness
bands under "independence"), and estimators.CLOSENESS_ERROR and
estimators.NORM_SIDE_ERROR are the bounds the estimators are sized for; the
script exits 1 when a band has no left point, when a premise check fails,
or when the norm's chosen bound exceeds the committed one.
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
    _median_plan,
    _norm_batch,
    _norm_statistics,
    closeness_params,
)
from augtest.flattening import FlatView
from augtest.testers import TesterConfig, _plan

SEED = 20260814
TRIALS = 40000  # statistics per cell in each of the selection and check sets
# 0.8, 0.85, ..., 3.55
THRESHOLD_MULTS = [round(0.8 + 0.05 * i, 2) for i in range(56)]
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
EPSILONS = [0.1, 0.3]
# The norm's laws: uniform on SIZES cells, and two-level with b M in
# NORM_RATIOS on SHAPED_SIZES cells.
SIZES = [10, 50, 200]
NORM_RATIOS = [2, 5]
SHAPED_SIZES = [50, 200]
# The share of the cells that are heavy in a two-level law, and of the
# pairs of an axis law's first axis that are heavy.
HEAVY_SHARE = 0.02
NORM_TRIALS = 40000
NORM_SAMPLE_MULTS = [3.0, 3.5, 4.0, 5.0, 6.0]
NORM_LARGE_M = 8192  # a uniform law the norm is also calibrated on
# The confidences the two- and three-axis testers run each norm call at.
NORM_DELTAS = {
    f"delta=1/{round(1 / d)}": d for d in (_plan((2,) * k, TesterConfig(1.0, 1.0)).norm_delta for k in (2, 3))
}
TWO_AXIS, THREE_AXIS = NORM_DELTAS
# The norm grid draws from Rng(SEED).split(NORM_STREAM), apart from the
# closeness cells.
NORM_STREAM = 100
NORM_CHUNK = 5000  # statistics drawn per block, to bound the working arrays
# The closeness bands of EstimatorConfig, (first M, C, C_thr) by ascending
# first M; the script takes their edges and calibrates a point for each. Then
# the C grid, the grids of each band's smallest laws, keyed by the band's
# first M, and the grids of higher M that check the top band's premise.
INDEPENDENCE_BANDS = EstimatorConfig().closeness_bands
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


def premise_check(chosen: dict, rows: dict) -> dict:
    """The band's chosen point on the cells of higher M: their check-set
    errors at its threshold, the worst, and its bound, which must stay
    within the band's. rows maps each cell's label to its errors by C_thr."""
    i = THRESHOLD_MULTS.index(chosen["closeness_threshold_mult"])
    errors = {label: row[i] for label, row in rows.items()}
    check = max(errors.values())
    bound = bound_up(check, TRIALS, CLOSENESS_GRID)
    return {"check_error": check, "bound": bound, "holds": bound <= chosen["bound"], "check_errors": errors}


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
    lam, unit = closeness_params(law.size, b, eps, EstimatorConfig(closeness_bands=((1, c, 1.0),)))
    z = joint_z_samples(law, lam, trials, Rng(SEED, stream))
    return cell_errors(z, unit, case), float(z.std()) / unit


def independence_point(
    c: float, select_worst: list[float], select_errors: dict, check_errors: dict, null_sd: dict
) -> dict:
    """The row of a band at sample multiplier c: its threshold, held-out bound and standing.

    select_worst holds the selection set's worst cell error over the band's
    cells at each C_thr of THRESHOLD_MULTS; select_errors and check_errors
    are the per-cell errors at the threshold_index(select_worst) one on the
    selection and check sets; null_sd[label] is each null cell's standard
    deviation of Z in units of the threshold at C_thr = 1. null_sds is the
    threshold over the largest of them, and the point is left when its
    bound is at most CLOSENESS_ERROR and null_sds is at least NULL_SDS.
    """
    i = threshold_index(select_worst)
    check = max(check_errors.values())
    bound = bound_up(check, TRIALS, CLOSENESS_GRID)
    null_sds = THRESHOLD_MULTS[i] / max(null_sd.values())
    return {
        "closeness_sample_mult": c,
        "closeness_threshold_mult": THRESHOLD_MULTS[i],
        "select_error": select_worst[i],
        "check_error": check,
        "binding_cell": max(check_errors, key=check_errors.get),
        "bound": bound,
        "null_sds": null_sds,
        "left": bound <= CLOSENESS_ERROR and null_sds >= NULL_SDS,
        "select_worst": select_worst,
        "select_errors": select_errors,
        "check_errors": check_errors,
        "null_sd": null_sd,
    }


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
    laws = calibration_laws()
    large = np.full(NORM_LARGE_M, 1.0 / NORM_LARGE_M)
    workers = len(os.sched_getaffinity(0))  # the cores this process may run on
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        norm = calibrate_norm(laws + [(f"M={NORM_LARGE_M}", large, 1)], pool)
        independence = calibrate_independence(pool)

    out = {
        "seed": SEED,
        "trials_per_cell": TRIALS,
        "grid": {"closeness_threshold_mult": THRESHOLD_MULTS, "eps": EPSILONS},
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
    for band in independence:
        chosen, premise = band["chosen"], band["premise"]
        if chosen is None:
            print(f"closeness band M >= {band['first_M']}: no grid point is left", file=sys.stderr)
            status = 1
            continue
        print(
            f"closeness band M >= {band['first_M']}: sample_mult={chosen['closeness_sample_mult']}, "
            f"threshold_mult={chosen['closeness_threshold_mult']} (held-out worst cell error "
            f"{chosen['check_error']:.4f} at {chosen['binding_cell']}, bound {chosen['bound']}, "
            f"{chosen['null_sds']:.2f} null SDs out)"
        )
        if premise is not None and not premise["holds"]:
            print(
                f"closeness band M >= {band['first_M']}: its grids of higher M err up to "
                f"{premise['check_error']:.4f}, a bound of {premise['bound']} above the band's",
                file=sys.stderr,
            )
            status = 1
    chosen = norm["chosen"]
    print(
        f"chosen: norm_sample_mult={chosen['norm_sample_mult']} (max per-side error "
        f"{chosen['max_error']:.4f}, bound {chosen['bound']}, reps {chosen['reps']})"
    )
    if chosen["bound"] > NORM_SIDE_ERROR:
        print(
            f"the chosen bound {chosen['bound']} exceeds estimators.NORM_SIDE_ERROR = {NORM_SIDE_ERROR}, "
            "the error the committed estimators are sized for",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
