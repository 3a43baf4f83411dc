#!/usr/bin/env python3
"""Grid-search the closeness and norm multipliers and freeze the winners.

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
with M in {10, 50, 200}, and two-level laws with b M in {2, 5} with M in
{50, 200}: the testers size closeness from measured norms, which put b M near
2 on a uniform (100, 20) input and near 5 on the hidden-bit instances. Every
cell of a two-level law exceeds 2 eps / M, so q stays a law. The M = 10 laws
stand for the smallest flattened domain a tester builds, 9 cells: an axis of
size 2 flattens to at least 3 buckets.

Each C_close draws two sets of TRIALS statistics per cell on apart streams.
Its threshold is the C_thr with the smallest worst cell error on the first
set (the selection set); the same rule's worst cell error on the second set
(the check set) is held out from that choice. The point's bound is the
held-out worst error plus two binomial standard errors, rounded up to a
multiple of 1/2048. A point is left when its bound is at most the smallest
confidence the testers run closeness at (delta 1/120, three axes), and the
winner is the left point with the
smallest C_close, which is the call's cost in units of M sqrt(b) / eps^2
samples per stream, then the smallest bound.

The norm's batch and median are chosen per side. For each C_norm in
NORM_SAMPLE_MULTS and each law above plus the uniform law on 8,192 cells
(about the size of a flattened (100, 20) joint), NORM_TRIALS collision
statistics over batches of T = C_norm * ceil(sqrt(M)) are drawn, and the
shares below 1/2 and above 3/2 of ||p||_2^2 are counted apart. The point's
per-side bound is its worst side plus two binomial standard errors, rounded
up to a multiple of 1/64, and its repetition counts are
estimators._median_plan at that bound for the two- and three-axis norm
confidences. The winner has the smallest C_norm * r at the two-axis
confidence, then the smallest r at the three-axis one.

Writes calibration.json next to pyproject.toml and prints the chosen points.
The chosen multipliers are frozen as EstimatorConfig defaults, and
estimators.CLOSENESS_ERROR and estimators.NORM_SIDE_ERROR are the bounds the
estimators are sized for; the script exits 1 when no closeness point is left
or when a chosen bound exceeds the committed one.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

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
from augtest.testers import _CLOSENESS_DELTA, _NORM_DELTA

SEED = 20260814
TRIALS = 40000  # statistics per cell in each of the selection and check sets
SAMPLE_MULTS = [5.0, 6.0, 7.0, 8.0, 9.0]
# 0.8, 0.85, ..., 3.55
THRESHOLD_MULTS = [round(0.8 + 0.05 * i, 2) for i in range(56)]
# A left point's bound is at most the smallest confidence the testers run
# closeness at.
LEFT_BOUND = min(_CLOSENESS_DELTA.values())
SELECT, CHECK = 0, 1  # the two stream sets of a closeness cell
CHUNK = 5000  # statistics drawn per block, to bound the working arrays
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
    rng.split(0) and Y from rng.split(1), CHUNK rows at a time."""
    gx, gy = rng.split(0).gen, rng.split(1).gen
    z = []
    for start in range(0, trials, CHUNK):
        rows = min(CHUNK, trials - start)
        x = gx.poisson(lam * p, size=(rows, p.size))
        y = gy.poisson(lam * q, size=(rows, q.size))
        d = x - y
        z.append((d * d - x - y).sum(axis=1))
    return np.concatenate(z)


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
    """The C_close row's threshold, held-out bound and standing.

    select_worst holds the selection set's worst cell error at each C_thr of
    THRESHOLD_MULTS; select_errors and check_errors are the per-cell errors
    at the threshold_index(select_worst) one on the selection and check sets.
    """
    i = threshold_index(select_worst)
    check = max(check_errors.values())
    bound = bound_up(check, TRIALS, CLOSENESS_GRID)
    return {
        "closeness_sample_mult": c_close,
        "closeness_threshold_mult": THRESHOLD_MULTS[i],
        "select_error": select_worst[i],
        "check_error": check,
        "binding_cell": max(check_errors, key=check_errors.get),
        "bound": bound,
        "left": bound <= LEFT_BOUND,
        "select_worst": select_worst,
        "select_errors": select_errors,
        "check_errors": check_errors,
    }


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


def calibrate_norm(laws, rng: Rng) -> dict:
    """The norm grid's points and the chosen one, as calibration.json records them."""
    results = []
    for mi, c_norm in enumerate(NORM_SAMPLE_MULTS):
        errors = {}
        for li, (name, law, _) in enumerate(laws):
            ratio = norm_ratios(law, c_norm, NORM_TRIALS, rng.split(mi).split(li))
            errors[f"{name},low"] = float(np.mean(ratio < 0.5))
            errors[f"{name},high"] = float(np.mean(ratio > 1.5))
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
    """(label, law, b M) of the uniform laws, then of the two-level ones."""
    laws = [(f"M={M}", np.full(M, 1.0 / M), 1) for M in SIZES]
    return laws + [
        (f"M={M},bM={ratio}", two_level_law(M, ratio), ratio)
        for ratio in NORM_RATIOS
        for M in SHAPED_SIZES
    ]


def closeness_cells(laws) -> list[tuple[str, np.ndarray, float, float, str]]:
    """(label, law, b, eps, case) of every closeness cell, with b = b M / M = ||p||_2^2 of the law."""
    return [
        (f"{name},eps={eps},{case}", law, ratio / law.size, eps, case)
        for name, law, ratio in laws
        for eps in EPSILONS
        for case in ("null", "alt")
    ]


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    rng = Rng(SEED)
    laws = calibration_laws()
    cells = closeness_cells(laws)

    results = []
    # Z's law depends on C_close and the cell only; thresholds are linear in
    # C_thr, so one set of Z draws serves the whole threshold row.
    for ci, c_close in enumerate(SAMPLE_MULTS):
        cfg = EstimatorConfig(closeness_sample_mult=c_close, closeness_threshold_mult=1.0)
        errors = {SELECT: {}, CHECK: {}}  # per stream set: cell label -> errors by C_thr
        for ki, (label, law, b, eps, case) in enumerate(cells):
            lam, unit = closeness_params(law.size, b, eps, cfg)
            p, q = spread_pair(law, eps)
            if case == "null":
                q = p
            for s, by_label in errors.items():
                z = z_samples(p, q, lam, TRIALS, rng.split(ci).split(ki).split(s))
                by_label[label] = cell_errors(z, unit, case)
        select_worst = [max(e[i] for e in errors[SELECT].values()) for i in range(len(THRESHOLD_MULTS))]
        i = threshold_index(select_worst)
        at = {s: {label: e[i] for label, e in by_label.items()} for s, by_label in errors.items()}
        results.append(closeness_point(c_close, select_worst, at[SELECT], at[CHECK]))

    large = np.full(NORM_LARGE_M, 1.0 / NORM_LARGE_M)
    norm = calibrate_norm(laws + [(f"M={NORM_LARGE_M}", large, 1)], rng.split(NORM_STREAM))

    left = [r for r in results if r["left"]]
    if not left:
        print(f"no grid point's held-out bound is at most {LEFT_BOUND}", file=sys.stderr)
        return 1
    chosen = min(left, key=lambda r: (r["closeness_sample_mult"], r["bound"]))

    out = {
        "seed": SEED,
        "trials_per_cell": TRIALS,
        "streams": (
            "cell k of the C_close at grid index c draws its selection set from "
            "Rng(seed).split(c).split(k).split(0) and its check set from .split(1); "
            "X from the set's .split(0), Y from its .split(1)"
        ),
        "criterion": (
            "one X/Y batch per call; the threshold is the first C_thr with the smallest worst cell "
            "error on the selection set; bound = worst cell error on the check set + 2 binomial "
            f"standard errors, rounded up to k/{CLOSENESS_GRID}; a point is left when its bound is at most {LEFT_BOUND!r} (delta 1/120); "
            "the winner has the smallest C_close, then the smallest bound"
        ),
        "norm_bound": (
            "b = ||p||_2^2 (exactly min(||p||_2^2, ||q||_2^2)); bM = 1 on the uniform "
            "cells, bM = 2 and 5 on the two-level ones"
        ),
        "grid": {
            "closeness_sample_mult": SAMPLE_MULTS,
            "closeness_threshold_mult": THRESHOLD_MULTS,
            "M": SIZES,
            "two_level_bM": NORM_RATIOS,
            "two_level_M": SHAPED_SIZES,
            "eps": EPSILONS,
        },
        "chosen": chosen,
        "results": results,
        "norm": norm,
    }
    path = root / "calibration.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    print(
        "chosen: closeness_sample_mult="
        f"{chosen['closeness_sample_mult']}, closeness_threshold_mult="
        f"{chosen['closeness_threshold_mult']} (held-out worst cell error "
        f"{chosen['check_error']:.4f} at {chosen['binding_cell']}, bound {chosen['bound']})"
    )
    norm_chosen = norm["chosen"]
    print(
        f"chosen: norm_sample_mult={norm_chosen['norm_sample_mult']} (max per-side error "
        f"{norm_chosen['max_error']:.4f}, bound {norm_chosen['bound']}, reps {norm_chosen['reps']})"
    )
    # bound >= max_error by construction, so this also holds the premises
    status = 0
    for name, got, committed in (
        ("CLOSENESS_ERROR", chosen["bound"], CLOSENESS_ERROR),
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
