#!/usr/bin/env python3
"""Grid-search the closeness and norm multipliers and freeze the winners.

The closeness statistic draws Poissonized count vectors X, Y at per-stream
rate lambda = C_close * M * sqrt(b) / eps^2 and rejects a repetition when
Z = sum (X_i - Y_i)^2 - X_i - Y_i exceeds C_thr * lambda^2 eps^2 / M. This
script measures the per-repetition error of that rule over a grid of
(C_close, C_thr) on matched null/alternative instances:

  null: p = q = a law on [M]
  alt:  p = the law, q = p +- 2 eps / M alternating, so tv(p, q) = eps
        and ||p - q||_2^2 = 4 eps^2 / M (the extremal spread pair)

with eps in {0.1, 0.3} and the tight norm bound b = ||p||_2^2 (=
min(||p||_2^2, ||q||_2^2) exactly). The laws are the uniform one (b M = 1)
with M in {10, 50, 200}, and two-level laws with b M in {2, 5} with M in
{50, 200}: the testers size closeness from measured norms, which put b M near
2 on a uniform (100, 20) input and near 5 on the hidden-bit instances. Every
cell of a two-level law exceeds 2 eps / M, so q stays a law.

The batch and the vote race are chosen as one plan. Each grid point's
per-vote bound is its worst cell's error plus two binomial standard errors,
rounded up to a multiple of 1/64, and its plans are estimators._race_plan at
that bound for the two- and three-axis closeness confidences. A point is
excluded when either plan errs by more than delta / 8 at the point's worst
null-cell error, the error a product input's votes show: a race errs at a
small per-vote error p about as often as p^h, so a short lead bought by a
loose bound shows there. Among the points left, the winner has the smallest
clean cost C_close * h (a clean call runs h votes, each costing C_close
batch units), with h the larger of the two plans' leads, then the smallest
worst null-cell error.

The norm's batch and median are chosen the same way, per side. For each
C_norm in NORM_SAMPLE_MULTS and each law above plus the uniform law on
8,192 cells (about the size of a flattened (100, 20) joint), NORM_TRIALS
collision statistics over batches of T = C_norm * ceil(sqrt(M)) are drawn,
and the shares below 1/2 and above 3/2 of ||p||_2^2 are counted apart. The
point's per-side bound is its worst side plus two binomial standard errors,
rounded up to a multiple of 1/64 as above, and its repetition counts are
estimators._median_plan at that bound for the two- and three-axis norm
confidences. The winner has the smallest C_norm * r at the two-axis
confidence, then the smallest r at the three-axis one.

Writes calibration.json next to pyproject.toml and prints the chosen points.
The chosen multipliers are frozen as EstimatorConfig defaults and the bounds
as estimators.VOTE_ERROR and estimators.NORM_SIDE_ERROR; the script exits 1
when no closeness point is left or when a chosen bound exceeds the one the
committed estimators are sized for.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from augtest.domain import Rng
from augtest.estimators import (
    NORM_SIDE_ERROR,
    VOTE_ERROR,
    EstimatorConfig,
    _median_plan,
    _norm_batch,
    _norm_statistics,
    _race_errors,
    _race_plan,
    closeness_params,
)
from augtest.flattening import FlatView
from augtest.testers import _CLOSENESS_DELTA, _NORM_DELTA

SEED = 20260814
TRIALS = 16000
SAMPLE_MULTS = [1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0]
THRESHOLD_MULTS = [0.5, 0.75, 1.0, 1.25, 1.5, 1.6, 1.65, 1.7, 1.75, 2.0]
BOUND_GRID = 64  # per-vote bounds are multiples of 1 / BOUND_GRID
# The confidences the two- and three-axis testers run closeness at.
DELTAS = {f"delta=1/{round(1 / d)}": d for d in _CLOSENESS_DELTA.values()}
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
    """`trials` independent draws of the per-repetition statistic Z."""
    x = rng.split(0).gen.poisson(lam * p, size=(trials, p.size)).astype(np.float64)
    y = rng.split(1).gen.poisson(lam * q, size=(trials, q.size)).astype(np.float64)
    d = x - y
    return (d * d - x - y).sum(axis=1)


def vote_bound(error: float, trials: int) -> float:
    """error plus two binomial standard errors, rounded up to a multiple of 1/64."""
    upper = error + 2.0 * math.sqrt(error * (1.0 - error) / trials)
    return math.ceil(upper * BOUND_GRID) / BOUND_GRID


def plan_point(c_close: float, c_thr: float, errors: dict[str, float]) -> dict:
    """The grid point's per-vote bound, race plans, clean cost and exclusion."""
    max_err = max(errors.values())
    null_err = max(e for label, e in errors.items() if label.endswith("null"))
    point = {
        "closeness_sample_mult": c_close,
        "closeness_threshold_mult": c_thr,
        "max_error": max_err,
        "null_error": null_err,
        "bound": vote_bound(max_err, TRIALS),
    }
    if point["bound"] >= 0.5:
        # no race converges on votes that err half the time
        return dict(point, plans=None, clean_cost=None, excluded=True, errors=errors)
    plans = {label: _race_plan(delta, point["bound"]) for label, delta in DELTAS.items()}
    # the wrong-rejection rate of each race on a null input
    null_race = {
        label: float(next(itertools.islice(_race_errors(h, null_err), r - 1, None)))
        for label, (h, r) in plans.items()
    }
    excluded = any(null_race[label] > delta / 8 for label, delta in DELTAS.items())
    return dict(
        point,
        plans=plans,
        clean_cost=c_close * max(h for h, _ in plans.values()),
        null_race_error=null_race,
        excluded=excluded,
        errors=errors,
    )


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
    bound = vote_bound(max_err, NORM_TRIALS)
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


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    rng = Rng(SEED)
    # Cells are (label, law, b, eps, case) with b = ratio / M = ||p||_2^2 of
    # the law. The uniform cells come first, so they keep the labels and
    # streams of the uniform-only grid.
    laws = [(f"M={M}", np.full(M, 1.0 / M), 1) for M in SIZES]
    laws += [
        (f"M={M},bM={ratio}", two_level_law(M, ratio), ratio)
        for ratio in NORM_RATIOS
        for M in SHAPED_SIZES
    ]
    cells = [
        (f"{name},eps={eps},{case}", law, ratio / law.size, eps, case)
        for name, law, ratio in laws
        for eps in EPSILONS
        for case in ("null", "alt")
    ]

    results = []
    # Z's law depends on C_close and the cell only; thresholds are linear in
    # C_thr, so one batch of Z draws serves the whole threshold row.
    for ci, c_close in enumerate(SAMPLE_MULTS):
        cell_z = {}
        thr_unit = {}
        for ki, (label, law, b, eps, case) in enumerate(cells):
            cfg = EstimatorConfig(closeness_sample_mult=c_close, closeness_threshold_mult=1.0)
            lam, thr_unit[label] = closeness_params(law.size, b, eps, cfg)
            p, q = spread_pair(law, eps)
            if case == "null":
                q = p
            cell_z[label] = z_samples(p, q, lam, TRIALS, rng.split(ci).split(ki))
        for c_thr in THRESHOLD_MULTS:
            errors = {}
            for label, z in cell_z.items():
                rej = float(np.mean(z > c_thr * thr_unit[label]))
                errors[label] = rej if label.endswith("null") else 1.0 - rej
            results.append(plan_point(c_close, c_thr, errors))

    large = np.full(NORM_LARGE_M, 1.0 / NORM_LARGE_M)
    norm = calibrate_norm(laws + [(f"M={NORM_LARGE_M}", large, 1)], rng.split(NORM_STREAM))

    left = [r for r in results if not r["excluded"]]
    if not left:
        print("no grid point's race plan stays within delta / 8 at its null error", file=sys.stderr)
        return 1
    chosen = min(left, key=lambda r: (r["clean_cost"], r["null_error"]))

    out = {
        "seed": SEED,
        "trials_per_cell": TRIALS,
        "criterion": (
            "bound = worst cell error + 2 binomial standard errors, rounded up to k/64; "
            "plans = _race_plan(delta, bound) at the two- and three-axis deltas; a point is "
            "excluded when a plan errs by more than delta/8 at its worst null-cell error; "
            "the winner has the smallest C_close * max h, then the smallest null error"
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
        f"{chosen['closeness_threshold_mult']} (max per-vote error "
        f"{chosen['max_error']:.4f}, bound {chosen['bound']}, plans {chosen['plans']})"
    )
    norm_chosen = norm["chosen"]
    print(
        f"chosen: norm_sample_mult={norm_chosen['norm_sample_mult']} (max per-side error "
        f"{norm_chosen['max_error']:.4f}, bound {norm_chosen['bound']}, reps {norm_chosen['reps']})"
    )
    # bound >= max_error by construction, so this also holds the premises
    status = 0
    for name, got, committed in (
        ("VOTE_ERROR", chosen["bound"], VOTE_ERROR),
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
