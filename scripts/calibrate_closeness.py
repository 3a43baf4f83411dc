#!/usr/bin/env python3
"""Grid-search the closeness tester multipliers and freeze the winners.

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
cell of a two-level law exceeds 2 eps / M, so q stays a law. A combination
passes when every cell's per-repetition error is below 1/3. Among passers,
the winner is the smallest C_close whose worst error is also <= 0.25, then
the C_thr with the widest margin; closeness sample cost is linear in C_close.
The 0.25 is not optional: estimators._race_plan sizes every closeness vote
for a per-repetition error of 1/4, so the script exits 1 when no grid point
meets it.

Writes calibration.json next to pyproject.toml and prints the chosen pair.
The chosen values are frozen as EstimatorConfig defaults.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from augtest.domain import Rng
from augtest.estimators import EstimatorConfig, closeness_params

SEED = 20260814
TRIALS = 4000
ERROR_BAR = 1.0 / 3.0
ROBUST_BAR = 0.25
SAMPLE_MULTS = [1.0, 2.0, 3.0, 4.0, 6.0]
THRESHOLD_MULTS = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
SIZES = [10, 50, 200]
EPSILONS = [0.1, 0.3]
# b M of the two-level laws, and their sizes; b M = 1 is the uniform law.
NORM_RATIOS = [2, 5]
SHAPED_SIZES = [50, 200]
HEAVY_SHARE = 0.02  # share of the cells that are heavy in a two-level law


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
            max_err = max(errors.values())
            results.append(
                {
                    "closeness_sample_mult": c_close,
                    "closeness_threshold_mult": c_thr,
                    "max_error": max_err,
                    "pass": bool(max_err < ERROR_BAR),
                    "errors": errors,
                }
            )

    robust = [r for r in results if r["max_error"] <= ROBUST_BAR]
    if not robust:
        # _race_plan() sizes every closeness vote for a per-repetition error of 1/4
        print(f"no grid point kept its per-repetition error <= {ROBUST_BAR}", file=sys.stderr)
        return 1
    best_close = min(r["closeness_sample_mult"] for r in robust)
    shortlist = [r for r in robust if r["closeness_sample_mult"] == best_close]
    chosen = max(
        shortlist,
        key=lambda r: (ERROR_BAR - r["max_error"], -r["closeness_threshold_mult"]),
    )

    out = {
        "seed": SEED,
        "trials_per_cell": TRIALS,
        "criterion": "per-repetition error < 1/3 on every null/alternative cell",
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
        "chosen": {
            "closeness_sample_mult": chosen["closeness_sample_mult"],
            "closeness_threshold_mult": chosen["closeness_threshold_mult"],
            "max_error": chosen["max_error"],
            "margin": ERROR_BAR - chosen["max_error"],
            "errors": chosen["errors"],
        },
        "results": results,
    }
    path = root / "calibration.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    print(
        "chosen: closeness_sample_mult="
        f"{chosen['closeness_sample_mult']}, closeness_threshold_mult="
        f"{chosen['closeness_threshold_mult']} (max per-rep error "
        f"{chosen['max_error']:.4f})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
