"""Contract fuzzer: the three-outcome contract of aug_independence_d on a fixed, seeded grid of small cells.

A cell is a law, a prediction, the claimed accuracy alpha and eps. Every
prediction is claimed at alpha equal to its true tv from the law, so the
claim holds and InaccurateInformation is never allowed: a product law must
be accepted and a far law rejected. Each cell runs RUNS times, and the
Wilson lower bound of its disallowed share must not exceed BASE_DELTA, the
failure probability the testers are built for.

Laws, on 2 to 4 axes of at most 64 cells:

- Products of Dirichlet marginals, at concentration 1 and at a skewed 0.3,
  at eps .25 and .5, with the exact and the uniform prediction (a
  product's own product is itself).
- Far laws at eps .25. The dependence is planted on one pair of axes, the
  other axes being independent Dirichlet marginals. The pair's law mixes
  the uniform law with a diagonal on random symbols, weighted so that its
  tv to its own product is at least (d + 1) eps on its d = 2 axes. Any
  product has a product marginal on the pair, and marginalizing never
  grows tv, so the law is eps-far from every product. A pair whose smaller
  axis has m symbols reaches at most 1 - 1/m, so only pairs of axes of 4
  or more symbols carry the dependence; on (4, 4, 4) each pair does in
  turn. Predictions: exact, uniform, and the law's own product.
"""

import time

import numpy as np

from augtest.bench import wilson_interval
from augtest.domain import (
    JointDistribution,
    JointSampler,
    Rng,
    product_of_marginals,
    tv_distance,
    tv_to_own_product,
)
from augtest.testers import BASE_DELTA, Outcome, TesterConfig, aug_independence_d

SEED = 2742
RUNS = 60
PRODUCT_DIMS = [
    (2, 2), (3, 2), (4, 4), (8, 8), (16, 4),
    (2, 2, 2), (3, 2, 2), (4, 4, 4), (5, 4, 3),
    (2, 2, 2, 2), (3, 3, 3, 2), (4, 4, 2, 2),
]  # fmt: skip
FAR_PAIRS = {
    (4, 4): [(0, 1)],
    (8, 8): [(0, 1)],
    (16, 4): [(0, 1)],
    (4, 4, 4): [(0, 1), (0, 2), (1, 2)],
    (5, 4, 3): [(0, 1)],
    (4, 4, 2, 2): [(0, 1)],
}
FAR_EPS = 0.25


def _on_axes(table: np.ndarray, axes, d: int) -> np.ndarray:
    """table, whose axes are the given axes of a d-axis grid, shaped to broadcast over that grid."""
    shape = [1] * d
    for a, n in zip(axes, table.shape):
        shape[a] = n
    return table.reshape(shape)


def _law(dims, factors) -> JointDistribution:
    """The law on dims that multiplies the given (axes, table) factors, normalized."""
    t = np.ones(dims)
    for axes, table in factors:
        t = t * _on_axes(table, axes, len(dims))
    return JointDistribution(dims, (t / t.sum()).reshape(-1))


def _marginals(dims, axes, concentration: float, gen):
    """A Dirichlet(concentration) marginal factor on each of the given axes."""
    return [((a,), gen.dirichlet(np.full(dims[a], concentration))) for a in axes]


def _pair_law(a: int, b: int, eps: float, gen) -> np.ndarray:
    """An (a, b) table whose tv to its own product is at least 3 eps: the
    uniform law mixed with a diagonal on random symbols, at the least weight
    a bisection finds."""
    m = min(a, b)
    diagonal = np.zeros((a, b))
    diagonal[gen.permutation(a)[:m], gen.permutation(b)[:m]] = 1.0 / m
    uniform = np.full((a, b), 1.0 / (a * b))

    def far_enough(w):
        law = JointDistribution((a, b), (w * diagonal + (1 - w) * uniform).reshape(-1))
        return tv_to_own_product(law) >= 3 * eps

    lo, hi = 0.0, 1.0
    assert far_enough(hi)
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if far_enough(mid) else (mid, hi)
    return hi * diagonal + (1 - hi) * uniform


def _cells() -> list[tuple[str, JointDistribution, JointDistribution, float, Outcome]]:
    """(label, law, prediction, eps, the one allowed outcome) of every cell, in a fixed order."""
    gen = Rng(SEED).gen
    cells = []
    for dims in PRODUCT_DIMS:
        for concentration in (1.0, 0.3):
            for eps in (0.25, 0.5):
                p = _law(dims, _marginals(dims, range(len(dims)), concentration, gen))
                for name, pred in (("exact", p), ("uniform", JointDistribution.uniform(dims))):
                    label = f"product {dims} dirichlet({concentration}) eps={eps} {name}"
                    cells.append((label, p, pred, eps, Outcome.ACCEPT))
    for dims, pairs in FAR_PAIRS.items():
        for i, j in pairs:
            pair = ((i, j), _pair_law(dims[i], dims[j], FAR_EPS, gen))
            p = _law(dims, [pair] + _marginals(dims, [a for a in range(len(dims)) if a not in (i, j)], 1.0, gen))
            assert tv_to_own_product(p) >= 3 * FAR_EPS
            uniform, own_product = JointDistribution.uniform(dims), product_of_marginals(p)
            for name, pred in (("exact", p), ("uniform", uniform), ("own product", own_product)):
                label = f"far {dims} on axes {(i, j)} eps={FAR_EPS} {name}"
                cells.append((label, p, pred, FAR_EPS, Outcome.REJECT))
    return cells


def test_no_cell_breaks_the_contract():
    start = time.perf_counter()
    scores = []
    for c, (label, p, pred, eps, allowed) in enumerate(_cells()):
        cfg = TesterConfig(eps, tv_distance(p, pred))
        outcomes = [aug_independence_d(JointSampler(p), pred, cfg, Rng(SEED, (c, i))).outcome for i in range(RUNS)]
        disallowed = sum(o is not allowed for o in outcomes)
        scores.append((wilson_interval(disallowed, RUNS)[0], disallowed, label))
    worst = max(scores)
    print(
        f"[contract] {len(scores)} cells x {RUNS} runs in {time.perf_counter() - start:.1f}s;"
        f" worst: {worst[2]}, {worst[1]}/{RUNS} disallowed, Wilson lower bound {worst[0]:.3f}"
    )
    broken = [f"{label}: {bad}/{RUNS}" for low, bad, label in scores if low > BASE_DELTA]
    assert broken == [], broken
