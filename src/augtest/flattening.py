"""Prediction-assisted flattening of discrete distributions.

A flattening splits base symbol i into b_i sub-buckets of equal conditional
mass p(i)/b_i. Splitting never changes l1 distances between distributions
that share the same buckets, while it shrinks l2 norms; bucket counts built
from an accurate prediction plus a small Poissonized sample make the expected
flattened l2 norm small enough for collision-based testing.

Bucket rule per axis: b_i = floor(pred(i)/nu) + N_i + 1, where N_i is the
observed count of symbol i in the flattening sample and the granularity nu is
fixed at 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DomainError,
    JointDistribution,
    Rng,
    _check_blocks,
    _wants_guide,
    inverse_cdf,
    marginal,
    outer_product,
)

# Tolerance added before floor() so that masses intended to be exact
# multiples of nu are not knocked down a bucket by float representation.
_FLOOR_FUZZ = 1e-9


class AxisFlattening:
    """Bucket layout for one axis: symbol i owns buckets offsets[i] .. offsets[i]+b_i-1."""

    def __init__(self, buckets):
        b = np.asarray(buckets)
        if b.ndim != 1 or b.size == 0:
            raise DomainError("bucket vector must be 1-D and nonempty")
        if b.dtype.kind not in "iu":
            raise DomainError(f"bucket counts must be integers, got {buckets!r}")
        if (b < 1).any():
            raise DomainError("every symbol needs at least one bucket")
        b = self.buckets = b.astype(np.int64)
        self.buckets.flags.writeable = False
        self.offsets = np.concatenate(([0], b.cumsum()[:-1]))
        self.offsets.flags.writeable = False
        self.base_size = int(b.size)
        self.flat_size = int(b.sum())

    def __repr__(self):
        return f"AxisFlattening(base={self.base_size}, flat={self.flat_size})"


def build_axis_flattening(pred_marginal, counts) -> AxisFlattening:
    """Builds the bucket layout for one axis from a predicted marginal and counts.

    Args:
        pred_marginal: Predicted marginal mass vector over [n], array-like.
        counts: Observed sample counts N_i over [n], nonnegative ints.

    Returns:
        AxisFlattening with b_i = floor(n*pred(i)) + N_i + 1, so flat_size
        <= 2n + sum(counts).
    """
    q = np.asarray(pred_marginal, dtype=np.float64).reshape(-1)
    c = np.asarray(counts).reshape(-1)
    if c.size and c.dtype.kind not in "iu":
        raise DomainError(f"counts must be integers, got {counts!r}")
    c = c.astype(np.int64, copy=False)
    if q.size != c.size:
        raise DomainError(f"marginal length {q.size} != counts length {c.size}")
    if q.size == 0:
        raise DomainError(f"an axis needs at least one cell, got marginal {pred_marginal!r}")
    if not np.isfinite(q).all():
        raise DomainError("predicted marginal has non-finite entries")
    if (q < 0).any():
        raise DomainError("predicted marginal has negative entries")
    if (c < 0).any():
        raise DomainError("counts must be nonnegative")
    nu = 1.0 / q.size
    b = np.floor(q / nu + _FLOOR_FUZZ).astype(np.int64) + c + 1
    return AxisFlattening(b)


class ProductFlattening:
    """Per-axis flattenings applied jointly; flat domain is the product of flat sizes."""

    def __init__(self, axes: Sequence[AxisFlattening]):
        if len(axes) == 0:
            raise DomainError("need at least one axis flattening")
        self.axes = list(axes)
        self.base_dims = tuple(f.base_size for f in self.axes)
        self.flat_dims = tuple(f.flat_size for f in self.axes)
        self.flat_size = math.prod(self.flat_dims)

    @property
    def arity(self) -> int:
        return len(self.axes)


def _flattened_law(p: JointDistribution, pf: ProductFlattening) -> np.ndarray:
    """The flat row-major mass vector of p flattened by pf (see flatten_distribution_explicit)."""
    if p.dims != pf.base_dims:
        raise DomainError(f"distribution dims {p.dims} != flattening base {pf.base_dims}")
    t = p.table().astype(np.float64)
    for ax, f in enumerate(pf.axes):
        t = t.repeat(f.buckets, axis=ax)
        w = f.buckets.astype(np.float64).repeat(f.buckets)
        shape = [1] * t.ndim
        shape[ax] = w.size
        t = t / w.reshape(shape)
    return t.reshape(-1)


def flatten_distribution_explicit(
    p: JointDistribution, pf: ProductFlattening
) -> JointDistribution:
    """The exact flattened distribution: cell mass p(x) split evenly over its buckets."""
    return JointDistribution(pf.flat_dims, _flattened_law(p, pf))


# ---------------------------------------------------------------------------
# Flattened sample views over a joint sampler.
#
# A "flat view" is 1-D sample access over [size] with an optional explicit
# law, normalized to sum 1 by FlatView itself. Estimators only need
# draw/size/probs/cost, inverse_cdf when probs is set, and dims to test the
# last axis of a grid against the others; cost is the number of base joint
# draws consumed per emitted sample, used for the sample account. The
# builders differ only in their law and in how they group the axes for
# _flat_view, which does every draw; the pipeline's later closeness links
# build the views of their leading coordinates through _flat_view itself.


@dataclass
class FlatView:
    """1-D sample access over [size], with its law in probs when known.

    A law must have size entries and a finite positive sum. It is divided
    by that sum once, when the view is built, and its one inverse-CDF map
    is kept for the view's lifetime (see inverse_cdf), so every estimator
    call on the view, and every count-level draw, looks symbols up through
    the same cumulative table. dims, when set, is the grid the cells
    linearize row-major (its product is size); the flattened views set it
    to their flat dims. A parent's grid begins with dims, and the view's law
    is its marginal; last is (lam, counts, fresh samples) of the view's last
    Poissonized batch, which a child thins (estimators._poissonized_counts).
    """

    size: int
    probs: np.ndarray | None
    cost: int
    draw: Callable[[int, Rng], np.ndarray]
    dims: tuple[int, ...] | None = None
    parent: FlatView | None = field(default=None, repr=False, compare=False)
    last: tuple[float, np.ndarray, int] | None = field(default=None, init=False, repr=False, compare=False)
    _cum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _map: Callable[[np.ndarray], np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)
    _refused_sorted: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dims is not None and math.prod(self.dims) != self.size:
            raise DomainError(f"a view over {self.size} cells cannot linearize the grid {self.dims}")
        if self.parent is not None and (self.dims is None or (self.parent.dims or ())[: len(self.dims)] != self.dims):
            raise DomainError(f"the grid {self.dims} does not lead its parent's grid {self.parent.dims}")
        if self.probs is not None:
            probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
            total = probs.sum()
            if probs.size != self.size or not 0 < total < math.inf:
                raise DomainError(
                    f"a view over {self.size} cells needs a law of as many entries with a finite"
                    f" positive sum, got {probs.size} entries summing to {total}"
                )
            self.probs = probs / total

    def inverse_cdf(self, lookups: float, sorted_rows: bool = False) -> Callable[[np.ndarray], np.ndarray]:
        """domain.inverse_cdf over the view's law, for about `lookups` uniforms in the given order.

        The cumulative table and the map are built on the first call, for
        that call's keys, and kept. A later call whose keys want a guide
        table (domain._wants_guide) that the kept map lacks rebuilds it,
        unless the keys are sorted rows and a build for sorted rows already
        found the table too crowded for them; unsorted keys, for which the
        guide wins on crowded tables too, still rebuild once. A kept guide
        serves every later call. Every map returns the same index for a u,
        so which one serves a call changes no draw.
        """
        wants = _wants_guide(lookups, self.size, sorted_rows)
        if self._map is None or (wants and not self._map.guided and not (sorted_rows and self._refused_sorted)):
            if self._cum is None:
                self._cum = self.probs.cumsum()
            self._map = inverse_cdf(self._cum, lookups, sorted_rows)
            self._refused_sorted |= sorted_rows and wants and not self._map.guided
        return self._map

    @staticmethod
    def from_law(probs) -> "FlatView":
        """View over [len(probs)] drawing by inverse CDF from a nonnegative mass vector, normalized to sum 1."""
        probs = np.asarray(probs, dtype=np.float64).reshape(-1)
        if (probs < 0).any():
            raise DomainError("a view's law has negative entries")

        def draw(count: int, rng: Rng) -> np.ndarray:
            return view.inverse_cdf(count)(rng.gen.random(count))

        view = FlatView(probs.size, probs, 1, draw)
        return view


def _flat_view(sampler, pf: ProductFlattening, groups: Sequence[Sequence[int]], probs, parent=None) -> FlatView:
    """View over the flat cells of the axes in groups, linearized row-major in that order.

    Group i takes its axes from its own joint draws, on rng.split(2i), so one
    emitted sample costs len(groups) joint draws. Each row's sub-bucket is
    drawn uniformly and fresh, from rng.split(2i + 1), matching the i.i.d.
    flattened sample model; nothing is memoized per base symbol.
    """
    flat_dims = tuple(pf.flat_dims[a] for g in groups for a in g)

    def draw(count: int, rng: Rng) -> np.ndarray:
        cols = []
        for i, group in enumerate(groups):
            rows = sampler.draw(count, rng.split(2 * i))
            sub = rng.split(2 * i + 1)
            for a in group:
                f, ids = pf.axes[a], rows[:, a]
                cols.append(f.offsets[ids] + sub.gen.integers(0, f.buckets[ids]))
        return np.ravel_multi_index(tuple(cols), flat_dims)

    return FlatView(math.prod(flat_dims), probs, len(groups), draw, flat_dims, parent)


def flattened_axis_view(sampler, axis: int, pf: ProductFlattening) -> FlatView:
    """View of the flattened marginal on one axis; one joint draw per sample."""
    ((axis,),) = _check_blocks(pf.arity, [[axis]])
    probs = None
    if getattr(sampler, "dist", None) is not None:
        f = pf.axes[axis]
        probs = (marginal(sampler.dist, [axis]).probs / f.buckets).repeat(f.buckets)
    return _flat_view(sampler, pf, [[axis]], probs)


def flattened_joint_view(sampler, pf: ProductFlattening) -> FlatView:
    """View of the flattened joint, linearized row-major over the flat dims."""
    probs = None
    if getattr(sampler, "dist", None) is not None:
        probs = _flattened_law(sampler.dist, pf)
    return _flat_view(sampler, pf, [list(range(pf.arity))], probs)


def flattened_product_view(
    sampler, pf: ProductFlattening, axis_laws: Sequence[np.ndarray | None]
) -> FlatView:
    """View of the product of flattened marginals.

    One emitted sample mixes coordinate l from its own independent joint draw,
    so it costs arity joint draws; the law is exactly the product of the
    per-axis flattened marginals, axis_laws (the probs of each
    flattened_axis_view), or None when any of them is None.
    """
    if len(axis_laws) != pf.arity:
        raise DomainError(f"a product view of {pf.arity} axes needs as many axis laws, got {len(axis_laws)}")
    probs = None
    if all(law is not None for law in axis_laws):
        probs = outer_product(axis_laws)
    return _flat_view(sampler, pf, [[ax] for ax in range(pf.arity)], probs)
