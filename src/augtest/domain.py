"""Discrete product domains, joint distributions, and the shared runtime plumbing.

Everything downstream (flattening, estimators, testers, instance generators)
works with dense distributions over a product domain [n_1] x ... x [n_d],
stored row-major so the last axis varies fastest. Indices are 0-based.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

# Mass-sum tolerance for accepting a vector as a distribution. Inputs outside
# this band are rejected, never renormalized.
MASS_TOL = 1e-9


class DomainError(ValueError):
    """Raised for malformed domains, non-distributions, or axis misuse."""


def _checked_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """dims as a tuple of ints, checked as JointDistribution requires."""
    try:
        out = tuple(operator.index(n) for n in dims)
    except TypeError:
        raise DomainError(f"dims must be a sequence of integers, got {dims!r}") from None
    if len(out) < 1:
        raise DomainError("domain needs at least one axis")
    if any(n < 2 for n in out):
        raise DomainError(f"every axis size must be >= 2, got {out}")
    return out


@cache
def _interval_ends(interval: str) -> tuple[float, float, bool, bool]:
    """(low, high, low closed, high closed) of an interval written "(0, 1]"; an end may be a ratio "1/2"."""
    low, high = (float(Fraction(end)) for end in interval[1:-1].split(", "))
    return low, high, interval[0] == "[", interval[-1] == "]"


def _check_finite(name: str, value, interval: str | None = None) -> None:
    """Raises DomainError naming the field unless value is a finite real number; bool is not one.

    interval, written as the message shows it ("(0, 1]", "[0, 1/2)"), also
    bounds the value; its ends are parsed on the first check that uses it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    if interval is not None:
        low, high, low_closed, high_closed = _interval_ends(interval)
        if not ((low <= value if low_closed else low < value) and (value <= high if high_closed else value < high)):
            raise DomainError(f"{name} must be in {interval}, got {value}")


class JointDistribution:
    """A probability distribution over [n_1] x ... x [n_d], stored dense row-major.

    dims are the per-axis sizes: at least one axis, each of size >= 2. probs
    is a flat row-major vector of length prod(dims) or a table of shape dims.
    The mass vector is validated on construction: entries must be nonnegative
    and sum to 1 within MASS_TOL. The stored array is read-only.
    """

    def __init__(self, dims: Sequence[int], probs):
        self.dims = _checked_dims(dims)
        size = math.prod(self.dims)
        try:
            p = np.asarray(probs, dtype=np.float64)
        except (TypeError, ValueError):
            raise DomainError("prob vector must hold numbers only") from None
        # A flat vector, or a table laid out as the dims; any other shape
        # (a transposed table, say) would be reread in the wrong order.
        if p.shape not in ((size,), self.dims):
            raise DomainError(
                f"probs of shape {p.shape} fit neither domain size {size} nor dims {self.dims}"
            )
        p = p.reshape(-1)
        if not np.all(np.isfinite(p)):
            raise DomainError("prob vector has non-finite entries")
        if np.any(p < 0):
            raise DomainError("prob vector has negative entries")
        total = float(p.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise DomainError(f"prob mass {total} outside 1 +/- {MASS_TOL}")
        p = p.copy()
        p.flags.writeable = False
        self.probs = p

    @classmethod
    def _derived(cls, dims: tuple[int, ...], probs: np.ndarray) -> "JointDistribution":
        """A law computed from a checked one, built without re-checking it.

        For callers whose dims are products of checked axis sizes and whose
        flat float64 probs are sums of a checked law's non-negative finite
        entries, with its total: every check of __init__ holds already. The
        result equals JointDistribution(dims, probs) bit for bit. probs is
        made read-only in place, not copied, so the caller must hold no
        writable alias of it.
        """
        out = cls.__new__(cls)
        out.dims = dims
        probs.flags.writeable = False
        out.probs = probs
        return out

    def table(self) -> np.ndarray:
        """The mass vector reshaped to the domain dims (read-only view)."""
        return self.probs.reshape(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, JointDistribution)
            and self.dims == other.dims
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):
        return f"JointDistribution(dims={self.dims})"

    @staticmethod
    def uniform(dims: Sequence[int]) -> "JointDistribution":
        size = math.prod(_checked_dims(dims))
        return JointDistribution(dims, np.full(size, 1.0 / size))

    @staticmethod
    def from_table(table) -> "JointDistribution":
        arr = np.asarray(table, dtype=np.float64)
        return JointDistribution(arr.shape, arr.reshape(-1))


# ---------------------------------------------------------------------------
# Randomness


def _stream_key(name: str, value) -> int:
    """value as an int, or DomainError naming it unless it is a non-negative integer.

    bool is not one, and neither is a 0-d integer array, which operator.index reads.
    """
    if type(value) is int and value >= 0:  # the common case, without the checks below
        return value
    try:
        out = None if isinstance(value, (bool, np.ndarray)) else operator.index(value)
    except TypeError:
        out = None
    if out is None or out < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return out


class Rng:
    """Deterministic random stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences.
    `split(i)` derives an independent child stream; children with distinct
    indices never collide, which keeps concurrent trials reproducible.
    The generator is seeded on first use of `gen`, so a stream that is only
    split never pays for seeding one. The seed, each stream entry and each
    split index must be a non-negative integer (numpy integers included, bool
    not): a float or a string is rejected, never truncated onto another stream.
    """

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()):
        self.seed = _stream_key("seed", seed)
        if isinstance(stream, tuple):
            self.stream = tuple(_stream_key("stream entry", s) for s in stream)
        else:
            self.stream = (_stream_key("stream entry", stream),)

    @cached_property
    def gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, index: int) -> "Rng":
        return Rng(self.seed, self.stream + (_stream_key("split index", index),))

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


# The largest mean numpy's Generator.poisson draws at (its POISSON_LAM_MAX):
# the int64 maximum less ten times its square root.
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - math.sqrt(np.iinfo(np.int64).max) * 10


def poisson(mean: float, rng: Rng) -> int:
    """One Poisson draw with the given mean. mean 0 gives 0 with no randomness."""
    _check_finite("Poisson mean", mean)
    if mean < 0:
        raise DomainError(f"Poisson mean must be >= 0, got {mean!r}")
    if mean > _POISSON_MEAN_MAX:
        raise DomainError(f"Poisson mean must be at most {_POISSON_MEAN_MAX:.6g}, got {mean!r}")
    if mean == 0:
        return 0
    return int(rng.gen.poisson(mean))


# ---------------------------------------------------------------------------
# Sample accounting


@dataclass
class SampleAccount:
    """Per-stage ledger of how many base-distribution samples a run consumed.

    Counts are in units of draws from the joint input distribution. Stages:
    flattening (bucket construction), norm (l2 estimation), closeness
    (two-stream comparison), learning (empirical-histogram tester).
    """

    flattening: int = 0
    norm: int = 0
    closeness: int = 0
    learning: int = 0

    def add(self, stage: str, count: int) -> None:
        count = _stream_key(f"{stage} sample count", count)
        setattr(self, stage, getattr(self, stage) + count)

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def merge(self, other: "SampleAccount") -> None:
        for f in fields(self):
            self.add(f.name, getattr(other, f.name))

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


# ---------------------------------------------------------------------------
# Distances and marginals


def tv_distance(p: JointDistribution, q: JointDistribution) -> float:
    """Total variation distance, half the l1 distance of the mass vectors."""
    if p.dims != q.dims:
        raise DomainError(f"domain mismatch: {p.dims} vs {q.dims}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def l2_norm_sq(p: JointDistribution) -> float:
    """Exact squared l2 norm of the mass vector."""
    return float(np.dot(p.probs, p.probs))


def marginal(p: JointDistribution, axes: Sequence[int]) -> JointDistribution:
    """Marginal of p on the given axis subset, in the order given."""
    return merge_axes(p, [[a] for a in axes])


def _check_blocks(arity: int, blocks: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Checks a nonempty list of nonempty blocks of distinct axes in range(arity)."""
    blocks = [tuple(_stream_key("axis", a) for a in b) for b in blocks]
    axes = [a for b in blocks for a in b]
    if not blocks or not all(blocks):
        raise DomainError(f"axis blocks {blocks} must be a nonempty list of nonempty blocks")
    if len(set(axes)) != len(axes):
        raise DomainError(f"duplicate axes in {blocks}")
    for a in axes:
        if not 0 <= a < arity:
            raise DomainError(f"axis {a} out of range for arity {arity}")
    return blocks


def outer_product(vectors) -> np.ndarray:
    """The outer product of 1-D mass vectors, flattened row-major (the last varies fastest)."""
    out = np.ones(1)
    for v in vectors:
        out = np.multiply.outer(out, v)
    return out.reshape(-1)


def _own_product(p: JointDistribution) -> np.ndarray:
    """The flat outer product of p's axis sums, the laws marginal(p, [a]) holds."""
    t, d = p.table(), len(p.dims)
    return outer_product(t.sum(axis=tuple(b for b in range(d) if b != a)) for a in range(d))


def product_of_marginals(p: JointDistribution) -> JointDistribution:
    """The product of p's single-axis marginals, on p's own domain."""
    return JointDistribution(p.dims, _own_product(p))


def tv_to_own_product(p: JointDistribution) -> float:
    """tv distance from p to the product of its own marginals.

    The value is tv_distance(p, product_of_marginals(p)), bit for bit, taken
    with no JointDistribution built for the product.
    """
    return 0.5 * float(np.abs(p.probs - _own_product(p)).sum())


# ---------------------------------------------------------------------------
# Sampling


# Below this many lookups in all, a guide table saves too little to pay for
# itself: building one runs about a dozen O(M) numpy passes that a binary
# search does not. Timed as one map build plus one call on sorted uniforms
# (2-core Xeon, numpy 2.4, glibc keeping freed heap pages as the bench
# harness has it, medians of 300 interleaved calls) with M from 128 to
# 9,202, the guide breaks even at 1,500 to 3,000 lookups on flat laws and
# at 3,000 to 12,000 on Dirichlet(5) ones (8,000 to 12,000 at M 4,096
# and 9,202).
_GUIDE_MIN_LOOKUPS = 4096


def _guide_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A guide table over cum (Chen and Asau, 1974) and its crowded buckets.

    G is the least power of two >= M, so u * G and j / G are exact. guide[j]
    counts the cells with cum[i] <= j / G, capped at M - 1; crowded[j] marks
    a bucket [j / G, (j + 1) / G) that may hold two or more boundaries cum[i],
    and is None when no bucket does. Built in O(M + G).
    """
    M = cum.size
    G = 1 << (M - 1).bit_length()
    # edges[i + 1] = ceil(cum[i] * G) is one past the bucket holding cell
    # i's boundary; past 1 it is clipped to G, which no u reaches.
    edges = np.zeros(M + 1, dtype=np.intp)
    edges[1:] = np.ceil(np.minimum(cum * G, G))
    # Two equal nonzero edges put two boundaries in one bucket.
    repeated = edges[2:] == edges[1:-1]
    crowded = None
    if repeated.any():
        crowded = np.zeros(G + 1, dtype=bool)
        crowded[edges[2:][repeated]] = True
        crowded = crowded[1:]
    # guide[j] counts the edges <= j, capped at M - 1: the last cell's own
    # boundary is left to the lookup's comparison.
    edges[M] = G
    runs = np.diff(edges)
    del edges, repeated  # so that fewer arrays are alive beside the guide
    return np.repeat(np.arange(M), runs), crowded


def inverse_cdf(cum: np.ndarray, lookups: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map from uniforms u in [0, 1) to flat indices through a cumulative mass table.

    Index i is returned when cum[i-1] <= u < cum[i], so a zero-mass cell is
    never hit. A table sums to 1 only up to rounding; a u at or past cum[-1]
    goes to the last cell with positive mass, never to trailing zero-mass cells.

    lookups is about how many uniforms the map will take in all. From
    _GUIDE_MIN_LOOKUPS on, it builds a guide table once: a u in a bucket that
    holds at most one boundary is answered by guide[floor(u * G)] and one
    comparison, and only a u in a crowded bucket is binary-searched. Fewer
    lookups binary-search every u. Either way each index is the one
    searchsorted(cum, u, "right") gives, clipped as above.
    """
    last = np.searchsorted(cum, cum[-1], side="left")
    guide, crowded = _guide_table(cum) if lookups >= _GUIDE_MIN_LOOKUPS else (None, None)

    def lookup(u: np.ndarray) -> np.ndarray:
        if guide is None:
            idx = np.searchsorted(cum, u, side="right")
        else:
            j = (u * guide.size).astype(np.intp)
            idx = guide[j]
            idx += cum[idx] <= u
            if crowded is not None:
                slow = crowded[j]
                idx[slow] = np.searchsorted(cum, u[slow], side="right")
        return np.minimum(idx, last, out=idx)

    return lookup


def draw_samples(p: JointDistribution, count: int, rng: Rng) -> np.ndarray:
    """Draws i.i.d. samples from p via its cumulative table.

    Returns:
        An int array of shape (count, arity); each row is one index tuple.
    """
    count = _stream_key("sample count", count)
    if count == 0:
        return np.empty((0, len(p.dims)), dtype=np.int64)
    flat = inverse_cdf(np.cumsum(p.probs), count)(rng.gen.random(count))
    idx = np.unravel_index(flat, p.dims)
    return np.stack(idx, axis=1).astype(np.int64)


class JointSampler:
    """Sample access to an explicit joint distribution.

    Testers only rely on the draw/dims interface; the explicit `dist` handle
    additionally enables count-level batch draws that are identical in law to
    per-sample streaming (see the estimators module).
    """

    def __init__(self, dist: JointDistribution):
        self.dist = dist
        self.dims = dist.dims

    def draw(self, count: int, rng: Rng) -> np.ndarray:
        return draw_samples(self.dist, count, rng)


# ---------------------------------------------------------------------------
# Reshaping (bijective reindexing; the last dimension varies fastest)


def merge_axes(p: JointDistribution, blocks: Sequence[Sequence[int]]) -> JointDistribution:
    """Relabels p's axes: each block of distinct axes becomes one axis, in block order.

    A block is merged row-major (its last axis varies fastest) and axes in no
    block are summed out, so one axis per block gives a marginal. When the
    blocks cover every axis the map is a bijection, inverted by `split_axis`.
    """
    blocks = _check_blocks(len(p.dims), blocks)
    order = [a for b in blocks for a in b]
    drop = tuple(a for a in range(len(p.dims)) if a not in order)
    t = p.table().sum(axis=drop)  # with no axis to drop, a copy
    # t's axes follow the original order; permute them into block order.
    kept = sorted(order)
    t = np.transpose(t, [kept.index(a) for a in order])
    new_dims = tuple(math.prod(p.dims[a] for a in b) for b in blocks)
    return JointDistribution._derived(new_dims, np.ascontiguousarray(t).reshape(-1))


def split_axis(p: JointDistribution, axis: int, factors: Sequence[int]) -> JointDistribution:
    """Splits one axis into several, row-major (inverse of merging them back)."""
    ((axis,),) = _check_blocks(len(p.dims), [[axis]])
    factors = _checked_dims(factors)
    if math.prod(factors) != p.dims[axis]:
        raise DomainError(
            f"factors {factors} do not multiply to axis size {p.dims[axis]}"
        )
    new_dims = p.dims[:axis] + factors + p.dims[axis + 1 :]
    return JointDistribution._derived(new_dims, p.probs)


def merge_index(
    idx: np.ndarray, dims: Sequence[int], blocks: Sequence[Sequence[int]]
) -> np.ndarray:
    """Applies the merge relabeling to index rows. idx shape (k, d) -> (k, len(blocks)).

    blocks are checked as merge_axes checks them, against len(dims) axes.
    """
    blocks = _check_blocks(len(dims), blocks)
    idx = np.asarray(idx)
    cols = [np.ravel_multi_index(tuple(idx[:, a] for a in b), [dims[a] for a in b]) for b in blocks]
    return np.stack(cols, axis=1).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# JSON interchange: {"dims": [...], "probs": [...]}


def distribution_to_json(p: JointDistribution) -> dict:
    return {"dims": list(p.dims), "probs": [float(x) for x in p.probs]}


def distribution_from_json(obj: dict) -> JointDistribution:
    if not isinstance(obj, dict) or "dims" not in obj or "probs" not in obj:
        raise DomainError('distribution JSON needs "dims" and "probs"')
    return JointDistribution(obj["dims"], obj["probs"])


def save_distribution(p: JointDistribution, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(distribution_to_json(p), fh)


def load_distribution(path: str) -> JointDistribution:
    with open(path) as fh:
        return distribution_from_json(json.load(fh))
