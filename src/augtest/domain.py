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
import struct
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cache, cached_property, lru_cache
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


def _normal_square(name: str, value: float) -> float:
    """value * value, raising DomainError naming the field unless it is a positive normal float.

    The sizing formulas divide by such a square; below the normal floats it
    is zero or has lost its precision.
    """
    square = value * value
    if not square >= sys.float_info.min:
        raise DomainError(f"{name}^2 = {square!r} is below the smallest normal float; {name} = {value!r} is too small")
    return square


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
        if not np.isfinite(p).all():
            raise DomainError("prob vector has non-finite entries")
        if (p < 0).any():
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes each word it
# mixes in with a multiplier that starts at _HASH_A and steps by _MULT_A on
# every hash, through every word mixed into the 4-word pool; generate_state
# hashes the pool out the same way from _HASH_B, by _MULT_B.
_MASK32 = 0xFFFFFFFF
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Output hash k (k = 0..7) xors pool word k % 4 with _HASH_B * _MULT_B**k and
# multiplies by _HASH_B * _MULT_B**(k + 1): generate_state always starts its
# multiplier afresh, so its 8 hashes read a fixed table.
_OUT_HASH = tuple(
    (k & 3, _HASH_B * pow(_MULT_B, k, 1 << 32) & _MASK32, _HASH_B * pow(_MULT_B, k + 1, 1 << 32) & _MASK32)
    for k in range(8)
)
# The 8 hashed uint32 words, paired little-endian into generate_state's 4 uint64 words.
_PACK_STATE = struct.Struct("<8I").pack


def _absorb(pool: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The pool (4 words, then hashmix's multiplier) with each of n's uint32 words mixed into every pool word.

    SeedSequence's hashmix and mix, written out: this runs once per stream entry.
    """
    p0, p1, p2, p3, h = pool
    while True:
        w = n & _MASK32
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        x = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p0 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        x = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p1 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        x = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p2 = x ^ x >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        x = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p3 = x ^ x >> 16
        n >>= 32
        if not n:
            return p0, p1, p2, p3, h


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """The pool of SeedSequence(entropy=seed, spawn_key=key) before the key's first word, then its multiplier.

    The seed's words are padded with zeros to 4, and the key is then mixed
    in word by word, so every stream of one seed starts from this pool.
    With an empty key numpy pads nothing, but it hashes zeros into the
    pool's unfilled words all the same, so SeedSequence(seed).pool is that
    pool. Filling it ran 16 hashes, 4 more per seed word past the fourth.
    """
    hashes = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4)
    return (*np.random.SeedSequence(seed).pool.tolist(), _HASH_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32)


def _state_words(pool: tuple[int, ...]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of the pool: 8 hashed uint32 words, paired little-endian."""
    return np.frombuffer(
        _PACK_STATE(*[(v := (pool[i] ^ x) * m & _MASK32) ^ v >> 16 for i, x, m in _OUT_HASH]), "<u8"
    )


@cache
def _state_words_seed() -> type:
    """An ISeedSequence that hands PCG64 its 4 uint64 seed words, with no SeedSequence built.

    The class is made on first use, so that importing augtest does not
    import numpy.random; numpy loads that package lazily.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds PCG64's 4 uint64 words only, asked for {n_words} of {dtype}")
            return self.words

    return StateWords


class Rng:
    """Deterministic random stream keyed by (seed, stream).

    Its draws are exactly those of numpy's
    Generator(PCG64(SeedSequence(entropy=seed, spawn_key=stream))), so
    identical (seed, stream) pairs reproduce identical draw sequences.
    `split(i)` derives the child keyed stream + (i,), which keeps concurrent
    trials reproducible. SeedSequence hashes a key into 128 bits, so two
    distinct keys collide with negligible probability, not never.

    One SeedSequence is built per seed, and its pool is cached; each stream
    key is then absorbed into that pool incrementally, with no SeedSequence
    built per stream. A split child absorbs only its own index, one uint32
    word for an index below 2**32, into its parent's pool. PCG64 takes the
    pool's hashed-out state words; their multipliers are a fixed sequence,
    read from a precomputed table. The pool is derived when the stream is
    made, so a child holds no reference to its parent; the generator is
    built on first use of `gen`, so a stream that is only split never pays
    for seeding one.
    The seed, each stream entry and each split index must be a non-negative
    integer (numpy integers included, bool not): a float or a string is
    rejected, never truncated onto another stream. `Rng(seed, stream)`
    checks every entry; `split(i)` checks only i, since the parent's
    entries were checked when it was made.
    """

    def __init__(self, seed: int, stream: int | tuple[int, ...] = (), *, _pool: tuple[int, ...] | None = None):
        if _pool is not None:  # from split, which checked and absorbed the one new entry
            self.seed, self.stream, self._pool = seed, stream, _pool
            return
        self.seed = _stream_key("seed", seed)
        if isinstance(stream, tuple):
            self.stream = tuple(_stream_key("stream entry", s) for s in stream)
        else:
            self.stream = (_stream_key("stream entry", stream),)
        pool = _seed_pool(self.seed)
        for s in self.stream:
            pool = _absorb(pool, s)
        self._pool = pool

    @cached_property
    def gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(_state_words_seed()(_state_words(self._pool))))

    def split(self, index: int) -> "Rng":
        index = _stream_key("split index", index)
        return Rng(self.seed, (*self.stream, index), _pool=_absorb(self._pool, index))

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
    """Checks a nonempty list of nonempty blocks of distinct axes in range(arity).

    One pass reads every axis, and a non-integer one raises as it is read;
    the other faults raise after the pass, in this order: an empty list or
    block, a repeated axis, then the first axis out of range.
    """
    checked, seen, empty, repeated, stray = [], set(), False, False, None
    for b in blocks:
        block = []
        for a in b:
            if type(a) is not int or a < 0:
                a = _stream_key("axis", a)
            if a in seen:
                repeated = True
            seen.add(a)
            if a >= arity and stray is None:
                stray = a
            block.append(a)
        empty = empty or not block
        checked.append(tuple(block))
    if empty or not checked:
        raise DomainError(f"axis blocks {checked} must be a nonempty list of nonempty blocks")
    if repeated:
        raise DomainError(f"duplicate axes in {checked}")
    if stray is not None:
        raise DomainError(f"axis {stray} out of range for arity {arity}")
    return checked


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


# Whether a map is built with a guide table (Chen and Asau, 1974) or binary
# searches depends on the table and on the order of the keys it looks up. A
# guide costs one build, about a dozen O(M + G) numpy passes, and then finds
# a key in O(1); a binary search costs nothing to build and O(log M) per
# key, least on sorted keys, each of whose searches starts where the last
# one ended. Callers look keys up in one of two orders: the norm's (r, T)
# block, rows each sorted on its own, and no order (closeness batches,
# draw_samples). Timed as one build plus its lookups against one binary
# search (2-core Xeon, numpy 2.4, glibc keeping freed heap pages as the
# bench harness has it, interleaved medians, flat tables), the guide breaks
# even between these counts, in keys per cell from 8,649 cells on:
#
#   cells      11 sorted rows     no order           one sorted row
#   1,000      1,024-1,536 keys   512-1,024 keys     1,024-1,536 keys
#   8,649      0.12-0.18          0.06-0.12          0.18-0.24
#   26,023     0.06-0.08          0.04-0.06          0.12-0.16
#   65,536     0.06-0.09          0.03-0.05          0.09-0.13
#   131,072    above 0.25         0.09-0.13          above 0.25
#   939,029    -                  below 0.09         -
#
# Past 65,536 cells the guide's arrays outgrow the caches and its build goes
# from about 5 ns a cell to 9-28 ns, so sorted keys break even later (the
# norm's 12,452 keys on 80,000 cells took 1,066 us by binary search against
# 1,221 us with a guide); unsorted keys still pay for a guide (about 570 ns
# a key by binary search at 939,029 cells). The norm looks up 44 sqrt(M)
# keys, under 1/8 of a key per cell past about 124,000 cells, so only its
# views of 65,536 to about 124,000 cells take a guide that can lose; no
# benchmark workload has views of that size. At 8,649 cells the norm's
# 4,096 keys took 265 us by binary search and 100 us with a guide, and
# 6,144 unsorted keys 695 us and 80 us. Below _GUIDE_MIN_LOOKUPS keys in
# all no map has a guide, where its fixed cost is most of what it saves (at
# most about 16 us a map at 1,000 cells); that keeps the d-ary tester's
# views (at most about 1,000 cells and 1,612 norm keys) on binary search.
# From there a guide needs _GUIDE_MIN_LOOKUPS_PER_CELL_SORTED keys a cell
# in sorted rows, or _GUIDE_MIN_LOOKUPS_PER_CELL in no order.
_GUIDE_MIN_LOOKUPS = 2048
_GUIDE_MIN_LOOKUPS_PER_CELL_SORTED = 0.125
_GUIDE_MIN_LOOKUPS_PER_CELL = 0.0625
# For sorted rows, a table on which more than this share of the cells end in
# the bucket the cell before ended in stays on binary search. Such repeated
# edges come from cells lighter than a bucket, tiny or zero-mass ones; they
# make the build's repeat branchy, and each key in a bucket with two or
# more boundaries is binary-searched after its guide lookup. At 25,000
# cells, with 13,000 keys in one sorted row or the norm's 7,128 in 11, the
# guide loses from about 2-8 % repeated edges on: Dirichlet(20) laws repeat
# 1.7 %, Dirichlet(5) 8.9 %, Dirichlet(1) 30 %, the hidden-bit joint laws of
# 23,000-28,000 cells about 47 %, and the flattened uniform (100, 20) joints
# 0.12-0.14 %. Unsorted keys keep the guide, which beats their binary search
# on all of these (535 against 906 us at 7,000 keys on Dirichlet(5), 476
# against 1,031 on a hidden-bit joint).
_GUIDE_MAX_REPEATED_EDGES_SORTED = 0.03125


def _wants_guide(lookups: float, cells: int, sorted_rows: bool = False) -> bool:
    """Whether a map over cells cells, for about lookups keys in all, is worth a guide table.

    sorted_rows says the keys come in rows each sorted on its own; otherwise
    they come in no order. For sorted rows a table with crowded buckets is
    binary-searched even so (see _guide_table).
    """
    if lookups < _GUIDE_MIN_LOOKUPS:
        return False
    per_cell = _GUIDE_MIN_LOOKUPS_PER_CELL_SORTED if sorted_rows else _GUIDE_MIN_LOOKUPS_PER_CELL
    return lookups >= per_cell * cells


def _guide_table(cum: np.ndarray, max_repeated: float = 1.0) -> tuple[np.ndarray | None, np.ndarray | None]:
    """A guide table over cum (Chen and Asau, 1974) and its crowded buckets, or (None, None).

    G is the least power of two >= M, so u * G and j / G are exact. guide[j]
    counts the cells with cum[i] <= j / G, capped at M - 1; crowded[j] marks
    a bucket [j / G, (j + 1) / G) that holds two or more boundaries cum[i],
    i < M - 1, and is None when no bucket does. The last cell's boundary is
    left to the lookup's comparison and clip. Built in O(M + G).

    When more than max_repeated of the cells end in the bucket the cell
    before ended in, the build stops after its first passes and (None, None)
    is returned.
    """
    M = cum.size
    G = 1 << (M - 1).bit_length()
    # edge[i] = ceil(cum[i] * G) is one past the bucket holding cell i's
    # boundary; past 1 it is clipped to G, which no u reaches.
    edge = cum * G
    np.minimum(edge, G, out=edge)
    np.ceil(edge, out=edge)
    repeated = edge[1:-1] == edge[:-2]
    n_repeated = np.count_nonzero(repeated)
    if n_repeated > max_repeated * M:
        return None, None
    edges = np.empty(M + 1, dtype=np.intp)
    edges[0] = 0
    edges[1:] = edge
    crowded = None
    if n_repeated:
        crowded = np.zeros(G + 1, dtype=bool)
        crowded[edges[2:M][repeated]] = True
        crowded = crowded[1:]
    # guide[j] counts the edges <= j, capped at M - 1: the last cell's
    # boundary is left to the lookup's comparison.
    edges[M] = G
    runs = edges[1:] - edges[:-1]
    del edge, edges, repeated  # so that fewer arrays are alive beside the guide
    return np.arange(M).repeat(runs), crowded


def inverse_cdf(cum: np.ndarray, lookups: float, sorted_rows: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """The map from uniforms u in [0, 1) to flat indices through a cumulative mass table.

    Index i is returned when cum[i-1] <= u < cum[i], so a zero-mass cell is
    never hit. A table sums to 1 only up to rounding; a u at or past cum[-1]
    goes to the last cell with positive mass, never to trailing zero-mass cells.

    lookups is about how many uniforms the map will take in all, and
    sorted_rows whether they come in rows each sorted on its own (the norm's
    block) or in no order. When _wants_guide says they pay for one, the map
    builds a guide table once, unless the keys are sorted rows and the
    table's buckets are crowded (see _GUIDE_MAX_REPEATED_EDGES_SORTED): a u
    in a bucket that holds at most one boundary is answered by
    guide[floor(u * G)] and one comparison, and only a u in a crowded bucket
    is binary-searched. Otherwise every u is binary-searched. Either way each
    index is the one searchsorted(cum, u, "right") gives, clipped as above.
    The map's `guided` attribute says whether it holds a guide.
    """
    last = cum.searchsorted(cum[-1], side="left")
    guide = crowded = None
    if _wants_guide(lookups, cum.size, sorted_rows):
        guide, crowded = _guide_table(cum, _GUIDE_MAX_REPEATED_EDGES_SORTED if sorted_rows else 1.0)

    def lookup(u: np.ndarray) -> np.ndarray:
        if guide is None:
            idx = cum.searchsorted(u, side="right")
        else:
            j = (u * guide.size).astype(np.intp)
            idx = guide[j]
            idx += cum[idx] <= u
            if crowded is not None:
                slow = crowded[j]
                idx[slow] = cum.searchsorted(u[slow], side="right")
        return np.minimum(idx, last, out=idx)

    lookup.guided = guide is not None
    return lookup


def _cumulative(p: JointDistribution) -> np.ndarray:
    """p's cumulative mass table, p.probs.cumsum(), summed once and memoized on p (read-only)."""
    cum = p.__dict__.get("_cum")
    if cum is None:
        cum = p._cum = p.probs.cumsum()
        cum.flags.writeable = False
    return cum


def draw_samples(p: JointDistribution, count: int, rng: Rng) -> np.ndarray:
    """Draws i.i.d. samples from p via its cumulative table.

    Returns:
        An int array of shape (count, arity); each row is one index tuple.
    """
    count = _stream_key("sample count", count)
    if count == 0:
        return np.empty((0, len(p.dims)), dtype=np.int64)
    flat = inverse_cdf(_cumulative(p), count)(rng.gen.random(count))
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

    The blocks are checked on every call. The result is memoized on p, keyed
    by the checked blocks, so a repeated relabeling of one law returns the
    same read-only law; the memo is freed with p.
    """
    blocks = tuple(_check_blocks(len(p.dims), blocks))
    memo = p.__dict__.setdefault("_relabelings", {})
    if blocks not in memo:
        order = [a for b in blocks for a in b]
        drop = tuple(a for a in range(len(p.dims)) if a not in order)
        t = p.table().sum(axis=drop)  # with no axis to drop, a copy
        # t's axes follow the original order; permute them into block order.
        kept = sorted(order)
        t = np.transpose(t, [kept.index(a) for a in order])
        new_dims = tuple(math.prod(p.dims[a] for a in b) for b in blocks)
        memo[blocks] = JointDistribution._derived(new_dims, np.ascontiguousarray(t).reshape(-1))
    return memo[blocks]


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
    return _merge_index(idx, dims, _check_blocks(len(dims), blocks))


def _merge_index(idx, dims: Sequence[int], blocks: Sequence[tuple[int, ...]]) -> np.ndarray:
    """merge_index on blocks already checked against len(dims) axes."""
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
