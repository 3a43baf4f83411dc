"""Unit and property tests for domains, distributions, and reshaping."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augtest import domain
from augtest.domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    SampleAccount,
    distribution_from_json,
    distribution_to_json,
    draw_samples,
    inverse_cdf,
    l2_norm_sq,
    load_distribution,
    marginal,
    merge_axes,
    merge_index,
    poisson,
    product_of_marginals,
    save_distribution,
    split_axis,
    tv_distance,
    tv_to_own_product,
)
from augtest.estimators import learn_empirical
from augtest.testers import ReindexedSampler


def random_dist(dims, gen):
    p = gen.dirichlet(np.ones(math.prod(dims)))
    return JointDistribution(dims, p)


def reference_merge(p, blocks):
    """The relabeling as two steps: the marginal on the kept axes, then a merge of consecutive runs."""
    kept = [a for b in blocks for a in b]
    drop = tuple(a for a in range(len(p.dims)) if a not in kept)
    t = p.table().sum(axis=drop) if drop else p.table()
    remaining = [a for a in range(len(p.dims)) if a not in drop]
    t = np.ascontiguousarray(np.transpose(t, [remaining.index(a) for a in kept]))
    return t.reshape([math.prod(p.dims[a] for a in b) for b in blocks])


class TestJointDistribution:
    def test_basic_fields(self):
        p = JointDistribution.uniform([4, 3, 2])
        assert p.dims == (4, 3, 2)
        assert p.probs.size == 24
        assert JointDistribution(np.array([2, 2]), [0.25] * 4).dims == (2, 2)

    def test_axis_size_must_be_at_least_two(self):
        for dims in [(4, 1), (), (2, 0), (2.5, 2), 4, None]:
            with pytest.raises(DomainError):
                JointDistribution(dims, [0.5, 0.5])
            with pytest.raises(DomainError):
                JointDistribution.uniform(dims)

    def test_mass_validation(self):
        dom = (2, 2)
        JointDistribution(dom, [0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DomainError):
            JointDistribution(dom, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            JointDistribution(dom, [1.5, -0.5, 0.0, 0.0])
        with pytest.raises(DomainError):
            JointDistribution(dom, [np.nan, 0.5, 0.25, 0.25])
        with pytest.raises(DomainError):
            JointDistribution(dom, [1.0, 0.0])  # wrong length

    def test_probs_are_read_only(self):
        p = JointDistribution.uniform((2, 3))
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_table_roundtrip(self):
        t = np.array([[0.1, 0.2], [0.3, 0.4]])
        p = JointDistribution.from_table(t)
        assert p.dims == (2, 2)
        assert np.array_equal(p.table(), t)

    def test_uniform(self):
        p = JointDistribution.uniform((5, 4))
        assert np.allclose(p.probs, 0.05)
        assert l2_norm_sq(p) == pytest.approx(1.0 / 20.0, abs=1e-15)


class TestRng:
    def test_same_key_reproduces(self):
        a = Rng(7, (1, 2)).gen.random(5)
        b = Rng(7, (1, 2)).gen.random(5)
        assert np.array_equal(a, b)

    def test_split_children_differ(self):
        r = Rng(7)
        a = r.split(0).gen.random(5)
        b = r.split(1).gen.random(5)
        assert not np.array_equal(a, b)

    def test_split_appends_to_stream(self):
        assert Rng(7, (3,)).split(4).stream == (3, 4)
        assert np.array_equal(Rng(7, (3, 4)).gen.random(3), Rng(7, (3,)).split(4).gen.random(3))

    def test_split_only_stream_seeds_no_generator(self):
        r = Rng(7, (3,))
        r.split(4)
        assert "gen" not in vars(r)
        assert r.gen is r.gen

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 12345, 2**70 + 1])
    @pytest.mark.parametrize("stream", [(), (2**31 - 1,), (5, 2**40)])
    def test_stream_is_the_seed_sequence_keyed_by_seed_and_stream(self, seed, stream):
        # Seeds and stream entries past one or two uint32 words included.
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=stream)))
        rng = Rng(seed, stream)
        assert np.array_equal(rng.gen.random(8), ref.random(8))
        assert np.array_equal(rng.gen.integers(0, 2**62, 8), ref.integers(0, 2**62, 8))
        assert rng.gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [-1, -5, -(2**70)])
    def test_negative_seed_is_rejected_by_name(self, seed):
        # numpy would only fail at the first draw, with no name in its message.
        with pytest.raises(DomainError, match=f"seed must be a non-negative integer, got {seed}"):
            Rng(seed)
        with pytest.raises(DomainError, match="seed"):
            Rng(seed, (3,))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Rng(2.5), "seed must be a non-negative integer, got 2.5"),
            (lambda: Rng("7"), "seed must be a non-negative integer, got '7'"),
            (lambda: Rng(True), "seed must be a non-negative integer, got True"),
            (lambda: Rng(np.float64(3.0)), r"seed must be a non-negative integer, got np.float64\(3.0\)"),
            (lambda: Rng(7, (1.9,)), "stream entry must be a non-negative integer, got 1.9"),
            (lambda: Rng(7, 1.9), "stream entry must be a non-negative integer, got 1.9"),
            (lambda: Rng(7, (3, False)), "stream entry must be a non-negative integer, got False"),
            (lambda: Rng(7, (-1,)), "stream entry must be a non-negative integer, got -1"),
            (lambda: Rng(7).split(2.5), "split index must be a non-negative integer, got 2.5"),
            (lambda: Rng(7).split("1"), "split index must be a non-negative integer, got '1'"),
            (lambda: Rng(7).split(np.True_), r"split index must be a non-negative integer, got np.True_"),
        ],
    )
    def test_non_integral_key_is_rejected_by_name(self, make, message):
        # int() would truncate each of these onto another key's stream: Rng(2.5) replaying Rng(2).
        with pytest.raises(DomainError, match=message):
            make()

    def test_numpy_integer_keys_are_the_int_keys(self):
        rng = Rng(np.int64(7), (np.uint32(1),)).split(np.int8(2))
        assert (rng.seed, rng.stream) == (7, (1, 2))
        assert all(type(k) is int for k in (rng.seed, *rng.stream))
        assert np.array_equal(rng.gen.random(4), Rng(7, (1, 2)).gen.random(4))

    def test_poisson_zero_mean_draws_nothing(self):
        assert poisson(0.0, Rng(1)) == 0

    def test_poisson_invalid_mean(self):
        with pytest.raises(DomainError):
            poisson(-1.0, Rng(1))
        with pytest.raises(DomainError):
            poisson(float("inf"), Rng(1))

    def test_poisson_bool_mean_is_rejected_by_value(self):
        # float(True) would run at mean 1
        with pytest.raises(DomainError, match="Poisson mean must be a finite number, got True"):
            poisson(True, Rng(1))

    def test_poisson_mean_numpy_cannot_draw_is_rejected_by_name(self):
        assert poisson(domain._POISSON_MEAN_MAX, Rng(1)) > 0
        with pytest.raises(DomainError, match=r"Poisson mean must be at most 9.22337e\+18, got 1e\+20"):
            poisson(1e20, Rng(1))

    def test_poisson_mean_matches(self):
        gen = Rng(8)
        draws = [poisson(5.0, gen.split(i)) for i in range(2000)]
        assert abs(np.mean(draws) - 5.0) < 3 * math.sqrt(5.0 / 2000)


class TestSampleAccount:
    def test_add_and_total(self):
        a = SampleAccount()
        a.add("norm", 10)
        a.add("closeness", 5)
        a.add("norm", 1)
        assert a.norm == 11
        assert a.total == 16
        assert a.as_dict()["total"] == 16

    def test_merge(self):
        a = SampleAccount(flattening=1, learning=2)
        b = SampleAccount(norm=3, learning=4)
        a.merge(b)
        assert (a.flattening, a.norm, a.closeness, a.learning) == (1, 3, 0, 6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            SampleAccount().add("norm", -1)

    @pytest.mark.parametrize("count", [2.7, True, "3"])
    def test_non_integral_count_is_rejected_by_value(self, count):
        # int() would add 2 for 2.7 and 1 for True
        a = SampleAccount()
        message = f"norm sample count must be a non-negative integer, got {count!r}"
        with pytest.raises(DomainError, match=message):
            a.add("norm", count)
        assert a.norm == 0


class TestDistances:
    def test_tv_hand_case(self):
        p = JointDistribution.from_table([[1.0, 0.0], [0.0, 0.0]])
        q = JointDistribution.uniform((2, 2))
        assert tv_distance(p, q) == pytest.approx(0.75, abs=1e-15)
        assert tv_distance(p, p) == 0.0
        assert tv_distance(q, p) == tv_distance(p, q)

    def test_tv_dims_mismatch(self):
        with pytest.raises(DomainError):
            tv_distance(JointDistribution.uniform((2, 2)), JointDistribution.uniform((4,)))

    def test_l2_norm_point_mass(self):
        p = JointDistribution.from_table([[1.0, 0.0], [0.0, 0.0]])
        assert l2_norm_sq(p) == 1.0


class TestMarginals:
    def test_hand_case(self):
        p = JointDistribution.from_table([[0.1, 0.2, 0.3], [0.2, 0.1, 0.1]])
        assert np.allclose(marginal(p, [0]).probs, [0.6, 0.4])
        assert np.allclose(marginal(p, [1]).probs, [0.3, 0.3, 0.4])

    def test_axis_order_is_respected(self):
        gen = Rng(10).gen
        p = random_dist((3, 4, 2), gen)
        m = marginal(p, [2, 0])
        assert m.dims == (2, 3)
        direct = p.table().sum(axis=1).T
        assert np.allclose(m.table(), direct)

    def test_axes_are_checked(self):
        p = random_dist((4, 3, 2), Rng(13).gen)
        assert marginal(p, [2, 0]).dims == (2, 4)
        for axes in ([], [0, 0], [3], [-1]):
            with pytest.raises(DomainError):
                marginal(p, axes)

    def test_marginal_of_full_axes_is_identity(self):
        p = random_dist((2, 3), Rng(11).gen)
        assert np.allclose(marginal(p, [0, 1]).probs, p.probs)

    def test_product_of_marginals_fixed_point(self):
        # a true product is its own marginal product
        a, b = np.array([0.2, 0.8]), np.array([0.5, 0.3, 0.2])
        p = JointDistribution.from_table(np.outer(a, b))
        q = product_of_marginals(p)
        assert np.allclose(q.probs, p.probs, atol=1e-15)
        assert tv_to_own_product(p) < 1e-15

    def test_product_of_marginals_has_same_marginals(self):
        p = random_dist((3, 4), Rng(12).gen)
        q = product_of_marginals(p)
        assert np.allclose(marginal(q, [0]).probs, marginal(p, [0]).probs)
        assert np.allclose(marginal(q, [1]).probs, marginal(p, [1]).probs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tv_to_own_product_is_the_distance_to_the_marginal_product(self, data):
        # Equal to the last bit, on Dirichlet laws with 2 to 4 axes.
        dims = data.draw(st.lists(st.integers(2, 6), min_size=2, max_size=4), label="dims")
        p = random_dist(dims, Rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).gen)
        assert tv_to_own_product(p) == tv_distance(p, product_of_marginals(p))

    def test_correlated_pair_gap(self):
        p = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
        assert tv_to_own_product(p) == pytest.approx(0.5, abs=1e-15)


class TestSampling:
    def test_shapes_and_types(self):
        p = JointDistribution.uniform((3, 4))
        rows = draw_samples(p, 7, Rng(20))
        assert rows.shape == (7, 2)
        assert rows.dtype == np.int64
        assert draw_samples(p, 0, Rng(20)).shape == (0, 2)
        with pytest.raises(DomainError):
            draw_samples(p, -1, Rng(20))
        with pytest.raises(DomainError, match="sample count must be a non-negative integer, got 2.5"):
            draw_samples(p, 2.5, Rng(20))

    def test_draws_are_deterministic(self):
        p = JointDistribution.uniform((3, 4))
        assert np.array_equal(draw_samples(p, 50, Rng(21)), draw_samples(p, 50, Rng(21)))

    def test_empirical_frequency_matches(self):
        gen = Rng(22).gen
        p = random_dist((4, 3), gen)
        rows = draw_samples(p, 40000, Rng(23))
        flat = np.ravel_multi_index((rows[:, 0], rows[:, 1]), (4, 3))
        emp = np.bincount(flat, minlength=12) / 40000
        assert 0.5 * np.abs(emp - p.probs).sum() < 0.02

    def test_point_mass_always_hits(self):
        t = np.zeros((3, 3))
        t[1, 2] = 1.0
        p = JointDistribution.from_table(t)
        rows = draw_samples(p, 100, Rng(24))
        assert np.all(rows == [1, 2])

    def test_joint_sampler_wraps(self):
        p = JointDistribution.uniform((3, 2))
        s = JointSampler(p)
        assert s.dims == (3, 2)
        assert s.draw(5, Rng(25)).shape == (5, 2)


class TestReshaping:
    def test_merge_then_split_roundtrip(self):
        p = random_dist((3, 4, 2), Rng(30).gen)
        merged = merge_axes(p, [[0], [1, 2]])
        assert merged.dims == (3, 8)
        back = split_axis(merged, 1, (4, 2))
        assert back.dims == (3, 4, 2)
        assert np.allclose(back.probs, p.probs, atol=0)

    def test_merge_reorders_axes(self):
        p = random_dist((2, 3), Rng(31).gen)
        swapped = merge_axes(p, [[1], [0]])
        assert swapped.dims == (3, 2)
        assert np.allclose(swapped.table(), p.table().T)

    def test_merge_preserves_tv_and_product_structure(self):
        gen = Rng(32).gen
        p = random_dist((2, 3, 2), gen)
        q = random_dist((2, 3, 2), gen)
        blocks = [[0, 2], [1]]
        assert tv_distance(merge_axes(p, blocks), merge_axes(q, blocks)) == pytest.approx(
            tv_distance(p, q), abs=1e-15
        )

    def test_index_relabeling_matches_distribution_relabeling(self):
        p = random_dist((3, 4, 2), Rng(33).gen)
        blocks = [[1], [0, 2]]
        merged = merge_axes(p, blocks)
        rows = draw_samples(p, 200, Rng(34))
        midx = merge_index(rows, p.dims, blocks)
        # mass at the relabeled cell equals mass at the original cell
        orig = p.table()[rows[:, 0], rows[:, 1], rows[:, 2]]
        new = merged.table()[midx[:, 0], midx[:, 1]]
        assert np.allclose(orig, new, atol=0)

    def test_index_relabeling_matches_the_row_major_loop(self):
        dims, blocks = (3, 4, 2, 5), [[2, 0], [3], [1]]
        rows = draw_samples(JointDistribution.uniform(dims), 300, Rng(37)).astype(np.int32)
        expected = []
        for block in blocks:
            col = rows[:, block[0]].astype(np.int64)
            for a in block[1:]:
                col = col * dims[a] + rows[:, a]
            expected.append(col)
        midx = merge_index(rows, dims, blocks)
        assert midx.dtype == np.int64
        assert np.array_equal(midx, np.stack(expected, axis=1))

    def test_merge_rejects_a_non_partition(self):
        p = random_dist((2, 3), Rng(35).gen)
        # Axes in no block are summed out, so a block list need not cover every axis.
        assert merge_axes(p, [[0]]) == marginal(p, [0])
        for blocks in ([[0, 1], [1]], [], [[0], []], [[0, 2]], [[-1]]):
            with pytest.raises(DomainError):
                merge_axes(p, blocks)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: merge_axes(p, [[1.7]]), "axis must be a non-negative integer, got 1.7"),
            (lambda p: marginal(p, [True]), "axis must be a non-negative integer, got True"),
            (lambda p: split_axis(p, 0.9, [2]), "axis must be a non-negative integer, got 0.9"),
            (lambda p: split_axis(p, 1, [1.5, 2]), r"integers, got \[1.5, 2\]"),
            (lambda p: ReindexedSampler(JointSampler(p), [[1.7]]), "axis must be a non-negative integer, got 1.7"),
        ],
    )
    def test_non_integral_axes_are_rejected_by_value(self, call, message):
        # int() would read axis 1 for 1.7 and True and axis 0 for 0.9
        with pytest.raises(DomainError, match=message):
            call(JointDistribution.uniform((2, 3)))

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0], [0]], "duplicate axes"),
            ([[1.7]], "axis must be a non-negative integer, got 1.7"),
            ([[2]], "axis 2 out of range for arity 2"),
            ([[0], []], "nonempty list of nonempty blocks"),
        ],
    )
    def test_merge_index_checks_its_blocks_as_merge_axes_does(self, blocks, message):
        rows = draw_samples(JointDistribution.uniform((3, 2)), 5, Rng(36))
        with pytest.raises(DomainError, match=message):
            merge_index(rows, (3, 2), blocks)
        with pytest.raises(DomainError, match=message):
            merge_axes(JointDistribution.uniform((3, 2)), blocks)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_merge_is_the_marginal_then_the_merge(self, data):
        """merge_axes, the reindexed sampler's law and marginal all equal the two-step formula."""
        dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5), label="dims")
        axes = data.draw(st.permutations(range(len(dims))), label="order")
        axes = axes[: data.draw(st.integers(1, len(dims)), label="kept")]
        cuts = data.draw(st.sets(st.integers(1, len(axes) - 1)), label="cuts") if len(axes) > 1 else set()
        bounds = [0, *sorted(cuts), len(axes)]
        blocks = [list(axes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        p = random_dist(dims, Rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).gen)
        expected = reference_merge(p, blocks)
        assert np.array_equal(merge_axes(p, blocks).table(), expected)
        assert np.array_equal(ReindexedSampler(JointSampler(p), blocks).dist.table(), expected)
        assert np.array_equal(marginal(p, axes).table(), reference_merge(p, [[a] for a in axes]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_split_inverts_merge(self, data):
        """Splitting each merged axis back out leaves the axes in block order, values unchanged."""
        dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5), label="dims")
        order = data.draw(st.permutations(range(len(dims))), label="order")
        cuts = data.draw(st.sets(st.integers(1, len(dims) - 1)), label="cuts") if len(dims) > 1 else set()
        bounds = [0, *sorted(cuts), len(dims)]
        blocks = [list(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        p = random_dist(dims, Rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).gen)
        rows = draw_samples(p, 20, Rng(36))
        merged, midx = merge_axes(p, blocks), merge_index(rows, p.dims, blocks)
        # Split the last block first so the earlier merged axes keep their positions.
        for i in reversed(range(len(blocks))):
            merged = split_axis(merged, i, [dims[a] for a in blocks[i]])
        assert merged == merge_axes(p, [[a] for a in order])
        # merge_index is the row-major relabeling, so numpy's unravel_index undoes it.
        split = [np.unravel_index(midx[:, i], [dims[a] for a in blk]) for i, blk in enumerate(blocks)]
        assert np.array_equal(np.stack([c for cols in split for c in cols], axis=1), rows[:, order])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_derived_laws_equal_the_checked_construction(self, data):
        """merge_axes, marginal, split_axis and the learned histogram skip the checks, not the values."""
        dims = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5), label="dims")
        axes = data.draw(st.permutations(range(len(dims))), label="order")
        axes = axes[: data.draw(st.integers(1, len(dims)), label="kept")]
        cut = data.draw(st.integers(1, len(axes)), label="cut")
        blocks = [b for b in (axes[:cut], axes[cut:]) if b]
        p = random_dist(dims, Rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).gen)
        merged = merge_axes(p, blocks)
        laws = [
            merged,
            marginal(p, axes),
            split_axis(merged, 0, [dims[a] for a in blocks[0]]) if len(blocks[0]) > 1 else merged,
            learn_empirical(JointSampler(merged), data.draw(st.integers(1, 500), label="t"), Rng(37)),
        ]
        for law in laws:
            checked = JointDistribution(law.dims, law.probs)
            assert law.dims == checked.dims and all(type(n) is int for n in law.dims)
            assert law.probs.dtype == checked.probs.dtype and law.probs.shape == checked.probs.shape
            assert law.probs.tobytes() == checked.probs.tobytes()
            assert not law.probs.flags.writeable
        assert not p.probs.flags.writeable  # a derived law never unlocks its parent

    def test_split_axis_factor_mismatch(self):
        p = JointDistribution.uniform((3, 4))
        with pytest.raises(DomainError):
            split_axis(p, 1, (3, 2))


class TestJsonInterchange:
    def test_roundtrip_exact(self):
        p = random_dist((3, 2), Rng(40).gen)
        q = distribution_from_json(distribution_to_json(p))
        assert q.dims == p.dims
        assert np.array_equal(q.probs, p.probs)

    def test_file_roundtrip(self, tmp_path):
        p = random_dist((2, 2, 2), Rng(41).gen)
        path = tmp_path / "dist.json"
        save_distribution(p, str(path))
        q = load_distribution(str(path))
        assert np.array_equal(q.probs, p.probs)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2]}))
        with pytest.raises(DomainError):
            load_distribution(str(path))

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=10,
    )

    @settings(max_examples=400, deadline=None)
    @given(obj=JSON | st.fixed_dictionaries({"dims": JSON, "probs": JSON}))
    @example(obj={"dims": None, "probs": [0.5, 0.5]})
    @example(obj={"dims": [2.7, 2], "probs": [0.25] * 4})
    @example(obj={"dims": [2.0, 2], "probs": [0.25] * 4})
    @example(obj={"dims": "22", "probs": [0.25] * 4})
    @example(obj={"dims": 4, "probs": [0.25] * 4})
    @example(obj={"dims": [2, 2], "probs": {"a": 1}})
    @example(obj={"dims": [2, 2], "probs": [[0.5], [0.25, 0.25]]})
    @example(obj={"dims": [2, 2], "probs": ["a", "b", "c", "d"]})
    @example(obj={"dims": [2, 3], "probs": [[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]]})
    @example(obj={"dims": [2, 3], "probs": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.1]]})
    def test_json_spells_out_a_distribution_or_raises_domain_error(self, obj):
        try:
            p = distribution_from_json(obj)
        except DomainError:
            return
        assert p.dims == tuple(obj["dims"])
        given_probs = np.asarray(obj["probs"], dtype=np.float64)
        # a nested payload is accepted only when laid out as the dims
        assert given_probs.ndim == 1 or given_probs.shape == p.dims
        assert np.array_equal(p.probs, given_probs.reshape(-1))


def searchsorted_reference(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The binary-search inverse CDF: searchsorted(cum, u, "right"), clipped
    to the first cell where cum reaches its final value."""
    last = np.searchsorted(cum, cum[-1], side="left")
    return np.minimum(np.searchsorted(cum, u, side="right"), last)


# A guide table is built from this many lookups on; below it, none is.
LOOKUP_COUNTS = [1, domain._GUIDE_MIN_LOOKUPS]


class TestInverseCdf:
    def test_trailing_zero_mass_cells_are_never_hit(self):
        # the cumulative table of ten 0.1 cells ends just below 1, so the
        # largest uniform lies past it; it must land on the last positive cell
        p = np.array([0.1] * 10 + [0.0, 0.0])
        cum = np.cumsum(p)
        assert cum[-1] < 1.0
        u = np.array([0.0, 0.1, np.nextafter(1.0, 0.0)])
        for lookups in LOOKUP_COUNTS:
            assert inverse_cdf(cum, lookups)(u).tolist() == [0, 1, 9]

    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.integers(0, 3),
        trail=st.integers(0, 3),
        body=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=12
        ).filter(lambda w: any(x > 0 for x in w)),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50),
        lookups=st.sampled_from(LOOKUP_COUNTS),
    )
    def test_counts_sum_to_total_and_skip_zero_mass(self, lead, trail, body, u, lookups):
        w = np.array([0.0] * lead + body + [0.0] * trail)
        p = w / w.sum()
        u = np.array(u + [np.nextafter(1.0, 0.0)])
        counts = np.bincount(inverse_cdf(np.cumsum(p), lookups)(u), minlength=p.size)
        assert counts.size == p.size
        assert counts.sum() == u.size
        assert np.all(counts[p == 0] == 0)

    @settings(max_examples=300, deadline=None)
    @given(
        lead=st.integers(0, 3),
        trail=st.integers(0, 3),
        # Masses down to 1e-12 crowd many boundaries into one bucket; one to
        # three cells give G = 1, 2 and 4 buckets.
        body=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-12, 1e-9), st.floats(1e-12, 1.0)),
            min_size=1,
            max_size=40,
        ).filter(lambda w: any(x > 0 for x in w)),
        extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
        rows=st.booleans(),
    )
    @example(lead=0, trail=0, body=[1.0], extra=[], rows=False)
    @example(lead=0, trail=0, body=[0.5, 0.5], extra=[], rows=False)
    @example(lead=1, trail=1, body=[1.0], extra=[], rows=False)
    @example(lead=0, trail=0, body=[0.2, 0.3, 0.5], extra=[], rows=True)
    def test_guide_table_is_the_binary_search(self, lead, trail, body, extra, rows):
        # Every lookup of the guide table is the clipped searchsorted index,
        # at the boundaries themselves, one ulp to either side of them, at 0
        # and at the largest uniform below 1.
        w = np.array([0.0] * lead + body + [0.0] * trail)
        cum = np.cumsum(w / w.sum())
        u = np.concatenate(
            [[0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 2.0), np.nextafter(cum, -1.0), extra]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        if rows:  # the norm looks up an (r, T) block
            u = np.stack([u, u[::-1]])
        got = inverse_cdf(cum, domain._GUIDE_MIN_LOOKUPS)(u)
        assert got.shape == u.shape
        assert np.array_equal(got, searchsorted_reference(cum, u))
        assert np.array_equal(inverse_cdf(cum, 1)(u), got)


class TestCheckFinite:
    """domain._check_finite, the one place a range message is formatted."""

    @pytest.mark.parametrize(
        "interval, inside, outside",
        [
            ("(0, 1)", [1e-300, 0.5, 0.9999999999999999], [0, 1, -0.5, 1.5]),
            ("(0, 1]", [1e-300, 1], [0, 1.0000000000000002]),
            ("[0, 1)", [0, 0.0, 0.5], [1, -1e-300]),
            ("[0, 1]", [0, 1, np.float64(0.25)], [-1e-300, 1.0000000000000002]),
            ("(0, 1/2)", [0.25, 0.49999999999999994], [0, 0.5, 1]),
            ("(0, 2]", [2, 1e-9], [0, 2.0000000000000004]),
        ],
    )
    def test_each_bracket_form_keeps_or_drops_its_ends(self, interval, inside, outside):
        for value in inside:
            domain._check_finite("x", value, interval)
        for value in outside:
            with pytest.raises(DomainError, match=rf"^x must be in {re.escape(interval)}, got {value}$"):
                domain._check_finite("x", value, interval)

    def test_a_fractional_end_is_parsed_exactly_and_once(self):
        assert domain._interval_ends("(0, 1/2)") == (0.0, 0.5, False, False)
        assert domain._interval_ends("[1/4, 3]") == (0.25, 3.0, True, True)
        assert domain._interval_ends("(0, 1/2)") is domain._interval_ends("(0, 1/2)")

    def test_the_message_shows_the_value_as_the_range_checks_did(self):
        with pytest.raises(DomainError, match=r"^eps must be in \(0, 1\], got 7$"):
            domain._check_finite("eps", 7, "(0, 1]")
        with pytest.raises(DomainError, match=r"^delta must be in \(0, 1\), got 0.0$"):
            domain._check_finite("delta", 0.0, "(0, 1)")

    @pytest.mark.parametrize("value", [True, False, "0.5", float("nan"), float("inf"), -float("inf"), None])
    @pytest.mark.parametrize("interval", [None, "(0, 1)", "[0, 1]"])
    def test_bools_strings_and_non_finite_values_fail_the_finite_check_first(self, value, interval):
        with pytest.raises(DomainError, match=rf"^x must be a finite number, got {re.escape(repr(value))}$"):
            domain._check_finite("x", value, interval)

    def test_without_an_interval_any_finite_number_passes(self):
        for value in (-1e300, 0, 7, np.float32(2.5), np.int64(-3)):
            domain._check_finite("x", value)
