"""Tests for bucket construction, exact flattening, and flattened sample views."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augtest import domain
from augtest.domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    l2_norm_sq,
    marginal,
    tv_distance,
)
from augtest.flattening import (
    AxisFlattening,
    FlatView,
    ProductFlattening,
    build_axis_flattening,
    flatten_distribution_explicit,
    flattened_axis_view,
    flattened_joint_view,
    flattened_product_view,
)


def random_dist(dims, gen):
    return JointDistribution(dims, gen.dirichlet(np.ones(math.prod(dims))))


def law(data, size, label):
    """A law on [size] from nonnegative integer weights, at least one positive."""
    w = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size), label=label)
    w[data.draw(st.integers(0, size - 1), label=f"{label} positive cell")] += 1
    return np.array(w, dtype=np.float64) / sum(w)


class TestAxisFlattening:
    def test_layout(self):
        f = AxisFlattening([4, 1, 2])
        assert f.base_size == 3
        assert f.flat_size == 7
        assert np.array_equal(f.offsets, [0, 4, 5])

    def test_bucket_validation(self):
        with pytest.raises(DomainError):
            AxisFlattening([2, 0])
        with pytest.raises(DomainError):
            AxisFlattening([])
        # int64 would truncate these to [1, 2]
        for buckets in ([1.5, 2], np.array([True, True])):
            with pytest.raises(DomainError, match="bucket counts must be integers"):
                AxisFlattening(buckets)
        assert np.array_equal(AxisFlattening(np.array([3, 1], dtype=np.uint8)).buckets, [3, 1])

    def test_build_rule_hand_case(self):
        # floor(q/nu) + N + 1 with nu = 1/3: floor(1.5)=1, floor(0.9)=0, floor(0.6)=0
        f = build_axis_flattening([0.5, 0.3, 0.2], [2, 0, 1])
        assert np.array_equal(f.buckets, [4, 1, 2])

    def test_build_default_nu_is_one_over_n(self):
        f = build_axis_flattening([0.25] * 4, [0] * 4)
        assert np.array_equal(f.buckets, [2, 2, 2, 2])  # floor(4 * 0.25) + 0 + 1

    def test_exact_multiples_of_nu_are_not_floored_down(self):
        # 0.2/(1/5) is exactly 1 up to float representation
        f = build_axis_flattening([0.2, 0.2, 0.2, 0.2, 0.2], [0] * 5)
        assert np.array_equal(f.buckets, [2, 2, 2, 2, 2])

    def test_build_errors(self):
        with pytest.raises(DomainError):
            build_axis_flattening([0.5, 0.5], [0])
        with pytest.raises(DomainError):
            build_axis_flattening([-0.1, 1.1], [0, 0])
        with pytest.raises(DomainError):
            build_axis_flattening([0.5, 0.5], [-1, 0])
        # int64 would truncate these to [1, 0]
        with pytest.raises(DomainError, match=r"counts must be integers, got \[1.7, 0.2\]"):
            build_axis_flattening([0.5, 0.5], [1.7, 0.2])
        assert np.array_equal(build_axis_flattening([0.5, 0.5], np.array([2, 0], dtype=np.uint64)).buckets, [4, 2])

    def test_empty_axis_is_rejected_by_value(self):
        # not a bare ZeroDivisionError from nu = 1/0
        with pytest.raises(DomainError, match=r"at least one cell, got marginal \[\]"):
            build_axis_flattening([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_marginal_is_rejected_by_name(self, bad):
        # not "every symbol needs at least one bucket" after a cast warning
        with pytest.raises(DomainError, match="predicted marginal has non-finite entries"):
            build_axis_flattening([bad, 0.5], [0, 0])

    def test_flat_size_bound(self):
        gen = Rng(1).gen
        for _ in range(50):
            n = int(gen.integers(2, 30))
            q = gen.dirichlet(np.ones(n))
            counts = gen.integers(0, 5, size=n)
            f = build_axis_flattening(q, counts)
            assert f.flat_size <= n + n + counts.sum()  # 1/nu = n


class TestProductFlattening:
    def test_dims(self):
        pf = ProductFlattening([AxisFlattening([2, 1]), AxisFlattening([1, 3])])
        assert pf.base_dims == (2, 2)
        assert pf.flat_dims == (3, 4)
        assert pf.flat_size == 12
        assert pf.arity == 2


class TestExplicitFlattening:
    def test_mass_is_split_evenly(self):
        p = JointDistribution.from_table([[0.6, 0.4], [0.0, 0.0]])
        pf = ProductFlattening([AxisFlattening([2, 1]), AxisFlattening([1, 2])])
        flat = flatten_distribution_explicit(p, pf)
        assert flat.dims == (3, 3)
        # cell (0,0): 0.6 over 2x1 buckets; cell (0,1): 0.4 over 2x2 buckets
        expect = np.array(
            [
                [0.3, 0.1, 0.1],
                [0.3, 0.1, 0.1],
                [0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(flat.table(), expect, atol=1e-15)

    def test_preserves_tv_under_shared_buckets(self):
        gen = Rng(2).gen
        for _ in range(200):
            n = int(gen.integers(2, 21))
            p = JointDistribution((n, 2), gen.dirichlet(np.ones(2 * n)))
            q = JointDistribution((n, 2), gen.dirichlet(np.ones(2 * n)))
            pf = ProductFlattening(
                [AxisFlattening(gen.integers(1, 5, size=n)), AxisFlattening(gen.integers(1, 5, size=2))]
            )
            assert abs(
                tv_distance(flatten_distribution_explicit(p, pf), flatten_distribution_explicit(q, pf))
                - tv_distance(p, q)
            ) <= 1e-12

    def test_shrinks_l2_norm(self):
        gen = Rng(3).gen
        p = random_dist((6, 4), gen)
        pf = ProductFlattening(
            [AxisFlattening(gen.integers(1, 4, size=6)), AxisFlattening(gen.integers(1, 4, size=4))]
        )
        assert l2_norm_sq(flatten_distribution_explicit(p, pf)) <= l2_norm_sq(p) + 1e-15

    def test_factorizes_products(self):
        gen = Rng(4).gen
        a, b = gen.dirichlet(np.ones(5)), gen.dirichlet(np.ones(3))
        p = JointDistribution.from_table(np.outer(a, b))
        fa = AxisFlattening(gen.integers(1, 4, size=5))
        fb = AxisFlattening(gen.integers(1, 4, size=3))
        flat = flatten_distribution_explicit(p, ProductFlattening([fa, fb]))
        flat_a = np.repeat(a / fa.buckets, fa.buckets)
        flat_b = np.repeat(b / fb.buckets, fb.buckets)
        assert np.allclose(flat.table(), np.outer(flat_a, flat_b), atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flattening_preserves_tv_and_products(self, data):
        """Shared buckets keep tv exactly, and the flattening of a product law is
        the product of the flattened axis laws."""
        dims = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3), label="dims")
        buckets = [
            data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label=f"buckets {a}")
            for a, n in enumerate(dims)
        ]
        pf = ProductFlattening([AxisFlattening(b) for b in buckets])
        size = math.prod(dims)
        p = JointDistribution(dims, law(data, size, "p"))
        q = JointDistribution(dims, law(data, size, "q"))
        flat_p, flat_q = flatten_distribution_explicit(p, pf), flatten_distribution_explicit(q, pf)
        assert abs(tv_distance(flat_p, flat_q) - tv_distance(p, q)) <= 1e-12

        axes = [law(data, n, f"axis {a}") for a, n in enumerate(dims)]
        product = JointDistribution(dims, math.prod(np.ix_(*axes)).reshape(-1))
        flat_axes = [np.repeat(w / f.buckets, f.buckets) for w, f in zip(axes, pf.axes)]
        flat = flatten_distribution_explicit(product, pf)
        assert np.abs(flat.table() - math.prod(np.ix_(*flat_axes))).max() <= 1e-15

    def test_expected_norm_formula(self):
        p = JointDistribution.from_table([[0.5, 0.25], [0.25, 0.0]])
        pf = ProductFlattening([AxisFlattening([2, 1]), AxisFlattening([1, 2])])
        # sum p(x)^2 / (b_row * b_col)
        expect = 0.25 / (2 * 1) + 0.0625 / (2 * 2) + 0.0625 / (1 * 1)
        assert l2_norm_sq(flatten_distribution_explicit(p, pf)) == pytest.approx(expect, abs=1e-15)

    def test_dims_mismatch(self):
        p = JointDistribution.uniform((2, 2))
        pf = ProductFlattening([AxisFlattening([1, 1, 1]), AxisFlattening([1, 1])])
        with pytest.raises(DomainError):
            flatten_distribution_explicit(p, pf)


class OpaqueSampler:
    """Sample access with no explicit law, so views built on it are draw-only."""

    def __init__(self, p):
        self.dims = p.dims
        self._p = p

    def draw(self, count, rng):
        return JointSampler(self._p).draw(count, rng)


class TestSampleFlattening:
    """Draw-only joint views: each row's sub-bucket is drawn fresh inside its symbol's buckets."""

    def test_identity_when_single_buckets(self):
        p = random_dist((3, 2), Rng(5).gen)
        pf = ProductFlattening([AxisFlattening([1, 1, 1]), AxisFlattening([1, 1])])
        rows = JointSampler(p).draw(50, Rng(6, (0,)))
        expect = np.ravel_multi_index(tuple(rows.T), p.dims)
        assert np.array_equal(flattened_joint_view(OpaqueSampler(p), pf).draw(50, Rng(6)), expect)

    def test_rows_land_in_owned_buckets(self):
        gen = Rng(6).gen
        p = random_dist((4, 3), gen)
        pf = ProductFlattening(
            [AxisFlattening(gen.integers(1, 5, size=4)), AxisFlattening(gen.integers(1, 5, size=3))]
        )
        rows = JointSampler(p).draw(500, Rng(7, (0,)))
        flat = np.unravel_index(flattened_joint_view(OpaqueSampler(p), pf).draw(500, Rng(7)), pf.flat_dims)
        for ax, f in enumerate(pf.axes):
            lo = f.offsets[rows[:, ax]]
            hi = lo + f.buckets[rows[:, ax]]
            assert np.all((flat[ax] >= lo) & (flat[ax] < hi))

    def test_flattened_law_matches_explicit(self):
        # empirical tv between flattened draws and the exact flattened law
        gen = Rng(8).gen
        p = random_dist((3, 3), gen)
        pf = ProductFlattening(
            [AxisFlattening(gen.integers(1, 4, size=3)), AxisFlattening(gen.integers(1, 4, size=3))]
        )
        target = flatten_distribution_explicit(p, pf)
        idx = flattened_joint_view(OpaqueSampler(p), pf).draw(60000, Rng(9))
        emp = np.bincount(idx, minlength=target.probs.size) / 60000
        assert 0.5 * np.abs(emp - target.probs).sum() < 0.02

    def test_stream_layout(self):
        # group i of a view draws its joint rows from rng.split(2i) and their
        # sub-buckets, axis by axis, from rng.split(2i + 1)
        gen = Rng(10).gen
        p = random_dist((4, 3, 2), gen)
        pf = ProductFlattening([AxisFlattening(gen.integers(1, 4, size=n)) for n in p.dims])
        opaque = OpaqueSampler(p)

        def recompute(groups, count, rng):
            cols = []
            for i, group in enumerate(groups):
                rows = JointSampler(p).draw(count, rng.split(2 * i))
                sub = rng.split(2 * i + 1).gen
                for a in group:
                    f = pf.axes[a]
                    cols.append(f.offsets[rows[:, a]] + sub.integers(0, f.buckets[rows[:, a]]))
            return np.ravel_multi_index(tuple(cols), [pf.flat_dims[a] for g in groups for a in g])

        views = [
            (flattened_axis_view(opaque, 1, pf), [[1]]),
            (flattened_joint_view(opaque, pf), [[0, 1, 2]]),
            (flattened_product_view(opaque, pf, [None] * 3), [[0], [1], [2]]),
        ]
        for view, groups in views:
            assert view.probs is None
            assert view.cost == len(groups)
            assert np.array_equal(view.draw(400, Rng(11, (3,))), recompute(groups, 400, Rng(11, (3,))))


class TestFlatViews:
    def setup_method(self):
        gen = Rng(12).gen
        self.p = random_dist((4, 3), gen)
        self.sampler = JointSampler(self.p)
        self.pf = ProductFlattening(
            [AxisFlattening(gen.integers(1, 4, size=4)), AxisFlattening(gen.integers(1, 4, size=3))]
        )

    def test_axis_view_probs(self):
        f = self.pf.axes[0]
        view = flattened_axis_view(self.sampler, 0, self.pf)
        marg = marginal(self.p, [0]).probs
        assert view.size == f.flat_size
        assert view.cost == 1
        assert np.allclose(view.probs, np.repeat(marg / f.buckets, f.buckets), atol=1e-15)
        assert view.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_view_probs(self):
        view = flattened_joint_view(self.sampler, self.pf)
        assert view.size == self.pf.flat_size
        assert view.cost == 1
        assert np.allclose(view.probs, flatten_distribution_explicit(self.p, self.pf).probs)

    def axis_laws(self, sampler):
        return [flattened_axis_view(sampler, ax, self.pf).probs for ax in range(self.pf.arity)]

    def test_product_view_probs(self):
        view = flattened_product_view(self.sampler, self.pf, self.axis_laws(self.sampler))
        assert view.cost == 2  # one joint draw per axis
        m0 = np.repeat(marginal(self.p, [0]).probs / self.pf.axes[0].buckets, self.pf.axes[0].buckets)
        m1 = np.repeat(marginal(self.p, [1]).probs / self.pf.axes[1].buckets, self.pf.axes[1].buckets)
        assert np.allclose(view.probs, np.outer(m0, m1).reshape(-1), atol=1e-15)

    def test_product_view_takes_the_axis_view_laws(self):
        # the law is built from the laws passed in, not recomputed from the sampler
        laws = [Rng(16).gen.dirichlet(np.ones(f.flat_size)) for f in self.pf.axes]
        shared = flattened_product_view(self.sampler, self.pf, laws)
        outer = np.outer(laws[0], laws[1]).reshape(-1)
        assert np.array_equal(shared.probs, outer / outer.sum())

    def test_product_view_normalizes_unnormalized_axis_laws(self):
        laws = [np.arange(1.0, f.flat_size + 1) for f in self.pf.axes]
        view = flattened_product_view(self.sampler, self.pf, laws)
        assert view.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_product_view_needs_one_law_per_axis(self):
        # one law of a 2-axis flattening would otherwise give a view over
        # every flat cell holding a law of only the first axis's cells
        law = self.axis_laws(self.sampler)[0]
        with pytest.raises(DomainError, match="a product view of 2 axes needs as many axis laws, got 1"):
            flattened_product_view(self.sampler, self.pf, [law])
        with pytest.raises(DomainError, match="got 3"):
            flattened_product_view(self.sampler, self.pf, [law, law, law])

    @pytest.mark.parametrize(
        "axis, message",
        [
            (5, "axis 5 out of range for arity 2"),
            (1.5, "axis must be a non-negative integer, got 1.5"),
            (-1, "got -1"),
            (True, "got True"),
        ],
    )
    def test_axis_view_reads_its_axis_by_value(self, axis, message):
        with pytest.raises(DomainError, match=message):
            flattened_axis_view(self.sampler, axis, self.pf)

    @pytest.mark.parametrize(
        "size, probs, message",
        [
            (3, [0.5, 0.5], "a view over 3 cells needs a law of as many entries .* got 2 entries summing to 1.0"),
            (2, [0.0, 0.0], "got 2 entries summing to 0.0"),
            (2, [np.nan, 1.0], "summing to nan"),
            (2, [np.inf, 1.0], "summing to inf"),
            (2, [-1.0, 0.5], "summing to -0.5"),
        ],
    )
    def test_a_view_rejects_a_law_that_does_not_fit_it(self, size, probs, message):
        with pytest.raises(DomainError, match=message):
            FlatView(size, np.array(probs), 1, lambda count, rng: None)
        assert FlatView(size, None, 1, lambda count, rng: None).probs is None

    @pytest.mark.parametrize("probs", [[-1.0, 2.0], [0.5, -0.0001, 0.5001]])
    def test_from_law_rejects_negative_entries(self, probs):
        # their sum is positive, so only the per-entry check sees them
        with pytest.raises(DomainError, match="a view's law has negative entries"):
            FlatView.from_law(probs)

    def test_from_law_rejects_a_law_of_zero_mass(self):
        with pytest.raises(DomainError, match="summing to 0.0"):
            FlatView.from_law([0, 0])

    def test_a_view_rebuilds_its_map_once_for_a_guide(self, monkeypatch):
        # 20,000 cells take a guide from 2,048 keys in no order and from
        # 2,500 in sorted rows (1/8 per cell): the first call that expects as
        # many rebuilds the kept map with one.
        built, guide_table = [], domain._guide_table
        monkeypatch.setattr(domain, "_guide_table", lambda cum, *limit: built.append(cum) or guide_table(cum, *limit))
        view = FlatView.from_law(np.full(20_000, 1.0))
        first = view.inverse_cdf(1_000)
        assert view.inverse_cdf(2_047) is first and view.inverse_cdf(2_499, sorted_rows=True) is first and not built
        guided = view.inverse_cdf(2_500, sorted_rows=True)
        assert guided is not first and guided.guided and len(built) == 1 and built[0] is view._cum
        assert view.inverse_cdf(10) is guided and view.inverse_cdf(10**6) is guided and len(built) == 1
        u = Rng(43).gen.random(1000)
        assert np.array_equal(guided(u), first(u))

    def test_a_table_too_crowded_for_sorted_rows_is_guided_for_unsorted_keys(self, monkeypatch):
        # Every other run of 5 cells has zero mass: sorted rows keep binary
        # search and do not retry it; the first call with enough unsorted
        # keys rebuilds the map once, with the guide.
        built, guide_table = [], domain._guide_table
        monkeypatch.setattr(domain, "_guide_table", lambda cum, *limit: built.append(cum) or guide_table(cum, *limit))
        view = FlatView.from_law(np.where(np.arange(20_000) // 5 % 2 == 0, 1.0, 0.0))
        rows = view.inverse_cdf(4_000, sorted_rows=True)
        assert not rows.guided and len(built) == 1
        assert view.inverse_cdf(8_000, sorted_rows=True) is rows and len(built) == 1
        guided = view.inverse_cdf(2_048)
        assert guided.guided and len(built) == 2
        assert view.inverse_cdf(8_000, sorted_rows=True) is guided and view.inverse_cdf(10**6) is guided
        u = Rng(47).gen.random(1000)
        assert np.array_equal(guided(u), rows(u))

    def test_views_without_explicit_law(self):
        opaque = OpaqueSampler(self.p)
        assert flattened_axis_view(opaque, 0, self.pf).probs is None
        assert flattened_product_view(opaque, self.pf, self.axis_laws(opaque)).probs is None
        assert flattened_product_view(self.sampler, self.pf, [self.axis_laws(self.sampler)[0], None]).probs is None
        view = flattened_joint_view(opaque, self.pf)
        assert view.probs is None
        draws = view.draw(100, Rng(13))
        assert draws.shape == (100,)
        assert np.all((draws >= 0) & (draws < self.pf.flat_size))

    def test_axis_view_draw_law(self):
        f = self.pf.axes[1]
        view = flattened_axis_view(self.sampler, 1, self.pf)
        draws = view.draw(60000, Rng(14))
        emp = np.bincount(draws, minlength=f.flat_size) / 60000
        assert 0.5 * np.abs(emp - view.probs).sum() < 0.02

    def test_product_view_draw_law(self):
        view = flattened_product_view(self.sampler, self.pf, self.axis_laws(self.sampler))
        draws = view.draw(60000, Rng(15))
        emp = np.bincount(draws, minlength=view.size) / 60000
        assert 0.5 * np.abs(emp - view.probs).sum() < 0.03
