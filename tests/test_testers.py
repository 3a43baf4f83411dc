"""Tests for the tester pipeline: gates, partition, learning, amplification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augtest import domain, estimators, flattening, testers
from augtest.bench import ExperimentConfig, run_single_trial, wilson_interval
from augtest.domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    SampleAccount,
    marginal,
    merge_axes,
    merge_index,
    product_of_marginals,
    tv_to_own_product,
)
from augtest.estimators import EstimatorConfig, _norm_batch, closeness_params, repetitions
from augtest.testers import (
    Outcome,
    ReindexedSampler,
    TesterConfig,
    TesterHooks,
    Verdict,
    _run_at_delta,
    _Plan,
    _plan,
    amplify,
    aug_independence_2d,
    aug_independence_3d,
    aug_independence_d,
    partition_coordinates,
)
from augtest.testers import test_independence_by_learning as learning_tester


def scripted_hooks(poisson_vals, norm_vals, closeness_ok=True, calls=None):
    """Hooks that return pre-scripted values and optionally record call order."""
    pq, nq = list(poisson_vals), list(norm_vals)

    def fake_poisson(mean, rng):
        if calls is not None:
            calls.append(("poisson", mean))
        return pq.pop(0)

    def fake_norm(view, size, delta, est, rng, account=None, stage="norm"):
        if calls is not None:
            calls.append(("norm", size, delta))
        return nq.pop(0)

    def fake_closeness(view, size, b, eps, delta, est, rng, account=None):
        if calls is not None:
            calls.append(("closeness", size, b, eps, delta))
        return closeness_ok

    return TesterHooks(poisson=fake_poisson, norm=fake_norm, closeness=fake_closeness)


def measured_bound(norms, M):
    """clip(min(2 joint, prod 2 marg), 1/M, 1) from the norms in call order
    (the marginals', then the joint's): the bound closeness runs at."""
    *margs, joint = norms
    return min(max(min(2 * joint, math.prod(2 * m for m in margs)), 1 / M), 1.0)


class TestConfigAndGates:
    def test_profile_table(self):
        # (norm gate, Poisson cap) of each profile on two and three axes
        def gates(profile, dims):
            plan = _plan(dims, TesterConfig(0.3, 0.1, profile=profile))
            return plan.gate, plan.cap

        assert gates("theory", (5, 4)) == (120.0, 160.0)
        assert gates("practical", (5, 4)) == (6.0, 8.0)
        assert gates("theory", (5, 4, 3)) == (180.0, 240.0)
        assert gates("practical", (5, 4, 3)) == (9.0, 12.0)

    def test_unknown_profile(self):
        with pytest.raises(DomainError):
            TesterConfig(0.3, 0.1, profile="exotic").validate()

    def test_validate_ranges(self):
        with pytest.raises(DomainError):
            TesterConfig(0.0, 0.1).validate()
        with pytest.raises(DomainError):
            TesterConfig(1.5, 0.1).validate()
        with pytest.raises(DomainError):
            TesterConfig(0.3, -0.1).validate()
        with pytest.raises(DomainError):
            TesterConfig(0.3, 1.1).validate()
        TesterConfig(1.0, 0.0).validate()
        TesterConfig(0.3, 1.0).validate()

    @pytest.mark.parametrize(
        "eps, alpha, name", [(True, 0.1, "eps"), ("0.3", 0.1, "eps"), (0.3, True, "alpha"), (0.3, "x", "alpha")]
    )
    def test_validate_rejects_a_bool_or_a_string_by_name(self, eps, alpha, name):
        # True would otherwise run at 1, and a string raise a TypeError from the comparison
        with pytest.raises(DomainError, match=f"{name} must be a finite number"):
            TesterConfig(eps, alpha).validate()


class TestSamplerViews:
    """ReindexedSampler: coordinate i is the row-major merge of base axes blocks[i]."""

    def check(self, dims, blocks, law):
        p = JointDistribution(dims, Rng(0).gen.dirichlet(np.ones(math.prod(dims))))
        base = JointSampler(p)
        s = ReindexedSampler(base, blocks)
        assert s.dims == law(p).dims
        assert np.array_equal(s.dist.probs, law(p).probs)
        rows = s.draw(50, Rng(1))
        assert np.array_equal(rows, merge_index(base.draw(50, Rng(1)), dims, blocks))
        assert all(rows[:, i].max() < n for i, n in enumerate(s.dims))

    def test_permuted(self):
        self.check((2, 3), [[1], [0]], lambda p: merge_axes(p, [[1], [0]]))

    def test_draw_relabels_through_the_blocks_init_checked(self, monkeypatch):
        base = JointSampler(JointDistribution.uniform((2, 3, 2)))
        s = ReindexedSampler(base, [[2, 0], [1]])
        expected = s.draw(20, Rng(2))

        def no_check(*args):
            raise AssertionError("draw re-checked its blocks")

        monkeypatch.setattr(domain, "_check_blocks", no_check)
        assert np.array_equal(s.draw(20, Rng(2)), expected)

    def test_grouped(self):
        self.check((2, 3, 2), [[0], [1, 2]], lambda p: merge_axes(p, [[0], [1, 2]]))
        self.check((2, 3, 2, 3), [[3], [2, 0], [1]], lambda p: merge_axes(p, [[3], [2, 0], [1]]))

    def test_projected(self):
        self.check((2, 3, 4), [[2], [0]], lambda p: marginal(p, [2, 0]))


class TestGateLogic:
    """Scripted-hook runs pin the branch structure of the shared pipeline."""

    CFG = TesterConfig(eps=0.4, alpha=0.05, profile="theory")
    # Scripted Poisson draws of 5 flatten (20, 10) to 45 x 25 = 1,125 cells,
    # in closeness's top band (C = 3.5): the joint norm costs 11 * 136 =
    # 1,496 samples, and on a product bound b it saves
    # 3.5 * 1125 * (1 - 1/sqrt(2)) * sqrt(b) / .4^2 ~ 7,208 sqrt(b), so the
    # rule draws it from b ~ 0.0431 up. Marginal norms of 0.1 and 0.2 put b
    # at 0.08, where it is drawn; 0.1 and 0.1 at 0.04, where it is not.
    DRAWN = [0.1, 0.2]
    SKIPPED = [0.1, 0.1]

    def run(self, hooks, dims=(20, 10)):
        p = JointDistribution.uniform(dims)
        fn = aug_independence_2d if len(dims) == 2 else aug_independence_3d
        return fn(JointSampler(p), p, self.CFG, Rng(5), hooks)

    def s_and_tau(self, dims=(20, 10)):
        n1, rest = dims[0], math.prod(dims[1:])
        a, e = self.CFG.alpha, self.CFG.eps
        s = [max(1.0, min(n1 ** (2 / 3) * rest ** (1 / 3) * a ** (1 / 3) / e ** (4 / 3), n1 * a))]
        s += [max(1.0, d * a) for d in dims[1:]]
        tau = [2 * a / s[l] + 4 / dims[l] for l in range(len(dims))]
        return s, tau

    def test_poisson_cap_reject(self):
        s, _ = self.s_and_tau()
        hooks = scripted_hooks([int(160 * s[0]) + 1, 1], [])
        v = self.run(hooks)
        assert v.outcome is Outcome.REJECT
        assert v.stage == "poisson_cap"
        assert v.stage_log == ["poisson_cap"]

    def test_poisson_cap_boundary_passes(self):
        # the cap check is strictly greater-than: exactly c' * s survives
        s, tau = self.s_and_tau()
        cap_hit = [math.floor(160 * s[0]), math.floor(160 * s[1])]
        assert cap_hit[0] <= 160 * s[0] and cap_hit[1] <= 160 * s[1]
        hooks = scripted_hooks(cap_hit, [0.0, 0.0, 0.0])
        v = self.run(hooks)
        assert v.stage == "closeness"
        assert v.outcome is Outcome.ACCEPT

    def test_norm_gate_inaccurate(self):
        _, tau = self.s_and_tau()
        hooks = scripted_hooks([5, 5], [120 * tau[0] + 1e-9, 0.0])
        v = self.run(hooks)
        assert v.outcome is Outcome.INACCURATE
        assert v.stage == "norm_gate"
        assert v.stage_log == ["poisson_cap", "flattening", "norm_gate"]

    def test_norm_gate_second_axis(self):
        _, tau = self.s_and_tau()
        hooks = scripted_hooks([5, 5], [0.0, 120 * tau[1] * 1.0001])
        v = self.run(hooks)
        assert v.outcome is Outcome.INACCURATE

    def test_norm_gate_boundary_passes(self):
        _, tau = self.s_and_tau()
        hooks = scripted_hooks([5, 5], [120 * tau[0], 120 * tau[1], 0.0])
        v = self.run(hooks)
        assert v.stage == "closeness"

    def test_joint_norm_reject(self):
        _, tau = self.s_and_tau()
        limit = 10 * 120 * 120 * tau[0] * tau[1]
        hooks = scripted_hooks([5, 5], self.DRAWN + [limit * 1.0001])
        v = self.run(hooks)
        assert v.outcome is Outcome.REJECT
        assert v.stage == "joint_norm"
        assert v.stage_log == ["poisson_cap", "flattening", "norm_gate", "joint_norm"]

    def test_joint_norm_boundary_passes(self):
        _, tau = self.s_and_tau()
        limit = 10 * 120 * 120 * tau[0] * tau[1]
        hooks = scripted_hooks([5, 5], self.DRAWN + [limit])
        v = self.run(hooks)
        assert v.stage_log[-2:] == ["joint_norm", "closeness"]

    def test_closeness_decides(self):
        hooks_ok = scripted_hooks([5, 5], self.DRAWN + [0.0], closeness_ok=True)
        hooks_bad = scripted_hooks([5, 5], self.DRAWN + [0.0], closeness_ok=False)
        assert self.run(hooks_ok).outcome is Outcome.ACCEPT
        assert self.run(hooks_bad).outcome is Outcome.REJECT
        v = self.run(scripted_hooks([5, 5], self.DRAWN + [0.0]))
        assert v.stage_log == ["poisson_cap", "flattening", "norm_gate", "joint_norm", "closeness"]
        v = self.run(scripted_hooks([5, 5], self.SKIPPED, closeness_ok=False))
        assert v.outcome is Outcome.REJECT
        assert v.stage_log == ["poisson_cap", "flattening", "norm_gate", "closeness"]

    def test_closeness_call_parameters(self):
        calls = []
        v = self.run(scripted_hooks([5, 5], [0.0, 0.0, 0.0], calls=calls))
        kind, size, b, eps, delta = calls[-1]
        assert kind == "closeness"
        assert size == math.prod(v.detail["flat_dims"])
        assert b == measured_bound([0.0, 0.0, 0.0], size)
        assert eps == self.CFG.eps
        assert delta == 1.0 / 80.0

    def test_each_flattened_marginal_is_computed_once(self, monkeypatch):
        # the axis views compute them; closeness on two axes needs none
        axes = []
        inner = flattening.marginal

        def counting(p, ax):
            axes.append(tuple(ax))
            return inner(p, ax)

        monkeypatch.setattr(flattening, "marginal", counting)
        v = self.run(scripted_hooks([5, 5], [0.0, 0.0, 0.0]))
        assert v.stage == "closeness"
        assert sorted(axes) == [(0,), (1,)]

    def test_joint_view_builds_its_sampling_map_once(self, monkeypatch):
        # On uniform (300, 60) with the exact prediction at eps .18 the rule
        # draws the joint norm (at Rng(3) it saves 1.8 times its cost). Its
        # 11 batches of T = 4 * ceil(sqrt(M)) look up about 12,400 symbols in
        # sorted rows, enough for a guide table on about 79,500 cells; the
        # norm builds it and closeness's batch of the joint view, below one
        # sample a cell, reads that same map, with no rebuild.
        p = JointDistribution.uniform((300, 60))
        guides, lookups, joint_views, tables = [], [], [], []
        guide_table, view_map = domain._guide_table, flattening.FlatView.inverse_cdf
        joint_view, kernel = testers.flattened_joint_view, estimators._poissonized_counts

        def counting_guide(cum, *limit):
            guides.append(cum)
            return guide_table(cum, *limit)

        def recording_map(view, n, sorted_rows=False):
            lookups.append((view, n, sorted_rows))
            return view_map(view, n, sorted_rows)

        def recording_joint_view(*args):
            joint_views.append(joint_view(*args))
            return joint_views[-1]

        def recording_counts(view, lam, rng):
            counts = kernel(view, lam, rng)
            tables.append((view, view._map))
            return counts

        monkeypatch.setattr(domain, "_guide_table", counting_guide)
        monkeypatch.setattr(flattening.FlatView, "inverse_cdf", recording_map)
        monkeypatch.setattr(testers, "flattened_joint_view", recording_joint_view)
        monkeypatch.setattr(estimators, "_poissonized_counts", recording_counts)
        v = aug_independence_2d(JointSampler(p), p, TesterConfig(eps=0.18, alpha=0.1), Rng(3))
        assert v.outcome is Outcome.ACCEPT and v.stage_log[-2:] == ["joint_norm", "closeness"]
        (joint,) = joint_views
        joint_lookups = [(n, rows) for view, n, rows in lookups if view is joint]
        # The joint norm in sorted rows, then closeness's batch of the joint
        # view, unsorted, at its one lookup count.
        (norm_lookups, norm_rows), *closeness_lookups = joint_lookups
        assert norm_rows and not any(rows for _, rows in closeness_lookups)
        assert len(closeness_lookups) == sum(view is joint for view, _ in tables) >= 1
        assert len(set(closeness_lookups)) == 1
        T = 4 * math.ceil(math.sqrt(joint.size))
        assert domain._GUIDE_MIN_LOOKUPS <= norm_lookups == 11 * T
        assert norm_lookups >= domain._GUIDE_MIN_LOOKUPS_PER_CELL_SORTED * joint.size
        # the trade's cost is what the joint norm drew, and it paid
        assert v.detail["joint_norm_cost"] == norm_lookups < v.detail["joint_norm_saving"]
        # One guide, over the joint view's table: two axes build no product view.
        assert len(guides) == 1
        assert guides[0] is joint._cum
        joint_tables = [table for view, table in tables if view is joint]
        assert joint_tables and all(table is joint._map and table.guided for table in joint_tables)
        cum = np.cumsum(joint.probs)
        u = np.concatenate([Rng(4).gen.random(200_000), cum[:-1], np.nextafter(cum[:-1], 0), [0.0]])
        assert np.array_equal(joint_tables[0](u), domain.inverse_cdf(cum, 1)(u))

    def test_a_closeness_chunk_builds_one_map_and_at_most_one_guide_per_view(self, monkeypatch):
        # A 20-trial chunk of the uniform (100, 20) config at eps .4: every
        # view's map is built once, whatever its flat size, and its guide at
        # most once. The rule skips the joint norm on every trial of this
        # config, so the norm stage is the two marginal norms alone and
        # closeness's unsorted keys build each joint view's map, once.
        maps, guides, normed = [], [], []
        view_map, guide_table = flattening.inverse_cdf, domain._guide_table
        monkeypatch.setattr(flattening, "inverse_cdf", lambda cum, *a: maps.append(cum) or view_map(cum, *a))
        monkeypatch.setattr(domain, "_guide_table", lambda cum, *a: guides.append(cum) or guide_table(cum, *a))
        norm = testers._DEFAULT_HOOKS.norm

        def recording_norm(view, size, delta, est, *rest):
            normed.append(_norm_batch(size, est.norm_sample_mult) * repetitions(delta, est) * view.cost)
            return norm(view, size, delta, est, *rest)

        monkeypatch.setattr(testers, "_DEFAULT_HOOKS", TesterHooks(norm=recording_norm))
        cfg = ExperimentConfig(
            tester="2d", trials=20, seed=7 << 20, eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}
        )
        for trial in range(cfg.trials):
            maps.clear()
            guides.clear()
            normed.clear()
            record = run_single_trial(cfg, trial)
            tables = {id(cum): cum.size for cum in maps}
            assert len(tables) == len(maps), "a view rebuilt its map"
            assert guides and len({id(cum) for cum in guides}) == len(guides)
            assert record.stage == "closeness" and len(normed) == 2
            assert record.samples_norm == sum(normed) > 0

    def test_a_hidden_bit_joint_norm_stays_on_binary_search(self, monkeypatch):
        # A hidden-bit joint's flattened law (about 25,000 cells, half of
        # them zero-mass) crowds its buckets: its norm's 7,000 sorted keys
        # want a guide by their count, and binary search is cheaper there
        # (411 against 437 us with a guide, 2-core Xeon), so the map keeps it.
        views, joint_view = [], testers.flattened_joint_view
        monkeypatch.setattr(testers, "flattened_joint_view", lambda *a: views.append(joint_view(*a)) or views[-1])
        instance = {"kind": "hard2d", "n": 200, "m": 20, "k": 10, "alpha": 0.3, "eps": 1 / 192, "force_x": 1}
        cfg = ExperimentConfig(
            tester="2d", trials=1, seed=7 << 20, eps=1 / 192, alpha="exact", alpha_margin=0.01,
            prediction="natural", instance=instance,
        )
        run_single_trial(cfg, 0)
        (joint,) = views
        T = 4 * math.ceil(math.sqrt(joint.size))
        assert joint.size > 20_000 and domain._wants_guide(11 * T, joint.size, sorted_rows=True)
        assert not joint._map.guided

    def test_norm_call_confidences(self):
        calls = []
        self.run(scripted_hooks([5, 5], self.DRAWN + [0.0], calls=calls))
        deltas = [c[2] for c in calls if c[0] == "norm"]
        assert deltas == [1.0 / 120.0] * 3

    def test_detail_records_pipeline_state(self):
        v = self.run(scripted_hooks([5, 5], [0.0, 0.0, 0.0]))
        s, tau = self.s_and_tau()
        assert v.detail["dims"] == (20, 10)
        assert v.detail["s"] == pytest.approx(s)
        assert v.detail["tau"] == pytest.approx(tau)
        assert v.detail["s_hat"] == [5, 5]
        assert len(v.detail["flat_dims"]) == 2

    def test_3d_constants(self):
        # four norm calls at 1/180; the joint batch tests (X, Y) against Z
        # and, when it accepts, the (X, Y) marginal's batch tests X against
        # Y, each at 1/120 and eps/2. The joint batch's product bound takes
        # the smaller of the X and Y norms, since ||p_XY||^2 is at most
        # either; the second batch has no joint norm and runs at the product.
        dims = (6, 5, 4)
        norms = [0.1, 0.05, 0.05, 0.02]
        for accept in (True, False):
            calls = []
            v = self.run(scripted_hooks([3, 3, 3], norms, closeness_ok=accept, calls=calls), dims=dims)
            assert v.outcome is (Outcome.ACCEPT if accept else Outcome.REJECT)
            assert [c[2] for c in calls if c[0] == "norm"] == [1.0 / 180.0] * 4
            batches = [c[1:] for c in calls if c[0] == "closeness"]
            fx, fy, fz = v.detail["flat_dims"]
            grids = [(fx * fy, fz), (fx, fy)]
            assert v.detail["closeness_grids"] == grids[: len(batches)]
            assert len(batches) == (2 if accept else 1)
            assert batches[0] == (fx * fy * fz, measured_bound([0.05, 0.05, 0.02], fx * fy * fz), 0.2, 1 / 120)
            assert (v.detail["closeness_b"], v.detail["closeness_b_source"]) == (batches[0][1], "product")
            if accept:
                assert batches[1] == (fx * fy, measured_bound([0.1, 0.05, math.inf], fx * fy), 0.2, 1 / 120)

    @pytest.mark.parametrize(
        "norms, source",
        [
            ([0.3, 0.3, 0.05], "joint"),  # 2 joint < (2 marg)^2
            ([0.1, 0.2, 0.1], "product"),  # (2 marg)^2 < 2 joint
            ([0.0, 0.0, 0.0], "floor"),  # hooks that return 0: b = 1/M
            ([0.75, 0.5, 0.6], "joint"),  # b = 1.2 > 1: closeness_params clamps it to 1
        ],
    )
    def test_closeness_bound_branches(self, norms, source):
        calls = []
        v = self.run(scripted_hooks([5, 5], norms, calls=calls))
        assert v.stage == "closeness"
        _, size, b, eps, delta = calls[-1]
        want = measured_bound(norms, size)
        assert min(b, 1.0) == want
        assert closeness_params(size, b, eps, EstimatorConfig()) == closeness_params(
            size, want, eps, EstimatorConfig()
        )
        assert v.detail["closeness_b"] == b
        assert v.detail["closeness_b_source"] == source
        # a bound at the floor saves nothing, so the third scripted norm is never read
        assert sum(c[0] == "norm" for c in calls) == (2 if source == "floor" else 3)

    def test_the_trade_of_the_joint_norm_on_both_sides_of_its_boundary(self):
        # On 1,125 cells at eps .4 and delta 1/120 (see DRAWN) the norm costs
        # 11 * 4 * ceil(sqrt(1125)) = 1,496 samples. b = 0.04 saves
        # 3.5 * 1125 * (0.2 - sqrt(0.02)) / 0.16 ~ 1,441.5 of closeness's,
        # b = 0.0441 about 1,513.6.
        cost = 11 * 4 * 34
        plan = _plan((20, 10), self.CFG)
        for norms, b, drawn in ((self.SKIPPED, 0.04, False), ([0.105, 0.105], 0.0441, True)):
            saving = 3.5 * 1125 * (math.sqrt(b) - math.sqrt(b / 2)) / 0.4**2
            got = plan.joint_norm_trade(1125, 1, norms)
            assert got == (cost, pytest.approx(saving, rel=1e-12))
            assert (got[0] < got[1]) is drawn
            # a view whose samples cost 2 joint draws doubles both sides
            assert plan.joint_norm_trade(1125, 2, norms) == (2 * cost, pytest.approx(2 * saving))

    def test_the_trade_of_the_joint_norm_reads_the_clamps_band_and_confidence(self):
        trade = _plan((20, 10), self.CFG).joint_norm_trade
        # b at the 1/M floor, or half of it past the clamp at 1, saves nothing
        assert trade(1125, 1, [0.0, 0.0]) == (1496, 0.0)
        assert trade(1125, 1, [1.0, 1.0]) == (1496, 0.0)
        # b between 1/M and 2/M halves only down to the floor
        b = 1.5 / 1125
        saving = 3.5 * 1125 * (math.sqrt(b) - math.sqrt(1 / 1125)) / 0.16
        assert trade(1125, 1, [b / 2, 0.5])[1] == pytest.approx(saving, rel=1e-12)
        # 100 cells lie in the 50 band (C = 3). Three axes at eps .8 run the
        # first batch at .4 on the (XY, Z) grid, whose norms are
        # min(0.1, 0.1) and 0.1, and each norm at 1/180, which takes 13 batches.
        plan = _plan((6, 5, 4), TesterConfig(0.8, 0.05))
        saving = 3.0 * 100 * (math.sqrt(0.04) - math.sqrt(0.02)) / 0.16
        assert plan.joint_norm_trade(100, 1, [0.1, 0.1, 0.1]) == (13 * 40, pytest.approx(saving, rel=1e-12))
        # a product bound whose batch is past the largest Poisson mean saves
        # without limit, so the norm whose bound may bring it back is drawn
        plan = _plan((20, 10), TesterConfig(1e-9, 0.05))
        assert plan.joint_norm_trade(1125, 1, self.DRAWN) == (1496, math.inf)

    @pytest.mark.parametrize("drawn", [True, False])
    def test_detail_records_the_trade_and_only_a_drawn_joint_norm(self, drawn):
        calls = []
        norms = self.DRAWN if drawn else self.SKIPPED
        v = self.run(scripted_hooks([5, 5], norms + [0.01], calls=calls))
        M = math.prod(v.detail["flat_dims"])
        assert M == 1125
        assert (v.detail["joint_norm_cost"], v.detail["joint_norm_saving"]) == _plan(
            (20, 10), self.CFG
        ).joint_norm_trade(M, 1, norms)
        assert sum(c[0] == "norm" for c in calls) == (3 if drawn else 2)
        assert ("joint_norm" in v.stage_log) is drawn and ("joint_norm" in v.detail) is drawn
        # drawn, the joint bound 2 * 0.01 is the smaller; skipped, the product's 4 * 0.1 * 0.1
        b = 0.02 if drawn else 0.04
        assert calls[-1][2] == pytest.approx(b) and v.detail["closeness_b"] == calls[-1][2]
        assert v.detail["closeness_b_source"] == ("joint" if drawn else "product")

    def test_3d_joint_reject_constant(self):
        dims = (6, 5, 4)
        a, e = 0.05, 0.4
        s1 = max(1.0, min(6 ** (2 / 3) * 20 ** (1 / 3) * a ** (1 / 3) / e ** (4 / 3), 6 * a))
        s = [s1, max(1.0, 5 * a), max(1.0, 4 * a)]
        tau = [2 * a / s[l] + 4 / dims[l] for l in range(3)]
        limit = 6 * 180 ** 3 * math.prod(tau)
        # test_3d_constants' marginal norms, at which the rule draws the joint norm
        v = self.run(scripted_hooks([3, 3, 3], [0.1, 0.05, 0.05, limit * 1.0001]), dims=dims)
        assert v.outcome is Outcome.REJECT and v.stage == "joint_norm"


class TestAxisOrdering:
    def test_axes_sorted_descending_internally(self):
        p = JointDistribution.uniform((4, 12))
        v = aug_independence_2d(
            JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(6),
            scripted_hooks([2, 2], [0.0, 0.0, 0.0]),
        )
        assert v.detail["dims"] == (12, 4)

    def test_orientation_invariance(self):
        # same seed, transposed input: identical verdict by construction
        gen = Rng(7).gen
        t = gen.dirichlet(np.ones(50)).reshape(10, 5)
        p = JointDistribution.from_table(t)
        pt = JointDistribution.from_table(t.T)
        cfg = TesterConfig(0.4, 0.05)
        va = aug_independence_2d(JointSampler(p), p, cfg, Rng(8))
        vb = aug_independence_2d(JointSampler(pt), pt, cfg, Rng(8))
        assert va.outcome is vb.outcome

    def test_dims_mismatch_errors(self):
        p = JointDistribution.uniform((4, 4))
        q = JointDistribution.uniform((4, 5))
        with pytest.raises(DomainError):
            aug_independence_2d(JointSampler(p), q, TesterConfig(0.4, 0.05), Rng(9))
        with pytest.raises(DomainError):
            aug_independence_3d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(9))


class TestPartition:
    def test_two_block_when_first_axis_dominates(self):
        assert partition_coordinates([16, 2, 2]) == [[0], [1, 2]]

    @pytest.mark.parametrize(
        "dims, blocks",
        [
            ((2, 2, 2, 2, 2), [[0], [1, 2], [3, 4]]),
            # B stops once n_1 * prod(B) reaches sqrt(N): 4 * 4 = sqrt(256),
            # so B = [1] has size 4, not 16
            ((4, 4, 4, 4), [[0], [1], [2, 3]]),
            ((16,) * 4, [[0], [1], [2, 3]]),
        ],
    )
    def test_three_blocks_balanced(self, dims, blocks):
        assert partition_coordinates(dims) == blocks

    def test_block_products_bounded_by_root(self):
        dims = [5, 4, 3, 3, 2, 2]
        blocks = partition_coordinates(dims)
        root = math.sqrt(math.prod(dims))
        for blk in blocks[1:]:
            assert math.prod(dims[a] for a in blk) <= root

    def test_requires_descending_order(self):
        with pytest.raises(DomainError):
            partition_coordinates([2, 4])

    def test_requires_two_axes(self):
        with pytest.raises(DomainError):
            partition_coordinates([8])

    def test_requires_nontrivial_axes(self):
        with pytest.raises(DomainError):
            partition_coordinates([4, 1])

    def test_rejects_non_integral_sizes_by_value(self):
        # int() would partition [3, 2]
        with pytest.raises(DomainError, match=r"integers, got \[3.5, 2\]"):
            partition_coordinates([3.5, 2])


class TestLearning:
    def test_single_axis_accepts_for_free(self):
        p = JointDistribution.uniform((7,))
        v = learning_tester(JointSampler(p), 0.3, 0.1, Rng(10))
        assert v.outcome is Outcome.ACCEPT
        assert v.detail["t"] == 0
        assert v.account.total == 0

    def test_sample_budget_formula(self):
        # t = ceil((N + ln(1/delta)) / (eps/7)^2): one event at delta covers
        # the joint and every marginal
        p = JointDistribution.uniform((3, 3, 2))
        v = learning_tester(JointSampler(p), 0.35, 0.1, Rng(11))
        assert v.detail["t"] == 8122
        assert v.account.learning == 8122
        q = JointDistribution.uniform((2, 2))
        w = learning_tester(JointSampler(q), 0.35, 0.1, Rng(12))
        assert w.detail["t"] == 2522

    @pytest.mark.parametrize("k", [2, 5, 6, 12])
    def test_threshold_is_complete_and_sound_on_k_axes(self, k):
        # eta = eps / c with c = max(7, k + 2), threshold eps - eta. A
        # product's gap is at most (k + 1) * eta, which must not exceed the
        # threshold; an input at E = (c + k) * eta scores above
        # E - (k + 1) * eta, which must be at least the threshold.
        eps, delta = 0.2, 0.1
        c = max(7, k + 2)
        eta = eps / c
        assert (k + 1) * eta <= eps - eta + 1e-15
        far = (c + k) * eta
        assert far - (k + 1) * eta >= eps - eta - 1e-15
        dims = (2,) * k
        t = math.ceil((2**k + math.log(1 / delta)) / eta**2)
        uniform = JointDistribution.uniform(dims)
        dep = constrained_law(dims, lambda x: x[0] == x[1])
        w = far / tv_to_own_product(dep)
        law = JointDistribution(dims, (1 - w) * uniform.probs + w * dep.probs)
        assert tv_to_own_product(law) == pytest.approx(far, abs=1e-12)
        for seed in range(3):
            v = learning_tester(JointSampler(uniform), eps, delta, Rng(110, (k, seed)))
            assert v.detail["t"] == t
            assert v.detail["gap"] <= (k + 1) * eta
            assert v.outcome is Outcome.ACCEPT
            v = learning_tester(JointSampler(law), eps, delta, Rng(111, (k, seed)))
            assert v.detail["gap"] > eps - eta
            assert v.outcome is Outcome.REJECT

    def test_product_accepts(self):
        t = np.einsum("i,j,k->ijk", [0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.7, 0.3])
        p = JointDistribution.from_table(t)
        hits = sum(
            learning_tester(JointSampler(p), 0.35, 0.1, Rng(13, (i,))).outcome
            is Outcome.ACCEPT
            for i in range(40)
        )
        assert hits >= 36

    def test_correlated_rejects(self):
        p = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
        hits = sum(
            learning_tester(JointSampler(p), 0.35, 0.1, Rng(14, (i,))).outcome
            is Outcome.REJECT
            for i in range(40)
        )
        assert hits >= 36

    def test_validation(self):
        p = JointDistribution.uniform((2, 2))
        with pytest.raises(DomainError):
            learning_tester(JointSampler(p), 0.0, 0.1, Rng(15))
        with pytest.raises(DomainError):
            learning_tester(JointSampler(p), 0.3, 1.0, Rng(15))

    @pytest.mark.parametrize("eps, delta, name", [(True, 0.1, "eps"), ("0.3", 0.1, "eps"), (0.3, "0.1", "delta")])
    def test_validation_rejects_a_bool_or_a_string_by_name(self, eps, delta, name):
        p = JointDistribution.uniform((2, 2))
        with pytest.raises(DomainError, match=f"{name} must be a finite number"):
            learning_tester(JointSampler(p), eps, delta, Rng(15))


class TestGeneralArity:
    @pytest.mark.parametrize("tester", [aug_independence_2d, aug_independence_3d, aug_independence_d])
    @pytest.mark.parametrize("pred", [None, np.full(6, 1 / 6), "uniform"])
    def test_a_prediction_that_is_not_a_law_is_rejected_by_name(self, tester, pred):
        # it raised an AttributeError on pred.dims
        p = JointDistribution.uniform((3, 2))
        with pytest.raises(DomainError, match="prediction must be a JointDistribution, got "):
            tester(JointSampler(p), pred, TesterConfig(0.4, 0.05), Rng(16))

    def test_a_one_axis_input_is_a_domain_error_naming_its_dims(self):
        # it used to raise from partition_coordinates, which the caller never called
        p = JointDistribution.uniform((8,))
        calls = []
        with pytest.raises(DomainError, match=r"^independence needs at least two axes, got dims \(8,\)$"):
            aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(16), scripted_hooks([], [], calls=calls))
        assert calls == []

    def test_low_arity_routes_directly(self):
        for dims in [(6, 4), (4, 3, 2)]:
            p = JointDistribution.uniform(dims)
            npoisson = len(dims)
            hooks = scripted_hooks([2] * npoisson, [0.0] * (npoisson + 1))
            v = aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(16), hooks)
            assert "partition" not in v.stage_log
            assert v.outcome is Outcome.ACCEPT

    def test_high_arity_partitions(self):
        p = JointDistribution.uniform((2, 2, 2, 2, 2))
        calls = []
        hooks = scripted_hooks([2, 2, 2], [0.0, 0.0, 0.0, 0.0], calls=calls)
        v = aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(17), hooks)
        assert v.stage_log[0] == "partition"
        assert v.detail["blocks"] == [[0], [1, 2], [3, 4]]
        assert v.detail["grouped_dims"] == (2, 4, 4)
        # both multi-axis blocks were re-checked by one learning stage
        assert v.stage_log.count("learning") == 1
        assert v.outcome is Outcome.ACCEPT
        # three terms: the pipeline at eps/3, each 2-axis block at eta = (eps/3) / 6
        split = v.detail["eps_split"]
        eta = split["block_eta"][1]
        assert split["pipeline"] == 0.4 / 3
        # the grouped view's two closeness batches each run at half its eps
        assert [c[3] for c in calls if c[0] == "closeness"] == [0.4 / 6, 0.4 / 6]
        assert split["block_eta"] == (None, eta, eta)
        assert eta == pytest.approx(0.4 / 18, rel=1e-12)
        learning = v.detail["learning"]
        assert learning["t"] == math.ceil((4 + math.log(1 / 0.02)) / eta**2)
        assert v.account.learning == learning["t"]
        assert [b["axes"] for b in learning["blocks"]] == [[1, 2], [3, 4]]
        for b in learning["blocks"]:
            assert b["eta"] == eta
            assert b["threshold"] == 3 * eta
            assert b["margin"] == b["threshold"] - b["gap"] > 0

    def test_one_reindexed_view_per_run(self, monkeypatch):
        # the grouped view is sorted and relabeled once, and the input is validated once
        built, merges, validated = [], [], []

        class CountingSampler(ReindexedSampler):
            def __init__(self, base, blocks):
                built.append(blocks)
                super().__init__(base, blocks)

        def counting(fn, log):
            return lambda *args: log.append(args) or fn(*args)

        monkeypatch.setattr(testers, "ReindexedSampler", CountingSampler)
        monkeypatch.setattr(testers, "merge_axes", counting(merge_axes, merges))
        monkeypatch.setattr(TesterConfig, "validate", counting(TesterConfig.validate, validated))
        p = JointDistribution.uniform((2, 2, 2, 2, 2))
        hooks = scripted_hooks([2, 2, 2], [0.0, 0.0, 0.0, 0.0])
        v = aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(17), hooks)
        assert built == [((1, 2), (3, 4), (0,)), [[1], [2], [3], [4]]]  # grouped view, then learning
        assert len(merges) == 3  # one per reindexed law, and the prediction once
        assert len(validated) == 1
        assert v.detail["grouped_dims"] == (2, 4, 4)  # in partition order
        assert v.detail["inner"]["dims"] == (4, 4, 2)  # sorted so sizes descend
        assert v.outcome is Outcome.ACCEPT

    def test_one_learning_draw_serves_every_block(self, monkeypatch):
        # (2,)*6 partitions into [0], [1, 2], [3, 4, 5]: blocks of 4 and 8
        # cells at eta = (eps/3) / 6 and (eps/3) / 8, so the 3-axis block sets t
        draws, scored = [], []

        def recording_learn(sampler, t, rng, account=None):
            emp = estimators.learn_empirical(sampler, t, rng, account)
            draws.append((sampler.dims, t, rng, emp))
            return emp

        def recording_tv(law):
            scored.append(law)
            return tv_to_own_product(law)

        monkeypatch.setattr(testers, "learn_empirical", recording_learn)
        monkeypatch.setattr(testers, "empirical_tv_to_product", recording_tv)
        gen = Rng(44).gen
        dims = (2,) * 6
        p = JointDistribution(dims, domain.outer_product(gen.dirichlet(np.ones(2)) for _ in dims))
        hooks = scripted_hooks([2, 2, 2], [0.0, 0.0, 0.0, 0.0])
        v = aug_independence_d(JointSampler(p), p, TesterConfig(0.3, 0.05), Rng(45), hooks)
        assert v.detail["blocks"] == [[0], [1, 2], [3, 4, 5]]
        [(union_dims, t, rng, emp)] = draws  # one draw over the union of the blocks' axes
        assert union_dims == (2,) * 5
        assert (rng.seed, rng.stream) == (45, (1,))
        etas = [0.1 / 6, 0.1 / 8]
        t_blocks = [math.ceil((n + math.log(1 / 0.02)) / eta**2) for n, eta in zip((4, 8), etas)]
        assert t == max(t_blocks) == t_blocks[1] == v.detail["learning"]["t"]
        assert v.account.learning == t
        # each block's law is its marginal of that one histogram
        assert [law.dims for law in scored] == [(2, 2), (2, 2, 2)]
        for law, axes in zip(scored, ([0, 1], [2, 3, 4])):
            assert np.array_equal(law.probs, marginal(emp, axes).probs)
        for b, law, eta in zip(v.detail["learning"]["blocks"], scored, etas):
            assert b["eta"] == pytest.approx(eta, rel=1e-12)
            assert b["gap"] == tv_to_own_product(law)
        assert v.outcome is Outcome.ACCEPT

    @pytest.mark.parametrize("k", [2, 3])
    def test_block_accepts_a_product_and_rejects_at_its_eps_share(self, k):
        # A k-axis block B of (2,)*(k+3), in the partition [0], [1, 2], B:
        # a product accepts, and a law whose block is at E = eps/3 from its
        # own product, the least a far input puts on one of the 3 terms,
        # rejects. The pipeline is scripted to accept, so learning decides.
        eps = 0.1
        dims = (2,) * (k + 3)
        block = list(range(3, k + 3))
        uniform = JointDistribution.uniform((2,) * k)
        dep = constrained_law((2,) * k, lambda x: x[0] == x[1])
        w = (eps / 3) / tv_to_own_product(dep)
        law_b = JointDistribution((2,) * k, (1 - w) * uniform.probs + w * dep.probs)
        far = JointDistribution(dims, np.kron(np.full(8, 1 / 8), law_b.probs))
        assert tv_to_own_product(marginal(far, block)) == pytest.approx(eps / 3, abs=1e-12)
        product = JointDistribution.uniform(dims)
        for seed in range(3):
            for p, outcome in ((product, Outcome.ACCEPT), (far, Outcome.REJECT)):
                hooks = scripted_hooks([2, 2, 2], [0.0, 0.0, 0.0, 0.0])
                v = aug_independence_d(JointSampler(p), p, TesterConfig(eps, 0.05), Rng(46, (k, seed)), hooks)
                assert v.detail["blocks"] == [[0], [1, 2], block]
                assert v.stage == "learning"
                assert v.outcome is outcome, (k, seed, v.detail["learning"])

    def test_partition_respects_size_order(self):
        # largest axis leads even when it arrives last
        p = JointDistribution.uniform((2, 2, 2, 2, 16))
        hooks = scripted_hooks([2, 2], [0.0, 0.0, 0.0])
        v = aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(18), hooks)
        assert v.detail["blocks"][0] == [4]
        assert v.detail["grouped_dims"][0] == 16

    def test_inner_failure_short_circuits(self):
        p = JointDistribution.uniform((2, 2, 2, 2))
        hooks = scripted_hooks([10 ** 9, 10 ** 9, 10 ** 9], [])
        v = aug_independence_d(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(19), hooks)
        assert v.outcome is Outcome.REJECT
        assert v.stage == "poisson_cap"
        assert "learning" not in v.stage_log

    def test_hidden_intra_block_correlation_rejected(self):
        # axes 3 and 4 perfectly correlated; the grouped 2d view cannot see it
        # when the pipeline is forced to accept, but block learning can
        diag = np.zeros((2, 2))
        diag[0, 0] = diag[1, 1] = 0.5
        t = np.einsum("i,j,k,lm->ijklm", [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], diag)
        p = JointDistribution.from_table(t)
        pred = product_of_marginals(p)
        hooks = scripted_hooks([2, 2, 2], [0.0, 0.0, 0.0, 0.0])
        v = aug_independence_d(JointSampler(p), pred, TesterConfig(0.4, 0.05), Rng(20), hooks)
        assert v.outcome is Outcome.REJECT
        assert v.stage == "learning"

    def test_pred_dims_checked(self):
        p = JointDistribution.uniform((2, 2, 2, 2))
        q = JointDistribution.uniform((2, 2, 2))
        with pytest.raises(DomainError):
            aug_independence_d(JointSampler(p), q, TesterConfig(0.4, 0.05), Rng(21))

    @pytest.mark.parametrize(
        "tester, dims",
        [
            (aug_independence_2d, (12, 5)),
            (aug_independence_2d, (3, 40)),  # sizes ascend, so the pipeline reorders the axes
            (aug_independence_3d, (6, 5, 4)),
            (aug_independence_3d, (2, 3, 7)),
        ],
    )
    def test_two_and_three_axis_testers_are_aug_independence_d(self, tester, dims):
        # a skewed product accepts and a far input rejects, verdict and detail alike
        gen = Rng(42).gen
        product = JointDistribution(dims, domain.outer_product(gen.dirichlet(np.full(d, 0.3)) for d in dims))
        far = JointDistribution(dims, gen.dirichlet(np.ones(math.prod(dims))))
        runs = [
            (product, product, 0.05),
            (product, JointDistribution.uniform(dims), 0.0),
            (far, product_of_marginals(far), 1.0),
        ]
        outcomes = set()
        for p, pred, alpha in runs:
            cfg = TesterConfig(0.4, alpha)
            for seed in range(3):
                v = tester(JointSampler(p), pred, cfg, Rng(43, (seed,)))
                assert v == aug_independence_d(JointSampler(p), pred, cfg, Rng(43, (seed,)))
                outcomes.add(v.outcome)
        assert outcomes == {Outcome.ACCEPT, Outcome.REJECT}

    @pytest.mark.parametrize(
        "tester, arity, dims",
        [(aug_independence_2d, 2, (2, 2, 2)), (aug_independence_3d, 3, (4, 4)), (aug_independence_3d, 3, (2, 2, 2, 2))],
    )
    def test_two_and_three_axis_testers_check_the_arity(self, tester, arity, dims):
        p = JointDistribution.uniform(dims)
        with pytest.raises(DomainError, match=f"expected {arity} axes, got dims"):
            tester(JointSampler(p), p, TesterConfig(0.4, 0.05), Rng(21))


class TestDarySplit:
    @pytest.mark.parametrize(
        "dims, blocks, expected",
        [
            # m = 3: two 2-axis blocks; eta = (eps/3) / 6 each
            ((2,) * 5, [[0], [1, 2], [3, 4]], (0.1 / 3, (None, 0.1 / 18, 0.1 / 18))),
            # m = 2: one 2-axis block
            ((3, 2, 2, 2), [[0], [1], [2, 3]], (0.1 / 2, (None, None, 0.1 / 12))),
            ((16,) * 4, [[0], [1], [2, 3]], (0.1 / 2, (None, None, 0.1 / 12))),
            # m = 2: one 3-axis block; (eps/2) / 8
            ((8, 2, 2, 2), [[0], [1, 2, 3]], (0.1 / 2, (None, 0.1 / 16))),
            # m = 3: a 3-axis and a 6-axis block
            ((4, 4, 4, 4) + (2,) * 6, [[0], [1, 2, 3], [4, 5, 6, 7, 8, 9]], (0.1 / 3, (None, 0.1 / 24, 0.1 / 42))),
            # m = 3: a 5-axis and a 6-axis block
            ((2,) * 12, [[0], [1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]], (0.1 / 3, (None, 0.1 / 36, 0.1 / 42))),
            # m = 2: one 12-axis block; (eps/2) / 26
            ((4096,) + (2,) * 12, [[0], list(range(1, 13))], (0.1 / 2, (None, 0.1 / 52))),
            # the blocks are those of the axes sorted by size, in input labels
            ((2, 2, 3, 2), [[2], [0], [1, 3]], (0.1 / 2, (None, None, 0.1 / 12))),
        ],
    )
    def test_split_matches_the_formula(self, dims, blocks, expected):
        plan = _plan(dims, TesterConfig(0.1, 0.05))
        assert plan.blocks == tuple(map(tuple, blocks))
        assert plan.eps == pytest.approx(expected[0], rel=1e-12)
        assert len(plan.block_eta) == len(blocks)
        for got, want in zip(plan.block_eta, expected[1]):
            assert got == want if want is None else got == pytest.approx(want, rel=1e-12)
        assert plan.learn_delta == 0.1 / 5

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("m", [2, 3])
    def test_every_block_test_is_complete_and_sound(self, k, m):
        # A block of k axes at eta with threshold (k + 1) * eta: a product
        # scores below (k + 1) * eta, which must not exceed the threshold,
        # and a block term E = eps / m scores above E - (k + 1) * eta, which
        # must be at least the threshold. The two meet: c = k + 2 is the
        # least the argument allows. (2^k, 2, ..., 2) partitions into [0]
        # and one k-axis block, and (3, 2, 2, 2) into [0], [1] and [2, 3];
        # (2,)^(2k) into [0] and blocks of k - 1 and k axes, and (2,)^5
        # into [0] and two 2-axis blocks.
        eps = 0.1
        if m == 2:
            dims = (3, 2, 2, 2) if k == 2 else (2**k,) + (2,) * k
        else:
            dims = (2,) * (5 if k == 2 else 2 * k)
        plan = _plan(dims, TesterConfig(eps, 0.05))
        assert 1 + sum(len(blk) > 1 for blk in plan.blocks) == m
        eta = next(eta for blk, eta in zip(plan.blocks, plan.block_eta) if len(blk) == k)
        threshold = (k + 1) * eta
        assert eps / m - (k + 1) * eta == pytest.approx(threshold, rel=1e-12)


class TestPlan:
    """Every field of the plan, pinned before any draw."""

    @pytest.mark.parametrize(
        "dims, cfg, plan",
        [
            # closeness_2d
            (
                (100, 20),
                TesterConfig(0.4, 0.1),
                _Plan("practical", ((0,), (1,)), ((0,), (1,)), 0.4, (10.0, 2.0), (0.06, 0.30000000000000004),
                      6.0, 8.0, 360.0, 1 / 120, 1 / 80, (0.4,), (None, None), None),
            ),
            # hidden_bit_2d, at 0.5, about the "exact" alpha its trials run at
            (
                (200, 20),
                TesterConfig(1 / 192, 0.5),
                _Plan("practical", ((0,), (1,)), ((0,), (1,)), 1 / 192, (100.0, 10.0), (0.03, 0.30000000000000004),
                      6.0, 8.0, 360.0, 1 / 120, 1 / 80, (1 / 192,), (None, None), None),
            ),
            # arity5_d
            (
                (2,) * 5,
                TesterConfig(0.1, 0.05),
                _Plan("practical", ((0,), (1, 2), (3, 4)), ((1, 2), (3, 4), (0,)), 0.1 / 3, (1.0, 1.0, 1.0),
                      (1.1, 1.1, 2.1), 9.0, 12.0, 4374.0, 1 / 180, 1 / 120, (0.1 / 6, 0.1 / 6),
                      (None, 0.1 / 18, 0.1 / 18), 0.02),
            ),
            # both profiles on two and three axes, where s[0] is the power
            # term, not a clamp, and the view sorts the axes
            (
                (10, 1000),
                TesterConfig(0.9, 0.5, "theory"),
                _Plan("theory", ((0,), (1,)), ((1,), (0,)), 0.9, (196.7886239227057, 5.0),
                      (0.009081594555957556, 0.6000000000000001), 120.0, 160.0, 144000.0, 1 / 120, 1 / 80, (0.9,),
                      (None, None), None),
            ),
            (
                (10, 1000),
                TesterConfig(0.9, 0.5, "practical"),
                _Plan("practical", ((0,), (1,)), ((1,), (0,)), 0.9, (196.7886239227057, 5.0),
                      (0.009081594555957556, 0.6000000000000001), 6.0, 8.0, 360.0, 1 / 120, 1 / 80, (0.9,), (None, None), None),
            ),
            (
                (10, 1000, 5),
                TesterConfig(0.9, 0.5, "theory"),
                _Plan("theory", ((0,), (1,), (2,)), ((1,), (0,), (2,)), 0.9, (336.5038134874332, 5.0, 2.5),
                      (0.006971734524005164, 0.6000000000000001, 1.2000000000000002), 180.0, 240.0, 34992000.0, 1 / 180, 1 / 120,
                      (0.45, 0.45), (None, None, None), None),
            ),
            (
                (10, 1000, 5),
                TesterConfig(0.9, 0.5, "practical"),
                _Plan("practical", ((0,), (1,), (2,)), ((1,), (0,), (2,)), 0.9, (336.5038134874332, 5.0, 2.5),
                      (0.006971734524005164, 0.6000000000000001, 1.2000000000000002), 9.0, 12.0, 4374.0, 1 / 180, 1 / 120, (0.45, 0.45),
                      (None, None, None), None),
            ),
            (
                (16,) * 4,
                TesterConfig(0.2, 0.05),
                _Plan("practical", ((0,), (1,), (2, 3)), ((2, 3), (0,), (1,)), 0.1, (12.8, 1.0, 1.0),
                      (0.0234375, 0.35, 0.35), 9.0, 12.0, 4374.0, 1 / 180, 1 / 120, (0.05, 0.05),
                      (None, None, 0.1 / 6), 0.02),
            ),
            (
                (2,) * 12,
                TesterConfig(0.1, 0.05),
                _Plan("practical", ((0,), (1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)),
                      ((6, 7, 8, 9, 10, 11), (1, 2, 3, 4, 5), (0,)), 0.1 / 3, (3.2, 1.6, 1.0),
                      (0.09375, 0.1875, 2.1), 9.0, 12.0, 4374.0, 1 / 180, 1 / 120, (0.1 / 6, 0.1 / 6),
                      (None, 0.002777777777777778, 0.0023809523809523807), 0.02),
            ),
        ],
        ids=["closeness_2d", "hidden_bit_2d", "arity5_d", "theory-2", "practical-2", "theory-3", "practical-3",
             "16^4", "2^12"],
    )
    def test_every_field(self, dims, cfg, plan):
        assert _plan(dims, cfg) == plan


def constrained_law(dims, holds) -> JointDistribution:
    """The uniform law on the cells x of dims where holds(x)."""
    mass = np.array([float(holds(x)) for x in itertools.product(*(range(n) for n in dims))])
    return JointDistribution(dims, mass / mass.sum())


class TestDaryFarSideNearEps:
    """d-ary inputs whose tv to their own marginal product is eps itself, not a multiple of it.

    Each mixes the uniform law with a law of uniform marginals on the cells
    where a pattern holds. The mix keeps uniform marginals, so its distance
    to its own product is linear in the weight, which is set to give eps.
    The product of its own marginals is a product, so the tester must reject.
    """

    EPS = 0.1
    CUBE = (2, 2, 2, 2, 2)  # blocks [0], [1, 2], [3, 4]
    MIXED = (3, 2, 2, 2)  # blocks [0], [1], [2, 3]
    PATTERNS = {
        "cube x1=x2": (CUBE, lambda x: x[1] == x[2]),  # inside a block: learning
        "cube x0=x3": (CUBE, lambda x: x[0] == x[3]),  # across blocks: the pipeline
        "cube x2=x3": (CUBE, lambda x: x[2] == x[3]),
        "cube parity x0^x1^x3": (CUBE, lambda x: x[0] ^ x[1] ^ x[3] == 0),
        "cube parity x1^x2^x3^x4": (CUBE, lambda x: x[1] ^ x[2] ^ x[3] ^ x[4] == 0),
        "cube x1=x2, x0=x3 and x2=x3": (CUBE, lambda x: x[1] == x[2] and x[0] == x[3] and x[2] == x[3]),
        "mixed x2=x3": (MIXED, lambda x: x[2] == x[3]),
        "mixed x1=x3": (MIXED, lambda x: x[1] == x[3]),
        "mixed parity x1^x2^x3": (MIXED, lambda x: x[1] ^ x[2] ^ x[3] == 0),
    }

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_rejects_at_eps(self, name):
        dims, holds = self.PATTERNS[name]
        dep = constrained_law(dims, holds)
        w = self.EPS / tv_to_own_product(dep)
        p = JointDistribution(dims, (1 - w) * JointDistribution.uniform(dims).probs + w * dep.probs)
        assert tv_to_own_product(p) == pytest.approx(self.EPS, abs=1e-12)
        cfg = TesterConfig(self.EPS, 0.05)
        trials = 100
        rejects = sum(
            aug_independence_d(JointSampler(p), p, cfg, Rng(2021, (t,))).outcome is Outcome.REJECT
            for t in range(trials)
        )
        assert wilson_interval(rejects, trials)[0] >= 0.9, f"{name}: {rejects}/{trials} rejected"


class TestSignPerturbationAtEps:
    """Far laws at exactly eps whose closeness call runs in each band.

    U(n_1) x U(n_2) with each cell scaled by 1 + 2c s_i t_j, for balanced
    signs s and t, keeps uniform marginals, so its tv to its own product is
    c. At c = eps a uniform prediction claimed exact (alpha 0) must not hide
    it: the one-batch statistic of its flattened joint rejects, in the band
    its flat size falls in, w.p. whose Wilson lower bound is at least 0.9
    over 60 trials.
    """

    EPS = 0.1

    @staticmethod
    def _verdicts(dims, eps):
        s = np.where(np.arange(dims[0]) % 2 == 0, 1.0, -1.0)
        t = np.where(np.arange(dims[1]) % 2 == 0, 1.0, -1.0)
        p = JointDistribution(dims, (1 + 2 * eps * np.outer(s, t)) / math.prod(dims))
        assert tv_to_own_product(p) == pytest.approx(eps, abs=1e-12)
        pred = JointDistribution.uniform(dims)
        return [aug_independence_2d(JointSampler(p), pred, TesterConfig(eps, 0.0), Rng(2034, (i,))) for i in range(60)]

    @staticmethod
    def _assert_rejected(verdicts):
        rejects = sum(v.outcome is Outcome.REJECT for v in verdicts)
        assert wilson_interval(rejects, len(verdicts))[0] >= 0.9, f"{rejects}/{len(verdicts)} rejected"

    def test_rejects_at_eps_in_the_top_band(self):
        verdicts = self._verdicts((100, 20), self.EPS)
        # the flattened joint's 8,000-odd cells lie far above the top band's
        # first M, the cells it is calibrated on
        bands = estimators.EstimatorConfig().closeness_bands
        sizes = [math.prod(v.detail["flat_dims"]) for v in verdicts]
        assert all(estimators._closeness_band(M, bands) == bands[-1] for M in sizes)
        assert min(sizes) >= 40 * bands[-1][0]
        self._assert_rejected(verdicts)

    @pytest.mark.parametrize("dims, band", [((2, 2), 0), ((4, 4), 1)], ids=["band_9", "band_50"])
    def test_rejects_at_eps_in_the_lower_bands(self, dims, band):
        # each axis flattens to 2 n_l buckets plus its Poi(1) flattening
        # counts: 16 to about 50 cells on (2, 2), 64 to about 130 on (4, 4).
        # The verdicts scored are those of the trials whose flattened joint
        # falls in the band; on (2, 2) 59 of the first 60 do.
        bands = estimators.EstimatorConfig().closeness_bands
        verdicts = self._verdicts(dims, 0.3)
        sizes = [math.prod(v.detail["flat_dims"]) for v in verdicts]
        in_band = [v for v, M in zip(verdicts, sizes) if estimators._closeness_band(M, bands) == bands[band]]
        assert len(in_band) >= 55, sizes
        self._assert_rejected(in_band)


class TestThreeAxisBatches:
    """Far laws at exactly eps on (10, 6, 4) whose dependence only one of the
    two closeness batches of aug_independence_3d sees.

    A sign perturbation 1 + 2 eps s t of two uniform axes, times the third
    uniform axis, keeps uniform marginals and lies at tv eps from its own
    product. Perturbing X and Y keeps p = p_XY x p_Z, so the joint batch
    faces a null and the (X, Y) marginal's batch must reject; perturbing Y
    and Z keeps p_XY = p_X x p_Y, so the joint batch must reject before the
    second runs. detail["closeness_grids"] lists the batches run, so its
    length names the batch that decided. A uniform prediction claimed exact
    (alpha 0) must not hide the dependence.
    """

    DIMS = (10, 6, 4)

    @pytest.mark.parametrize("eps", [0.4, 0.2])
    @pytest.mark.parametrize("axes, batch", [((0, 1), 2), ((1, 2), 1)], ids=["x_y_batch_2", "y_z_batch_1"])
    def test_rejects_at_eps_in_its_batch(self, axes, batch, eps):
        s, t = (np.where(np.arange(self.DIMS[a]) % 2 == 0, 1.0, -1.0) for a in axes)
        (other,) = {0, 1, 2} - set(axes)
        table = np.expand_dims(1 + 2 * eps * np.outer(s, t), other) * np.ones(self.DIMS)
        p = JointDistribution(self.DIMS, table / table.sum())
        assert tv_to_own_product(p) == pytest.approx(eps, abs=1e-12)
        pred, cfg = JointDistribution.uniform(self.DIMS), TesterConfig(eps, 0.0)
        verdicts = [aug_independence_3d(JointSampler(p), pred, cfg, Rng(2036, (i,))) for i in range(60)]
        rejected = [v for v in verdicts if v.outcome is Outcome.REJECT]
        assert wilson_interval(len(rejected), len(verdicts))[0] >= 0.9, f"{len(rejected)}/60 rejected"
        assert all(v.stage == "closeness" and len(v.detail["closeness_grids"]) == batch for v in rejected)

    def test_the_pair_batch_thins_the_joint_batch(self, monkeypatch):
        # On a uniform input the (X, Y) batch runs below the joint batch's
        # rate, so it keeps a thinned share of that batch's table and draws
        # nothing fresh: the run's closeness samples are the joint batch's.
        batches, kernel = [], estimators._poissonized_counts

        def recording(view, lam, rng):
            counts = kernel(view, lam, rng)
            batches.append((view, lam, int(counts.sum())))
            return counts

        monkeypatch.setattr(estimators, "_poissonized_counts", recording)
        p = JointDistribution.uniform(self.DIMS)
        for seed in range(5):
            batches.clear()
            v = aug_independence_3d(JointSampler(p), p, TesterConfig(0.4, 0.1), Rng(seed, ()))
            assert v.outcome is Outcome.ACCEPT and len(v.detail["closeness_grids"]) == 2
            (joint, lam1, k1), (pair, lam2, _) = batches
            assert pair.parent is joint and lam2 < lam1 and pair.last[2] == 0
            assert v.account.closeness == k1 > 0 and v.detail["closeness_drawn"] == [k1, 0]


class TestProductBoundFarSide:
    """Far laws the product bound alone must carry, with the joint norm skipped.

    p = (1 - w) U(k) x U(k) + w Diag(k), with w = eps / (1 - 1/k), keeps
    uniform marginals and lies at tv eps from its own product, while its
    ||p||^2 is about w/k, far above the product's 1/k^2. Run with the exact
    prediction, the rule skips the joint norm in every trial (the flattened
    product bound saves a quarter to a half of its cost), so closeness runs
    at the product bound, below ||p||^2, and must still reject w.p. whose
    Wilson lower bound is at least 0.9 over 200 trials.
    """

    @pytest.mark.parametrize("k, eps, alpha", [(20, 0.4, 0.1), (60, 0.3, 0.05)])
    def test_rejects_at_eps_with_the_joint_norm_skipped(self, k, eps, alpha):
        w = eps / (1 - 1 / k)
        p = JointDistribution((k, k), (1 - w) * np.full((k, k), 1 / k**2) + w * np.eye(k) / k)
        assert tv_to_own_product(p) == pytest.approx(eps, abs=1e-12)
        cfg = TesterConfig(eps, alpha)
        verdicts = [aug_independence_2d(JointSampler(p), p, cfg, Rng(seed, ())) for seed in range(9000, 9200)]
        assert all("joint_norm" not in v.stage_log for v in verdicts)
        assert all(v.detail["closeness_b_source"] == "product" for v in verdicts)
        rejects = sum(v.outcome is Outcome.REJECT for v in verdicts)
        assert wilson_interval(rejects, len(verdicts))[0] >= 0.9, f"{rejects}/{len(verdicts)} rejected"


class TestAmplify:
    @staticmethod
    def scripted_run(outcomes):
        it = iter(outcomes)

        def run(rng):
            acct = SampleAccount()
            acct.add("learning", 10)
            return Verdict(next(it), ["learning"], acct, {})

        return run

    @staticmethod
    def full_rule(outcomes):
        """The most frequent of all the outcomes, ties broken toward Reject,
        then InaccurateInformation: amplify's rule without its early stop."""
        best = max(outcomes.count(o) for o in Outcome)
        return next(o for o in testers._TIE_ORDER if outcomes.count(o) == best)

    @staticmethod
    def stream_run(outcomes, streams):
        """A run that returns outcomes[i] on stream split(i) of a root Rng
        and records each stream it is handed."""

        def run(rng):
            streams.append(rng.stream)
            return Verdict(outcomes[rng.stream[-1]], ["x"], SampleAccount(), {})

        return run

    @pytest.mark.parametrize("delta, runs", [(0.05, 7), (0.01, 13), (0.001, 25)])
    def test_run_count(self, delta, runs):
        # Alternating outcomes stay within one of each other, so no lead is
        # decided before the last run.
        seen = []
        outcomes = [Outcome.ACCEPT, Outcome.REJECT] * (runs // 2) + [Outcome.ACCEPT]
        v = amplify(self.stream_run(outcomes, seen), delta, Rng(22))
        assert len(seen) == runs
        assert v.detail["runs"] == v.detail["runs_run"] == runs
        assert v.outcome is Outcome.ACCEPT

    @pytest.mark.parametrize("delta, runs, run", [(0.05, 7, 4), (0.01, 13, 7), (0.001, 25, 13)])
    def test_unanimous_runs_stop_once_decided(self, delta, runs, run):
        seen = []
        v = amplify(self.stream_run([Outcome.REJECT] * runs, seen), delta, Rng(22))
        assert seen == [(i,) for i in range(run)]
        assert v.detail["runs"] == runs
        assert v.detail["runs_run"] == run
        assert v.detail["tally"]["reject"] == run

    @settings(max_examples=300, deadline=None)
    @given(
        delta_runs=st.sampled_from([(0.05, 7), (0.01, 13), (0.001, 25)]),
        data=st.data(),
    )
    def test_early_stop_keeps_the_full_outcome(self, delta_runs, data):
        delta, runs = delta_runs
        weights = data.draw(st.sampled_from([(1, 1, 1), (6, 3, 1), (1, 1, 8), (4, 4, 0)]))
        pool = [o for o, w in zip(Outcome, weights) for _ in range(w)]
        outcomes = data.draw(st.lists(st.sampled_from(pool), min_size=runs, max_size=runs))
        seen = []
        v = amplify(self.stream_run(outcomes, seen), delta, Rng(40))
        assert v.outcome is self.full_rule(outcomes)
        # run i keeps stream split(i), and the runs stop at the first run
        # after which the leader beats every other count plus the runs left
        k = v.detail["runs_run"]
        assert seen == [(i,) for i in range(k)]
        for j in range(1, runs + 1):
            counts = sorted(outcomes[:j].count(o) for o in Outcome)
            if counts[-1] > counts[-2] + runs - j:
                break
        assert k == j

    def test_real_runs_keep_the_full_outcome(self):
        # The learning tester on a 2 x 2 law whose gap to its product sits on
        # its accept threshold 6 eps / 7 accepts and rejects about equally.
        x = 1.5 / 7
        law = JointDistribution.from_table(np.array([[0.25 + x, 0.25 - x], [0.25 - x, 0.25 + x]]))
        runs = 13

        def run(rng):
            return learning_tester(JointSampler(law), 0.5, 0.1, rng)

        mixed = early = 0
        for seed in range(40):
            rng = Rng(41, (seed,))
            outcomes = [run(rng.split(i)).outcome for i in range(runs)]
            v = amplify(run, 0.01, rng)
            assert v.outcome is self.full_rule(outcomes)
            mixed += len(set(outcomes)) > 1
            early += v.detail["runs_run"] < runs
        assert mixed >= 10
        assert early >= 5

    def test_majority_wins(self):
        outcomes = [Outcome.ACCEPT] * 4 + [Outcome.REJECT] * 3
        v = amplify(self.scripted_run(outcomes), 0.05, Rng(23))
        assert v.outcome is Outcome.ACCEPT
        assert v.detail["tally"]["accept"] == 4

    def test_tie_breaks_toward_reject(self):
        outcomes = [Outcome.ACCEPT] * 3 + [Outcome.REJECT] * 3 + [Outcome.INACCURATE]
        v = amplify(self.scripted_run(outcomes), 0.05, Rng(24))
        assert v.outcome is Outcome.REJECT

    def test_inaccurate_beats_accept_on_tie(self):
        outcomes = [Outcome.ACCEPT] * 3 + [Outcome.INACCURATE] * 3 + [Outcome.REJECT]
        v = amplify(self.scripted_run(outcomes), 0.05, Rng(25))
        assert v.outcome is Outcome.INACCURATE

    def test_accounts_sum_over_runs(self):
        v = amplify(self.scripted_run([Outcome.ACCEPT] * 7), 0.05, Rng(26))
        # a unanimous input stops after 4 of the 7 runs
        assert v.detail["runs_run"] == 4
        assert v.account.learning == 40
        assert v.stage_log[0] == "amplify"

    def test_delta_validation(self):
        with pytest.raises(DomainError):
            amplify(self.scripted_run([Outcome.ACCEPT] * 200), 0.0, Rng(27))

    @pytest.mark.parametrize("delta, runs", [(None, 1), (0.5, 1), (0.1, 1), (0.05, 7)])
    def test_run_at_delta_amplifies_below_a_tenth(self, delta, runs):
        streams = []

        def run(rng):
            # alternating outcomes keep an amplified vote undecided to its last run
            streams.append(rng.stream)
            outcome = Outcome.REJECT if len(streams) % 2 == 0 else Outcome.ACCEPT
            return Verdict(outcome, ["x"], SampleAccount(), {})

        _run_at_delta(run, delta, Rng(28, (1,)))
        # a single run gets the stream it is handed; amplified run i gets its split i
        assert streams == ([(1,)] if runs == 1 else [(1, i) for i in range(runs)])

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 1.5])
    def test_run_at_delta_rejects_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(DomainError):
            _run_at_delta(self.scripted_run([Outcome.ACCEPT]), delta, Rng(29))

    @pytest.mark.parametrize(
        "call",
        [
            lambda run: amplify(run, "0.05", Rng(29)),
            lambda run: amplify(run, True, Rng(29)),
            lambda run: amplify(run, float("nan"), Rng(29)),
            lambda run: _run_at_delta(run, "0.05", Rng(29)),
            lambda run: _run_at_delta(run, float("inf"), Rng(29)),
        ],
    )
    def test_a_delta_that_is_not_a_finite_number_is_rejected_by_name(self, call):
        # "0.05" raised a bare TypeError from the comparison
        with pytest.raises(DomainError, match="delta(_target)? must be a finite number"):
            call(self.scripted_run([Outcome.ACCEPT]))

    def test_range_messages_are_unchanged(self):
        run = self.scripted_run([Outcome.ACCEPT])
        with pytest.raises(DomainError, match=r"^delta_target must be in \(0, 1\), got 0.0$"):
            amplify(run, 0.0, Rng(27))
        with pytest.raises(DomainError, match=r"^delta must be in \(0, 1\), got 1.5$"):
            _run_at_delta(run, 1.5, Rng(27))

    def test_the_base_delta_sets_the_threshold_and_the_tails(self):
        assert testers.BASE_DELTA == 0.1
        assert 2 * testers.BASE_DELTA == 0.2  # the one-allowed-outcome tail, exactly
        run = self.scripted_run([Outcome.ACCEPT] * 5)
        assert "amplify" not in _run_at_delta(run, testers.BASE_DELTA, Rng(30)).stage_log
        assert "amplify" in _run_at_delta(run, math.nextafter(testers.BASE_DELTA, 0), Rng(30)).stage_log


class TestVerdictJson:
    def test_payload_shape(self):
        acct = SampleAccount()
        acct.add("norm", 5)
        v = Verdict(Outcome.ACCEPT, ["closeness"], acct, {})
        out = v.to_json(seed=9)
        assert out["outcome"] == "accept"
        assert out["stage"] == "closeness"
        assert out["seed"] == 9
        assert out["samples"]["norm"] == 5
        assert "seed" not in v.to_json()


class TestEndToEnd:
    def test_2d_product_accepts(self):
        p = JointDistribution.from_table(np.outer(np.full(20, 0.05), np.full(10, 0.1)))
        cfg = TesterConfig(eps=0.4, alpha=0.05)
        hits = sum(
            aug_independence_2d(JointSampler(p), p, cfg, Rng(30, (i,))).outcome
            is Outcome.ACCEPT
            for i in range(20)
        )
        assert hits >= 16

    def test_3d_product_accepts(self):
        p = JointDistribution.uniform((6, 5, 4))
        cfg = TesterConfig(eps=0.4, alpha=0.05)
        hits = sum(
            aug_independence_3d(JointSampler(p), p, cfg, Rng(31, (i,))).outcome
            is Outcome.ACCEPT
            for i in range(20)
        )
        assert hits >= 16

    def test_2d_correlated_with_adversarial_prediction_rejects(self):
        size = 8
        t = np.zeros((size, size))
        np.fill_diagonal(t, 1.0 / size)
        p = JointDistribution.from_table(t)
        pred = product_of_marginals(p)  # uniform product, tv gap 1 - 1/8
        cfg = TesterConfig(eps=0.4, alpha=1.0)
        hits = sum(
            aug_independence_2d(JointSampler(p), pred, cfg, Rng(32, (i,))).outcome
            is Outcome.REJECT
            for i in range(20)
        )
        assert hits >= 16
