"""Tests for the l2 estimator, the closeness tester, and empirical learning."""

import importlib.util
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augtest import estimators
from augtest.bench import wilson_interval
from augtest.domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    SampleAccount,
    inverse_cdf,
    tv_distance,
    tv_to_own_product,
)
from augtest.estimators import (
    EstimatorConfig,
    closeness_params,
    closeness_test,
    estimate_l2_squared,
    learn_empirical,
    repetitions,
)
from augtest.flattening import FlatView

CFG = EstimatorConfig()
CALIBRATION = os.path.join(os.path.dirname(__file__), os.pardir, "calibration.json")


def draw_only(view: FlatView) -> FlatView:
    """The same view with its law hidden, so every repetition splits a stream."""
    return FlatView(size=view.size, probs=None, cost=view.cost, draw=view.draw)


def upper_tail(r: int, p: float) -> float:
    """P(Bin(r, p) >= ceil(r/2)), from the law of Bin(r, p) built by r
    convolutions with a Bernoulli(p); independent of the estimators' sums."""
    law = np.ones(1)
    for _ in range(r):
        law = np.convolve(law, [1.0 - p, p])
    return float(law[math.ceil(r / 2) :].sum())


def race(votes, h: int, r: int) -> tuple[bool, int, int]:
    """(accepted, tau, lead) of the closeness race over votes (True for
    reject): it stops at the first vote tau where accepts - rejects = lead
    reaches h or -h, or at tau = r, and accepts iff lead > 0."""
    lead = 0
    for tau, reject in enumerate(votes[:r], 1):
        lead += -1 if reject else 1
        if abs(lead) == h:
            break
    return lead > 0, tau, lead


def race_errors(h: int, r: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """The closeness race's exact (null, far) error when each vote errs
    w.p. p: on a null input it errs by stopping at accepts - rejects <= 0,
    on a far input at accepts - rejects > 0 (see race)."""
    errors = []
    for accept, wrong in ((1 - p, lambda lead: lead <= 0), (p, lambda lead: lead > 0)):
        law = {0: Fraction(1)}  # accepts - rejects -> probability
        for _ in range(r):
            step = {}
            for lead, w in law.items():
                moves = [(lead, 1)] if abs(lead) == h else [(lead + 1, accept), (lead - 1, 1 - accept)]
                for to, q in moves:
                    step[to] = step.get(to, 0) + w * q
            law = step
        errors.append(sum(w for lead, w in law.items() if wrong(lead)))
    return errors[0], errors[1]


def reference_l2_squared(view, M, delta, cfg, rng) -> float:
    """The per-repetition histogram form of estimate_l2_squared.

    Repetition j bincounts T draws (from rng's own generator when the view
    has a law, from rng.split(j) otherwise) and scores sum X (X - 1).
    """
    T = max(2, math.ceil(cfg.norm_sample_mult * math.ceil(math.sqrt(M))))
    r = repetitions(delta, cfg)
    ests = np.empty(r)
    for j in range(r):
        if view.probs is not None:
            cum = np.cumsum(view.probs / view.probs.sum())
            counts = np.bincount(inverse_cdf(cum, T)(rng.gen.random(T)), minlength=cum.size)
        else:
            counts = np.bincount(view.draw(T, rng.split(j)), minlength=view.size)
        ests[j] = float(np.dot(counts, counts - 1)) / (T * (T - 1))
    return float(np.median(ests))


class TestConfig:
    def test_defaults_are_the_calibrated_constants(self):
        assert CFG.norm_sample_mult == 4.0
        assert CFG.closeness_sample_mult == 2.0
        assert CFG.closeness_threshold_mult == 1.5
        # a recalibration that is not carried into the defaults fails here
        with open(CALIBRATION) as fh:
            chosen = json.load(fh)["chosen"]
        assert CFG.closeness_sample_mult == chosen["closeness_sample_mult"]
        assert CFG.closeness_threshold_mult == chosen["closeness_threshold_mult"]

    def test_repetition_counts(self):
        assert repetitions(0.05, CFG) == 9
        assert repetitions(1.0 / 80.0, CFG) == 17
        assert repetitions(1.0 / 120.0, CFG) == 21
        assert repetitions(1.0 / 180.0, CFG) == 23
        assert repetitions(0.5, CFG) == 1
        assert repetitions(0.9, CFG) == 1

    @pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 0.05, 1 / 80, 1 / 120, 1 / 180, 1e-3, 1e-6])
    def test_repetitions_are_the_smallest_count_the_binomial_tail_allows(self, delta):
        r = repetitions(delta, CFG)
        assert upper_tail(r, 0.25) <= delta
        assert all(upper_tail(s, 0.25) > delta for s in range(1, r))
        # never more than the Hoeffding count ceil(8 ln(1/delta)) it replaced
        assert r <= max(1, math.ceil(8 * math.log(1 / delta)))

    def test_repetitions_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            repetitions(0.0, CFG)
        with pytest.raises(DomainError):
            repetitions(1.0, CFG)


class TestRacePlan:
    """_race_plan sizes the closeness race exactly at per-vote error 1/4."""

    DELTAS = [0.45, 0.25, 0.2, 0.1, 0.05, 1 / 80, 1 / 120, 1 / 180, 0.01, 1e-4, 1e-6]

    def test_two_and_three_axis_plans(self):
        assert estimators._race_plan(1 / 80) == (5, 19)
        assert estimators._race_plan(1 / 120) == (5, 23)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_plan_is_the_smallest_race_within_delta(self, delta):
        h, r = estimators._race_plan(delta)
        quarter, bound = Fraction(1, 4), Fraction(delta)
        assert r % 2 == 1
        assert max(race_errors(h, r, quarter)) <= bound
        # h is the smallest lead whose uncapped race errs w.p. at most
        # delta / 2, and r the smallest odd cap within delta.
        assert Fraction(1, 3**h + 1) <= bound / 2
        if h > 1:
            assert Fraction(1, 3 ** (h - 1) + 1) > bound / 2
        if r > 1:
            assert race_errors(h, r - 2, quarter)[0] > bound

    @pytest.mark.parametrize("delta", [1 / 80, 1 / 120])
    def test_error_does_not_fall_as_the_vote_error_rises(self, delta):
        plan = estimators._race_plan(delta)
        errors = [race_errors(*plan, Fraction(k, 64)) for k in range(17)]
        for side in (0, 1):
            assert all(a[side] <= b[side] for a, b in zip(errors, errors[1:]))
        assert errors[0] == (0, 0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError):
            estimators._race_plan(delta)


def _calibration_script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "calibrate_closeness.py")
    spec = importlib.util.spec_from_file_location("calibrate_closeness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepetitionPremise:
    """repetitions() and _race_plan() assume each norm statistic and each
    closeness vote errs w.p. at most 1/4; these measure that premise for
    both estimators on the calibration laws."""

    def test_calibrated_closeness_error_is_at_most_a_quarter(self):
        with open(CALIBRATION) as fh:
            chosen = json.load(fh)["chosen"]
        assert chosen["max_error"] == max(chosen["errors"].values())
        assert chosen["max_error"] <= estimators.REP_ERROR

    def test_norm_misses_are_covered_by_the_tail(self, monkeypatch):
        # One estimate_l2_squared call with `trials` repetitions per law, its
        # per-repetition statistics read off the _ordered_pairs seam. Misses
        # below 1/2 and above 3/2 of the truth are counted apart; the median
        # of r fails only when ceil(r/2) repetitions miss on one side, so the
        # two Wilson-upper tails together must stay within delta.
        trials = 40_000
        script = _calibration_script()
        laws = [np.full(M, 1.0 / M) for M in script.SIZES]
        laws += [script.two_level_law(M, ratio) for ratio in script.NORM_RATIOS for M in script.SHAPED_SIZES]
        kernel = estimators._ordered_pairs
        pairs = []

        def recording(idx):
            pairs.append(kernel(idx))
            return pairs[-1]

        monkeypatch.setattr(estimators, "_ordered_pairs", recording)
        monkeypatch.setattr(estimators, "repetitions", lambda delta, cfg: trials)
        misses = []
        for i, law in enumerate(laws):
            M = law.size
            estimate_l2_squared(FlatView.from_law(law), M, 0.1, CFG, Rng(33, (i,)))
            T = math.ceil(CFG.norm_sample_mult * math.ceil(math.sqrt(M)))
            ratio = pairs[-1] / (T * (T - 1)) / float(law @ law)
            below, above = int(np.sum(ratio < 0.5)), int(np.sum(ratio > 1.5))
            misses.append((wilson_interval(below, trials)[1], wilson_interval(above, trials)[1]))
        monkeypatch.undo()
        for delta in (1 / 120, 1 / 180):
            r = repetitions(delta, CFG)
            for lo, hi in misses:
                assert upper_tail(r, lo) + upper_tail(r, hi) <= delta


class TestFlatViewFromLaw:
    def test_draw_law(self):
        pv = np.array([0.7, 0.2, 0.1])
        draws = FlatView.from_law(pv).draw(30000, Rng(1))
        emp = np.bincount(draws, minlength=3) / 30000
        assert 0.5 * np.abs(emp - pv).sum() < 0.02

    def test_draws_deterministic(self):
        s = FlatView.from_law(np.array([0.5, 0.5]))
        assert np.array_equal(s.draw(40, Rng(2)), s.draw(40, Rng(2)))

    def test_law_is_normalized_when_built(self):
        assert np.array_equal(FlatView.from_law(np.array([1.0, 1.0, 2.0])).probs, [0.25, 0.25, 0.5])


class TestL2Estimator:
    def test_point_mass_is_exact(self):
        # every batch collides completely, so the statistic is exactly 1
        v = FlatView.from_law(np.array([1.0]))
        for t in range(10):
            assert estimate_l2_squared(v, 1, 0.1, CFG, Rng(3, (t,))) == 1.0

    def test_uniform_contract(self):
        v = lambda: FlatView.from_law(np.full(50, 0.02))
        hits = sum(
            0.01 <= estimate_l2_squared(v(), 50, 0.05, CFG, Rng(4, (t,))) <= 0.03
            for t in range(200)
        )
        assert hits >= 190

    def test_skewed_vector_oracle(self):
        # direct summation: 0.5^2 + 0.25^2 + 0.25^2 = 0.375
        pv = np.array([0.5, 0.25, 0.25])
        true = 0.375
        ests = [
            estimate_l2_squared(FlatView.from_law(pv), 3, 0.05, CFG, Rng(5, (t,)))
            for t in range(200)
        ]
        assert 0.5 * true <= float(np.median(ests)) <= 1.5 * true

    def test_collision_statistic_is_unbiased(self):
        # Monte-Carlo mean of the single-batch statistic within 3 SE of ||p||_2^2
        gen = Rng(6).gen
        pv = gen.dirichlet(np.ones(6))
        true = float(np.dot(pv, pv))
        T = 20
        stats = np.empty(10000)
        for i in range(10000):
            counts = gen.multinomial(T, pv)
            stats[i] = np.dot(counts, counts - 1) / (T * (T - 1))
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - true) <= 3 * se

    def test_sample_accounting_exact(self):
        account = SampleAccount()
        M, delta = 30, 0.05
        estimate_l2_squared(FlatView.from_law(np.full(30, 1 / 30)), M, delta, CFG, Rng(7), account)
        T = max(2, math.ceil(CFG.norm_sample_mult * math.ceil(math.sqrt(M))))
        assert account.norm == T * repetitions(delta, CFG)

    def test_custom_stage_and_cost(self):
        account = SampleAccount()
        v = FlatView.from_law(np.array([0.5, 0.5]))
        v.cost = 3
        estimate_l2_squared(v, 2, 0.5, CFG, Rng(8), account, stage="flattening")
        T = max(2, math.ceil(CFG.norm_sample_mult * math.ceil(math.sqrt(2))))
        assert account.flattening == T * repetitions(0.5, CFG) * 3
        assert account.norm == 0

    def test_domain_size_validation(self):
        with pytest.raises(DomainError):
            estimate_l2_squared(FlatView.from_law(np.array([1.0])), 0, 0.1, CFG, Rng(9))

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=60).filter(
            lambda w: any(x > 0 for x in w)
        ),
        seed=st.integers(0, 2**32 - 1),
        delta=st.sampled_from([0.5, 0.1, 1e-3]),
        mult=st.sampled_from([0.5, 4.0]),
        explicit=st.booleans(),
    )
    def test_matches_the_per_repetition_histogram_formula(self, weights, seed, delta, mult, explicit):
        # The sorted (r, T) batch counts the same collisions from the same
        # draws, so the median is the same float, bit for bit.
        cfg = EstimatorConfig(norm_sample_mult=mult)
        view = FlatView.from_law(np.array(weights) / sum(weights))
        if not explicit:
            view = draw_only(view)
        M = len(weights)
        got = estimate_l2_squared(view, M, delta, cfg, Rng(seed))
        want = reference_l2_squared(view, M, delta, cfg, Rng(seed))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestClosenessTest:
    def test_params_formulas(self):
        M, b, eps = 50, 1.0 / 50.0, 0.3
        lam, thr = closeness_params(M, b, eps, CFG)
        assert lam == pytest.approx(CFG.closeness_sample_mult * M * math.sqrt(b) / eps**2)
        assert thr == pytest.approx(CFG.closeness_threshold_mult * lam * lam * eps**2 / M)

    def test_params_clamp_norm_bound(self):
        lam_clamped, _ = closeness_params(10, 5.0, 0.3, CFG)
        lam_unit, _ = closeness_params(10, 1.0, 0.3, CFG)
        assert lam_clamped == lam_unit

    def test_params_validation(self):
        with pytest.raises(DomainError):
            closeness_params(10, 0.0, 0.3, CFG)
        with pytest.raises(DomainError):
            closeness_params(10, 1.0, 0.0, CFG)
        with pytest.raises(DomainError):
            closeness_params(10, 1.0, 2.5, CFG)

    def test_identical_count_vectors_score_negative(self):
        # (X-Y)^2 - X - Y with X = Y reduces to -2 sum X, never above threshold
        x = np.array([3.0, 0.0, 7.0])
        z = float(np.dot(x - x, x - x) - x.sum() - x.sum())
        assert z == -2 * x.sum()
        assert z < 0

    def test_statistic_mean_matches_l2_gap(self):
        # E[Z] = lambda^2 ||p - q||_2^2, Monte-Carlo on a small support
        gen = Rng(10).gen
        p = gen.dirichlet(np.ones(8))
        q = gen.dirichlet(np.ones(8))
        lam = 200.0
        target = lam * lam * float(np.dot(p - q, p - q))
        zs = np.empty(20000)
        for i in range(20000):
            x = gen.poisson(lam * p)
            y = gen.poisson(lam * q)
            d = x.astype(float) - y
            zs[i] = np.dot(d, d) - x.sum() - y.sum()
        se = zs.std(ddof=1) / math.sqrt(zs.size)
        assert abs(zs.mean() - target) <= 3 * se

    def test_z_is_exact_past_the_int64_range(self):
        # lambda = 2.5e9 per stream on two disjoint point masses: X - Y is
        # about (2.5e9, -2.5e9), so sum (X_i - Y_i)^2 = 1.25e19 passes 2^63,
        # where an int64 dot wraps negative. The vote must see the exact Z.
        p, q = FlatView.from_law(np.array([1.0, 0.0])), FlatView.from_law(np.array([0.0, 1.0]))
        eps = 4e-5
        lam, _ = closeness_params(2, 1.0, eps, CFG)
        assert (2 * lam) ** 2 > 2**63 and 2 * lam > estimators._INT64_DOT_SAMPLES
        assert not closeness_test(p, q, 2, 1.0, eps, 0.1, CFG, Rng(52))

    def test_null_accepts(self):
        hits = 0
        for t in range(60):
            u = FlatView.from_law(np.full(50, 0.02))
            v = FlatView.from_law(np.full(50, 0.02))
            hits += closeness_test(u, v, 50, 1 / 50, 0.3, 0.05, CFG, Rng(11, (t,)))
        assert hits >= 54

    def test_far_pair_rejects(self):
        hits = 0
        for t in range(60):
            p = FlatView.from_law(np.array([1.0, 0.0]))
            q = FlatView.from_law(np.array([0.5, 0.5]))
            hits += not closeness_test(p, q, 2, 1.0, 0.3, 0.05, CFG, Rng(12, (t,)))
        assert hits >= 54

    def test_accounting_deterministic_and_cost_weighted(self):
        p = FlatView.from_law(np.full(10, 0.1))
        q = FlatView.from_law(np.full(10, 0.1))
        q.cost = 2
        a1, a2 = SampleAccount(), SampleAccount()
        closeness_test(p, q, 10, 0.1, 0.3, 0.5, CFG, Rng(13), a1)
        p2 = FlatView.from_law(np.full(10, 0.1))
        q2 = FlatView.from_law(np.full(10, 0.1))
        q2.cost = 2
        closeness_test(p2, q2, 10, 0.1, 0.3, 0.5, CFG, Rng(13), a2)
        assert a1.closeness == a2.closeness > 0

    @staticmethod
    def _near_threshold_pair(seed: int, M: int, gap: float, eps: float):
        """Laws p, q with ||p - q||_2^2 = gap * 1.5 eps^2 / M (unless q hits w).

        At gap 1 the statistic's mean lambda^2 ||p - q||_2^2 sits on the
        reject threshold, so single votes go both ways near it.
        """
        gen = Rng(seed).gen
        p = gen.dirichlet(np.ones(M))
        w = gen.dirichlet(np.ones(M))
        t = min(1.0, math.sqrt(gap * CFG.closeness_threshold_mult * eps * eps / M / float((p - w) @ (p - w))))
        return p, (1 - t) * p + t * w

    def _votes(self, p, q, M, b, eps, plan, explicit, seed):
        """closeness_test's verdict, its account and the (X, Y) pairs it drew
        when _race_plan returns plan = (h, r), next to every one of the r
        votes recomputed from the same streams (True for reject)."""
        views = [FlatView.from_law(v) for v in (p, q)]
        if not explicit:
            views = [draw_only(v) for v in views]
        lam, threshold = closeness_params(M, b, eps, CFG)
        kernel = estimators._poissonized_counts
        drawn = []

        def recording(v, table, lam, rng):
            counts = kernel(v, table, lam, rng)
            drawn.append(counts)
            return counts

        account = SampleAccount()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_poissonized_counts", recording)
            mp.setattr(estimators, "_race_plan", lambda delta: plan)
            accepted = closeness_test(*views, M, b, eps, 0.1, CFG, Rng(seed), account)
        rng = Rng(seed)
        r = plan[1]
        votes = []
        for j in range(r):
            xy = [
                kernel(v, estimators._count_table(v, lam, r), lam, rng)
                if explicit
                else kernel(v, None, lam, rng.split(2 * j + i))
                for i, v in enumerate(views)
            ]
            d = xy[0].astype(np.float64) - xy[1]
            votes.append(float(d @ d - xy[0].sum() - xy[1].sum()) > threshold)
        return accepted, account, drawn, votes

    @staticmethod
    def _regime(M: int, sparse: bool) -> tuple[int, float, float]:
        """(M, b, eps): b = 1 puts lambda above M, so each cell draws its own
        Poisson; b = 1/M at eps .5 on 100 or more cells puts it below M, so
        the batch is drawn as inverse-CDF symbols."""
        if not sparse:
            return M, 1.0, 0.3
        M = 100 + 25 * M
        assert closeness_params(M, 1 / M, 0.5, CFG)[0] < M
        return M, 1 / M, 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(2, 12),
        gap=st.floats(0.3, 2.0),
        plan=st.one_of(
            st.sampled_from([0.45, 0.1, 0.01, 1e-4]).map(estimators._race_plan),
            st.tuples(st.integers(1, 4), st.integers(1, 12)),
        ),
        explicit=st.booleans(),
        sparse=st.booleans(),
    )
    def test_curtailed_vote_is_the_full_majority(self, seed, M, gap, plan, explicit, sparse):
        # The verdict is the race's outcome over the votes the streams hold,
        # and only the votes up to its stopping vote tau draw. Besides the
        # exact plans, any (h, r) is run, so an even cap can end in a tie,
        # which must reject.
        M, b, eps = self._regime(M, sparse)
        p, q = self._near_threshold_pair(seed, M, gap, eps)
        accepted, account, drawn, votes = self._votes(p, q, M, b, eps, plan, explicit, seed)
        verdict, tau, _ = race(votes, *plan)
        assert accepted == verdict
        assert len(drawn) == 2 * tau
        assert account.closeness == sum(int(c.sum()) for c in drawn)

    def test_near_threshold_laws_split_the_votes(self):
        # The property above is not vacuous: on these laws single votes go
        # both ways, and calls stop at a lead of h and at the cap, with
        # lambda above M and below it.
        plan = estimators._race_plan(0.01)
        for sparse in (False, True):
            M, b, eps = self._regime(4, sparse)
            mixed = early = capped = 0
            for seed in range(20):
                p, q = self._near_threshold_pair(seed, M, 1.0, eps)
                _, _, drawn, votes = self._votes(p, q, M, b, eps, plan, True, seed)
                tau = len(drawn) // 2
                mixed += 0 < sum(votes[:tau]) < tau
                early += tau < plan[1]
                capped += tau == plan[1]
            assert mixed >= 10
            assert early >= 5
            assert capped >= 5

    def test_validation(self):
        v = FlatView.from_law(np.array([1.0]))
        with pytest.raises(DomainError):
            closeness_test(v, v, 1, 1.0, 0.0, 0.1, CFG, Rng(14))
        with pytest.raises(DomainError):
            closeness_test(v, v, 1, -1.0, 0.3, 0.1, CFG, Rng(14))


class TestDomainSize:
    """M must be the number of cells the views draw over; anything else is a
    DomainError before any draw, with or without a law."""

    @staticmethod
    def _view(size: int, explicit: bool) -> FlatView:
        v = FlatView.from_law(np.full(size, 1 / size))
        return v if explicit else draw_only(v)

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("M", [7, 99, 101, 1000])
    def test_norm_rejects_a_domain_size_that_is_not_the_views(self, M, explicit):
        # M = 7 on 100 cells used to return a median of 0.0
        with pytest.raises(DomainError, match="100 cells"):
            estimate_l2_squared(self._view(100, explicit), M, 0.1, CFG, Rng(50))

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize(
        "M, sizes",
        [
            # lambda sized for the wrong M, and a vote cast anyway
            (10, (100, 100)),
            (1000, (100, 100)),
            # numpy's broadcast ValueError from X - Y
            (100, (100, 50)),
            (50, (100, 50)),
        ],
    )
    def test_closeness_rejects_a_domain_size_that_is_not_the_views(self, M, sizes, explicit):
        p, q = (self._view(size, explicit) for size in sizes)
        account = SampleAccount()
        with pytest.raises(DomainError, match="but the view has"):
            closeness_test(p, q, M, 1 / M, 0.3, 0.1, CFG, Rng(51), account)
        assert account.total == 0


class TestClosenessMemory:
    """Peak traced allocation of one closeness_test call, on uniform laws."""

    # Each figure is the peak that the binary-search kernel with a float Z
    # reached on the same call (584,142 bytes sparse, 1,469,608 dense), plus
    # one guide table of G int64 entries, G = 16,384 and 32,768. The sparse
    # call holds two guides; the dense one builds none and its integer Z
    # makes no float copies of the count vectors.
    @pytest.mark.parametrize(
        "M, eps, sparse, limit",
        [(9_202, 0.4, True, 584_142 + 8 * 16_384), (25_000, 1 / 192, False, 1_469_608 + 8 * 32_768)],
    )
    def test_peak_stays_under_the_stated_figure(self, M, eps, sparse, limit):
        view = FlatView.from_law(np.full(M, 1 / M))
        b = 2 / M
        assert (closeness_params(M, b, eps, CFG)[0] < M) == sparse
        # A first call pays for lazily built state (the seeded generator, the
        # memoized race plan); the second is the one measured.
        closeness_test(view, view, M, b, eps, 1 / 80, CFG, Rng(60))
        tracemalloc.start()
        try:
            closeness_test(view, view, M, b, eps, 1 / 80, CFG, Rng(61))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestStreamLayout:
    """Count-level calls draw every repetition from the Rng they were given."""

    @staticmethod
    def _streams_built(monkeypatch, call) -> int:
        built = []
        init = Rng.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Rng, "__init__", counting)
        call()
        monkeypatch.setattr(Rng, "__init__", init)
        return len(built)

    @pytest.mark.parametrize("which", ["norm", "closeness"])
    def test_stream_count_does_not_grow_with_repetitions(self, monkeypatch, which):
        v = FlatView.from_law(np.full(20, 0.05))

        def call(delta):
            rng = Rng(30)
            if which == "norm":
                return lambda: estimate_l2_squared(v, 20, delta, CFG, rng)
            return lambda: closeness_test(v, v, 20, 0.05, 0.3, delta, CFG, rng)

        assert repetitions(1e-6, CFG) > 5 * repetitions(0.1, CFG)
        few = self._streams_built(monkeypatch, call(0.1))
        many = self._streams_built(monkeypatch, call(1e-6))
        assert few == many

    def test_norm_batches_follow_the_multinomial_law(self, monkeypatch):
        # Over many calls each cell's mean batch count is T p_i within 4.5
        # standard errors of the multinomial, zero-mass cells get nothing, and
        # the collision statistic stays unbiased for ||p||_2^2.
        pv = np.array([0.0, 0.4, 0.0, 0.25, 0.2, 0.15, 0.0])
        M = pv.size
        T = max(2, math.ceil(CFG.norm_sample_mult * math.ceil(math.sqrt(M))))
        batches = []
        kernel = estimators._ordered_pairs

        def recording(idx):
            # each row of the (r, T) batch is one repetition's sorted draws
            pairs = kernel(idx)
            counts = np.array([np.bincount(row, minlength=M) for row in idx])
            assert np.array_equal(pairs, (counts * (counts - 1)).sum(axis=1))
            batches.extend(counts)
            return pairs

        monkeypatch.setattr(estimators, "_ordered_pairs", recording)
        per_call = []
        for t in range(300):
            start = len(batches)
            estimate_l2_squared(FlatView.from_law(pv), M, 0.1, CFG, Rng(31, (t,)))
            per_call.append(batches[start:])
        counts = np.array(batches, dtype=np.float64)
        n = counts.shape[0]
        assert n == 300 * repetitions(0.1, CFG)
        assert np.all(counts.sum(axis=1) == T)
        assert np.all(counts[:, pv == 0] == 0)
        se = np.sqrt(T * pv * (1 - pv) / n)
        pos = pv > 0
        assert np.all(np.abs(counts.mean(axis=0) - T * pv)[pos] <= 4.5 * se[pos])
        stats = (counts * (counts - 1)).sum(axis=1) / (T * (T - 1))
        assert abs(stats.mean() - float(pv @ pv)) <= 4.5 * stats.std(ddof=1) / math.sqrt(n)
        for reps in per_call:
            assert any(not np.array_equal(reps[0], c) for c in reps[1:])

    @pytest.mark.parametrize("explicit", [True, False])
    def test_closeness_draws_x_then_y_through_the_count_seam(self, monkeypatch, explicit):
        # perfbench's tracer counts reject votes by wrapping
        # estimators._poissonized_counts and pairing its results X, Y, X, Y.
        def view(pv):
            s = FlatView.from_law(pv)
            return s if explicit else FlatView(size=s.size, probs=None, cost=1, draw=s.draw)

        seen = []
        kernel = estimators._poissonized_counts

        def recording(v, table, lam, rng):
            counts = kernel(v, table, lam, rng)
            seen.append((v, counts))
            return counts

        monkeypatch.setattr(estimators, "_poissonized_counts", recording)
        # The exact plan stops this far pair at a lead of h; (5, 4) runs
        # it to the cap.
        for h, r in (estimators._race_plan(0.1), (5, 4)):
            monkeypatch.setattr(estimators, "_race_plan", lambda delta: (h, r))
            # b = 1 on 6 cells runs lambda above M; b = 1/M on 100 cells below it.
            for M, b, sparse in ((6, 1.0, False), (100, 0.01, True)):
                skewed = np.full(M, 0.5 / (M - 1))
                skewed[0] = 0.5
                p, q = view(np.full(M, 1 / M)), view(skewed)
                seen.clear()
                closeness_test(p, q, M, b, 0.5, 0.1, CFG, Rng(32))
                # The vote stops after vote k, the first at a lead of h, or at r.
                lam, threshold = closeness_params(M, b, 0.5, CFG)
                assert (lam < M) == sparse
                lead = k = 0
                while abs(lead) < h and k < r:
                    (_, x), (_, y) = seen[2 * k : 2 * k + 2]
                    d = x.astype(np.float64) - y
                    z = float(d @ d - x.sum() - y.sum())
                    lead, k = lead + (1 if z <= threshold else -1), k + 1
                assert k == min(h, r)
                assert len(seen) == 2 * k
                assert all(v is w for (v, _), w in zip(seen, [p, q] * k))
                for _, counts in seen:
                    assert isinstance(counts, np.ndarray)
                    assert counts.shape == (M,)
                    assert np.issubdtype(counts.dtype, np.integer)


class TestPoissonizedCounts:
    """The closeness count kernel: sparse below lambda = M, per-cell Poisson at and above."""

    # Zero-mass cells lead, sit inside and trail.
    LAW = np.array([0.0, 0.0, 0.3, 0.0, 0.1, 0.2, 0.0, 0.15, 0.25, 0.0, 0.0])

    @pytest.mark.parametrize("ratio", [0.05, 0.5, 0.99])
    def test_sparse_counts_are_independent_poissons(self, ratio):
        # Below one expected sample per cell the kernel draws a Poi(lam)
        # count of symbols; by Poisson splitting each cell is Poi(lam p_i)
        # and disjoint cells are independent. A fixed-size multinomial batch
        # would fail the variance and covariance checks.
        law, M = self.LAW, self.LAW.size
        lam = ratio * M
        view = FlatView.from_law(law)
        rng = Rng(40)
        n = 20_000
        # One table serves all n batches, which is enough lookups for a guide.
        table = estimators._count_table(view, lam, n)
        u = np.linspace(0.0, 1.0, 64, endpoint=False)
        assert np.array_equal(table(u), inverse_cdf(np.cumsum(law), 1)(u))
        counts = np.array([estimators._poissonized_counts(view, table, lam, rng) for _ in range(n)])
        assert counts.shape == (n, M)
        assert np.issubdtype(counts.dtype, np.integer)
        assert np.all(counts[:, law == 0] == 0)
        pos = law > 0
        mu = lam * law[pos]
        c = counts[:, pos].astype(np.float64)
        assert np.all(np.abs(c.mean(axis=0) - mu) <= 4.5 * np.sqrt(mu / n))
        # A Poisson's variance is its mean; the sample variance of Poi(mu)
        # has variance about (mu + 2 mu^2) / n.
        assert np.all(np.abs(c.var(axis=0, ddof=1) - mu) <= 4.5 * np.sqrt((mu + 2 * mu * mu) / n))
        a, b = counts[:, [2, 4]].sum(axis=1), counts[:, [5, 7, 8]].sum(axis=1)
        mu_a, mu_b = lam * law[[2, 4]].sum(), lam * law[[5, 7, 8]].sum()
        assert abs(np.cov(a, b)[0, 1]) <= 4.5 * math.sqrt(mu_a * mu_b / n)

    def test_dense_side_is_one_poisson_per_cell_from_the_same_stream(self):
        # At and above lambda = M the counts, and the stream left behind,
        # are exactly those of rng.gen.poisson(lam * law); just below M the
        # kernel draws K ~ Poi(lam) inverse-CDF symbols instead, with or
        # without a guide table (one repetition, or enough for one).
        law, M = self.LAW, self.LAW.size
        view = FlatView.from_law(law)
        for lam in (float(M), M * (1 + 1e-12), 3.7 * M, 2.5e7):
            rng, ref = Rng(41), Rng(41).gen
            counts = estimators._poissonized_counts(view, estimators._count_table(view, lam, 17), lam, rng)
            assert np.array_equal(counts, ref.poisson(lam * law))
            assert rng.gen.bit_generator.state == ref.bit_generator.state
        lam = math.nextafter(M, 0)
        for r in (1, 1000):
            rng, ref = Rng(41), Rng(41).gen
            counts = estimators._poissonized_counts(view, estimators._count_table(view, lam, r), lam, rng)
            u = ref.random(int(ref.poisson(lam)))
            assert np.array_equal(counts, np.bincount(inverse_cdf(np.cumsum(law), u.size)(u), minlength=M))
            assert rng.gen.bit_generator.state == ref.bit_generator.state


class TestLearnEmpirical:
    def test_point_mass_reproduced_exactly(self):
        t = np.zeros((2, 3))
        t[1, 2] = 1.0
        p = JointDistribution.from_table(t)
        emp = learn_empirical(JointSampler(p), 57, Rng(20))
        assert np.array_equal(emp.probs, p.probs)

    def test_counts_are_rational_with_denominator_t(self):
        p = JointDistribution.uniform((3, 2))
        emp = learn_empirical(JointSampler(p), 40, Rng(21))
        scaled = emp.probs * 40
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        assert emp.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_accounting(self):
        p = JointDistribution.uniform((2, 2))
        account = SampleAccount()
        learn_empirical(JointSampler(p), 123, Rng(22), account)
        assert account.learning == 123

    def test_marginals_match_projected_histograms(self):
        # with a row-level sampler, the empirical joint's marginal equals the
        # histogram of the projected rows, exactly
        p = JointDistribution((3, 4), Rng(23).gen.dirichlet(np.ones(12)))

        drawn = {}

        class RecordingSampler:
            dims = (3, 4)

            def draw(self, count, rng):
                rows = JointSampler(p).draw(count, rng)
                drawn["rows"] = rows
                return rows

        t = 500
        emp = learn_empirical(RecordingSampler(), t, Rng(24))
        rows = drawn["rows"]
        for axis, size in [(0, 3), (1, 4)]:
            hist = np.bincount(rows[:, axis], minlength=size) / t
            marg = emp.table().sum(axis=1 - axis)
            assert np.allclose(marg, hist, atol=1e-12)

    def test_learning_rate(self):
        # t = ceil((M + ln(1/delta)) / eta^2) brings the empirical within eta
        gen = Rng(25).gen
        M, eta, delta = 12, 0.1, 0.1
        pv = gen.dirichlet(np.ones(M))
        p = JointDistribution((M,), pv) if M >= 2 else None
        t = math.ceil((M + math.log(1 / delta)) / eta**2)
        hits = 0
        for i in range(200):
            emp = learn_empirical(JointSampler(p), t, Rng(26, (i,)))
            hits += tv_distance(emp, p) <= eta
        assert hits >= 180

    def test_t_validation(self):
        p = JointDistribution.uniform((2, 2))
        with pytest.raises(DomainError):
            learn_empirical(JointSampler(p), 0, Rng(27))


class TestEmpiricalTvToProduct:
    def test_product_scores_zero(self):
        p = JointDistribution.from_table(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert tv_to_own_product(p) < 1e-15

    def test_correlated_pair(self):
        p = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
        assert tv_to_own_product(p) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_outer_product_oracle(self):
        gen = Rng(28).gen
        t = gen.dirichlet(np.ones(9)).reshape(3, 3)
        p = JointDistribution.from_table(t)
        outer = np.outer(t.sum(axis=1), t.sum(axis=0))
        assert tv_to_own_product(p) == pytest.approx(
            0.5 * np.abs(t - outer).sum(), abs=1e-12
        )
