"""Tests for the l2 estimator, the closeness tester, and empirical learning."""

import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augtest import bench, domain, estimators, testers
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
from augtest.testers import TesterConfig, aug_independence_2d

CFG = EstimatorConfig()
CALIBRATION = os.path.join(os.path.dirname(__file__), os.pardir, "calibration.json")
# The first M of each closeness band, which EstimatorConfig owns.
EDGES = [first for first, _, _ in CFG.closeness_bands]
BANDS = ((9, 3.0, 1.45), (50, 3.0, 1.75), (200, 3.5, 1.7))
# The 12, 12 and 24 cells of the calibration grids of the bands from 9, 50
# and 200 cells, in band order.
BAND_CELLS = range(48)
# The top band's premise cells on 100 x 20 and 128 x 64 grids: on each the
# one its premise check errs most on and the uniform null.
LARGE_BAND_CELLS = [
    ("100x20,bM=5,eps=0.3,null", 5000),
    ("100x20,eps=0.3,null", 5000),
    ("128x64,bM=5,eps=0.1,null", 5000),
    ("128x64,eps=0.3,null", 5000),
]


def draw_only(view: FlatView) -> FlatView:
    """The same view, grid and all, with its law hidden, so every batch splits a stream."""
    return FlatView(size=view.size, probs=None, cost=view.cost, draw=view.draw, dims=view.dims)


def grid_view(law: np.ndarray, explicit: bool = True) -> FlatView:
    """A view over a law's cells, row-major, that carries its grid; with
    explicit False its law is hidden, so the batch splits a stream."""
    view = FlatView.from_law(law.reshape(-1))
    view.dims = law.shape
    return view if explicit else draw_only(view)


def upper_tail(r: int, p: float) -> float:
    """P(Bin(r, p) >= ceil(r/2)), from the law of Bin(r, p) built by r
    convolutions with a Bernoulli(p); independent of the estimators' sums."""
    law = np.ones(1)
    for _ in range(r):
        law = np.convolve(law, [1.0 - p, p])
    return float(law[math.ceil(r / 2) :].sum())


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


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_is_numpys_median_to_the_bit(self, values):
        # Odd lengths, the only ones _median_plan returns; ties, signed zeros
        # and values near the float range's ends.
        if len(values) % 2 == 0:
            values = values[1:]
        x = np.array(values)
        with np.errstate(over="ignore"):
            assert estimators._median(x.copy()) == float(np.median(x))


class TestConfig:
    def test_defaults_are_the_calibrated_constants(self):
        # the norm's multiplier and one closeness band table
        assert [field.name for field in dataclasses.fields(EstimatorConfig)] == ["norm_sample_mult", "closeness_bands"]
        assert CFG.norm_sample_mult == 4.0
        assert CFG.closeness_bands == BANDS
        # a recalibration that is not carried into the defaults fails here
        with open(CALIBRATION) as fh:
            record = json.load(fh)
        assert CFG.norm_sample_mult == record["norm"]["chosen"]["norm_sample_mult"]
        assert CFG.closeness_bands == tuple(
            (band["first_M"], band["chosen"]["closeness_sample_mult"], band["chosen"]["closeness_threshold_mult"])
            for band in record["independence"]["bands"]
        )

    def test_repetition_counts(self):
        assert estimators.NORM_SIDE_ERROR == 10 / 64
        assert repetitions(0.05, CFG) == 7
        assert repetitions(1.0 / 80.0, CFG) == 11
        assert repetitions(1.0 / 120.0, CFG) == 11
        assert repetitions(1.0 / 180.0, CFG) == 13
        assert repetitions(0.5, CFG) == 1
        assert repetitions(0.9, CFG) == 1

    @pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 0.05, 1 / 80, 1 / 120, 1 / 180, 1e-3, 1e-6])
    def test_repetitions_are_the_smallest_count_the_binomial_tail_allows(self, delta):
        # each side of the median is held to delta / 2
        r = repetitions(delta, CFG)
        side = estimators.NORM_SIDE_ERROR
        assert upper_tail(r, side) <= delta / 2
        assert all(upper_tail(s, side) > delta / 2 for s in range(1, r))
        # never more than the Hoeffding count ceil(8 ln(1/delta)) it replaced
        assert r <= max(1, math.ceil(8 * math.log(1 / delta)))

    def test_repetitions_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            repetitions(0.0, CFG)
        with pytest.raises(DomainError):
            repetitions(1.0, CFG)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 24), delta=st.floats(1e-3, 0.5))
    @example(k=24, delta=1e-3)
    @example(k=1, delta=0.5)
    def test_median_plan_is_the_smallest_count_of_either_parity_and_odd(self, k, delta):
        # The tail over every r, odd and even, times 64^r as an integer, so
        # the comparison with delta / 2 is exact.
        num, den = delta.as_integer_ratio()

        def meets(r):
            tail = sum(math.comb(r, i) * k**i * (64 - k) ** (r - i) for i in range((r + 1) // 2, r + 1))
            return 2 * tail * den <= num * 64**r

        smallest = next(r for r in itertools.count(1) if meets(r))
        assert estimators._median_plan(delta, k / 64) == smallest
        assert smallest % 2 == 1

    @pytest.mark.parametrize("side_error", [0.0, 0.5, 0.75, -0.125])
    def test_median_plan_rejects_a_side_error_no_median_can_beat(self, side_error):
        with pytest.raises(DomainError, match="side_error"):
            estimators._median_plan(0.1, side_error)


class TestClosenessError:
    """closeness_test is sized for one calibrated error, CLOSENESS_ERROR, and
    takes no delta below it."""

    def test_is_the_bound_every_band_is_held_to_and_covers_every_tester(self):
        assert estimators.CLOSENESS_ERROR == 13 / 2048
        with open(CALIBRATION) as fh:
            bands = json.load(fh)["independence"]["bands"]
        assert len(bands) == len(CFG.closeness_bands)
        assert all(band["chosen"]["bound"] <= estimators.CLOSENESS_ERROR for band in bands)
        cfg = testers.TesterConfig(0.3, 0.1)
        deltas = [testers._plan(dims, cfg).close_delta for dims in [(4, 3), (4, 3, 2), (2,) * 5, (16,) * 4]]
        assert estimators.CLOSENESS_ERROR <= min(deltas) == 1 / 120

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("delta", [math.nextafter(13 / 2048, 0), 1 / 200, 1e-6, 0.0, -0.1, 1.0, math.nan])
    def test_a_delta_below_it_is_a_domain_error(self, delta, explicit):
        v = grid_view(np.full((2, 2), 0.25), explicit)
        account = SampleAccount()
        with pytest.raises(DomainError, match="delta must be"):
            closeness_test(v, 4, 0.25, 0.3, delta, CFG, Rng(15), account)
        assert account.total == 0

    def test_a_delta_at_it_is_drawn(self):
        account = SampleAccount()
        view = grid_view(np.full((2, 2), 0.25))
        assert closeness_test(view, 4, 0.25, 0.3, estimators.CLOSENESS_ERROR, CFG, Rng(15), account)
        assert account.closeness > 0


@functools.cache
def _calibration_script():
    # loaded once and registered under its name, so that pickle finds the
    # functions its pool's workers run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "calibrate_closeness.py")
    spec = importlib.util.spec_from_file_location("calibrate_closeness", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["calibrate_closeness"] = module
    spec.loader.exec_module(module)
    return module


class TestCalibrationRecord:
    def test_the_record_holds_the_closeness_and_norm_grids_only(self):
        # the closeness bands are under "independence", the norm under "norm"
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            record = json.load(fh)
        assert list(record) == ["seed", "trials_per_cell", "grid", "norm", "independence"]
        assert record["seed"] == script.SEED and record["trials_per_cell"] == script.TRIALS == 40_000
        assert record["grid"] == {"closeness_threshold_mult": script.THRESHOLD_MULTS, "eps": script.EPSILONS}
        assert [band["first_M"] for band in record["independence"]["bands"]] == EDGES == [9, 50, 200]

    @pytest.mark.parametrize("band", range(3))
    def test_every_point_re_derives_from_its_errors(self, band):
        # each row of a closeness band follows from its recorded errors and
        # null standard deviations through the script's own rule, over the
        # product laws of the band's grids and their sign perturbations
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            entry = json.load(fh)["independence"]["bands"][band]
        assert entry["first_M"] == EDGES[band]
        grids = script.INDEPENDENCE_GRIDS[EDGES[band]]
        assert entry["grids"] == [list(dims) for dims in grids]
        assert {a * b for a, b in grids} <= set(range(EDGES[band], 4 * EDGES[band]))
        cells = script.independence_cells(grids)
        labels = [label for label, *_ in cells]
        assert entry["cells"] == labels
        nulls = [label for label, *_, case in cells if case == "null"]
        for point in entry["results"]:
            derived = script.independence_point(
                point["closeness_sample_mult"],
                point["select_worst"],
                point["select_errors"],
                point["check_errors"],
                point["null_sd"],
            )
            assert json.loads(json.dumps(derived)) == point
            assert len(point["select_worst"]) == len(script.THRESHOLD_MULTS) == 56
            assert list(point["select_errors"]) == list(point["check_errors"]) == labels
            assert max(point["select_errors"].values()) == point["select_error"]
            assert list(point["null_sd"]) == nulls

    @pytest.mark.parametrize("band", range(3))
    def test_each_bands_point_is_the_cheapest_left(self, band):
        # the config's closeness_bands is the record's chosen points; each
        # is the first left row, with a bound within CLOSENESS_ERROR and its
        # threshold at least 4 measured null standard deviations out
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            entry = json.load(fh)["independence"]["bands"][band]
        results, chosen = entry["results"], entry["chosen"]
        assert [point["closeness_sample_mult"] for point in results] == script.INDEPENDENCE_MULTS[: len(results)]
        assert [point["left"] for point in results] == [False] * (len(results) - 1) + [True]
        assert chosen == results[-1]
        assert chosen["bound"] <= estimators.CLOSENESS_ERROR
        assert chosen["null_sds"] >= script.NULL_SDS == 4.0
        assert CFG.closeness_bands[band] == (
            entry["first_M"],
            chosen["closeness_sample_mult"],
            chosen["closeness_threshold_mult"],
        )

    def test_the_null_tail_rule_refuses_what_the_bound_allows(self):
        # on 200 cells C 3 meets the bound, but its threshold sits under 4
        # measured null standard deviations out
        with open(CALIBRATION) as fh:
            rows = json.load(fh)["independence"]["bands"][2]["results"]
        first, chosen = rows[-2], rows[-1]
        assert first["closeness_sample_mult"] == 3.0 and chosen["closeness_sample_mult"] == 3.5
        assert first["bound"] <= estimators.CLOSENESS_ERROR
        assert first["null_sds"] < 4.0 <= chosen["null_sds"]
        assert not first["left"]

    def test_the_top_bands_premise_check_re_derives_and_holds(self):
        # the top band's point on the held-out sets of its 100 x 20 and
        # 128 x 64 grids errs within the band's own bound
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            bands = json.load(fh)["independence"]["bands"]
        assert [band["premise"] is None for band in bands] == [True, True, False]
        top = bands[2]
        premise = top["premise"]
        assert list(premise["check_errors"]) == [label for label, *_ in script.independence_cells(script.PREMISE_GRIDS)]
        assert premise["check_error"] == max(premise["check_errors"].values())
        assert premise["bound"] == script.bound_up(premise["check_error"], script.TRIALS, script.CLOSENESS_GRID)
        assert premise["holds"] and premise["bound"] <= top["chosen"]["bound"]

    def test_the_sign_perturbation_keeps_the_marginals_at_tv_eps(self):
        script = _calibration_script()
        for grids in [*script.INDEPENDENCE_GRIDS.values(), script.PREMISE_GRIDS]:
            cells = script.independence_cells(grids)
            for (_, null, b_null, eps, _), (_, alt, b, _, case) in zip(cells[::2], cells[1::2]):
                assert case == "alt"
                assert np.allclose(alt.sum(axis=1), null.sum(axis=1)) and np.allclose(alt.sum(axis=0), null.sum(axis=0))
                assert tv_to_own_product(JointDistribution(alt.shape, alt)) == pytest.approx(eps, abs=1e-12)
                assert b == min(b_null, float((alt * alt).sum()))

    def test_joint_z_blocks_are_the_library_statistic(self):
        # the script's row-wise Z equals the library's terms on each table
        # it draws, in blocks or not
        script = _calibration_script()
        p = script.independence_cells([(10, 5)])[1][1]
        one = script.joint_z_samples(p, 300.0, 40, Rng(37))
        gen = Rng(37).gen
        tables = [gen.poisson(300.0 * p) for _ in range(40)]
        assert np.allclose(one, [joint_z(n, 300.0) for n in tables], rtol=0, atol=1e-6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(script, "BLOCK_COUNTS", 50 * 7 + 1)
            assert np.array_equal(script.joint_z_samples(p, 300.0, 40, Rng(37)), one)

    def test_cell_rows_are_the_same_at_any_worker_count(self, monkeypatch):
        # the calibration's pool draws each cell on its own streams, so the
        # record does not depend on how many cores run it; its spawned
        # workers import the script by name
        script = _calibration_script()
        monkeypatch.syspath_prepend(os.path.dirname(script.__file__))
        monkeypatch.setattr(script, "TRIALS", 300)
        monkeypatch.setattr(script, "INDEPENDENCE_BANDS", CFG.closeness_bands[:2])
        monkeypatch.setattr(script, "PREMISE_GRIDS", [(20, 10)])
        runs = []
        for workers in (1, 2):
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                runs.append(script.calibrate_independence(pool))
        assert json.dumps(runs[0]) == json.dumps(runs[1])
        assert all(band["results"] for band in runs[0])

    def test_every_norm_point_re_derives_from_its_errors(self):
        # the norm's bound, repetition counts and cost follow from its
        # recorded per-side errors through the script's own rule, and the
        # chosen point is the cheapest, as NORM_SIDE_ERROR records it
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            norm = json.load(fh)["norm"]
        results = norm["results"]
        assert [point["norm_sample_mult"] for point in results] == script.NORM_SAMPLE_MULTS
        for point in results:
            derived = script.norm_plan_point(point["norm_sample_mult"], point["errors"])
            assert json.loads(json.dumps(derived)) == point
            assert len(point["errors"]) == 2 * len(norm["grid"]["laws"]) == 16
        chosen = norm["chosen"]
        assert chosen == min(results, key=lambda p: (p["cost"], p["reps"]["delta=1/180"]))
        assert chosen["bound"] == estimators.NORM_SIDE_ERROR
        assert chosen["reps"] == {"delta=1/120": 11, "delta=1/180": 13}


class TestRepetitionPremise:
    """repetitions() assumes each norm statistic falls below 1/2, and above
    3/2, of the truth w.p. at most NORM_SIDE_ERROR each, and closeness_test
    that its one batch errs w.p. at most CLOSENESS_ERROR in every band; these
    measure both premises on the calibration laws."""

    def test_calibrated_closeness_error_is_at_most_the_recorded_bound(self):
        with open(CALIBRATION) as fh:
            bands = json.load(fh)["independence"]["bands"]
        for band in bands:
            chosen = band["chosen"]
            assert chosen["check_error"] == max(chosen["check_errors"].values())
            assert chosen["check_error"] <= chosen["bound"] <= estimators.CLOSENESS_ERROR

    @staticmethod
    def _wrong_share_bound(cell, trials: int, stream) -> float:
        """The Wilson upper bound on the share of wrong verdicts of `trials`
        one-batch statistics on a calibration cell, at the band of
        CFG.closeness_bands that serves its M, drawn by the calibration
        script's own routine on Rng(stream), apart from the calibration's."""
        _, law, b, eps, case = cell
        lam, threshold = closeness_params(law.size, b, eps, CFG)
        z = _calibration_script().joint_z_samples(law, lam, trials, stream)
        wrong = int(np.sum(z > threshold if case == "null" else z <= threshold))
        return wilson_interval(wrong, trials)[1]

    @pytest.mark.parametrize("k", BAND_CELLS)
    def test_single_batch_errors_are_covered_by_the_bound(self, k):
        # 40,000 statistics on each cell of the grids the bands from 9, 50
        # and 200 cells are calibrated on, the binding ones among them; the
        # Wilson upper bound on the cell's share of wrong verdicts must stay
        # within CLOSENESS_ERROR.
        script = _calibration_script()
        cells = [cell for edge in EDGES for cell in script.independence_cells(script.INDEPENDENCE_GRIDS[edge])]
        assert len(cells) == len(BAND_CELLS)
        assert cells[k][1].size < 4 * EDGES[-1]
        assert self._wrong_share_bound(cells[k], 40_000, Rng(34, (k,))) <= estimators.CLOSENESS_ERROR

    @pytest.mark.parametrize("label, trials", LARGE_BAND_CELLS)
    def test_the_top_bands_point_holds_on_its_larger_cells(self, label, trials):
        # the premise that the band's error does not grow with M, on the
        # cells of 2,000 and 8,192 cells its premise check errs most on and
        # the uniform null of each, at fewer statistics
        script = _calibration_script()
        cells = script.independence_cells(script.PREMISE_GRIDS)
        k = [cell[0] for cell in cells].index(label)
        assert cells[k][1].size >= 2000
        assert self._wrong_share_bound(cells[k], trials, Rng(34, (100 + k,))) <= estimators.CLOSENESS_ERROR

    def test_norm_misses_are_covered_by_the_tail(self):
        # 40,000 of estimate_l2_squared's per-repetition statistics per law,
        # drawn by the calibration script's own routine on streams apart from
        # the calibration's. Misses below 1/2 and above 3/2 of the truth are
        # counted apart; the median of r fails on one side only when ceil(r/2)
        # repetitions miss on that side, so each side's Wilson upper bound
        # must stay within NORM_SIDE_ERROR.
        trials = 40_000
        script = _calibration_script()
        laws = [np.full(M, 1.0 / M) for M in script.SIZES + [script.NORM_LARGE_M]]
        laws += [script.two_level_law(M, ratio) for ratio in script.NORM_RATIOS for M in script.SHAPED_SIZES]
        worst = 0.0
        for i, law in enumerate(laws):
            ratio = script.norm_ratios(law, CFG.norm_sample_mult, trials, Rng(33, (i,)))
            for misses in (int(np.sum(ratio < 0.5)), int(np.sum(ratio > 1.5))):
                worst = max(worst, wilson_interval(misses, trials)[1])
        assert len(laws) == 8
        assert worst <= estimators.NORM_SIDE_ERROR
        for delta in (1 / 120, 1 / 180):
            assert 2 * upper_tail(repetitions(delta, CFG), estimators.NORM_SIDE_ERROR) <= delta


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
        _, c_close, c_thr = CFG.closeness_bands[1]  # the band of 50 to 199 cells
        assert lam == pytest.approx(c_close * M * math.sqrt(b) / eps**2)
        assert thr == pytest.approx(c_thr * lam * lam * eps**2 / M)

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
        # True would otherwise run at eps 1, and a string raise a TypeError from the comparison
        for b, eps, name in ((1.0, True, "eps"), (1.0, "0.3", "eps"), ("1", 0.3, "b")):
            with pytest.raises(DomainError, match=f"{name} must be a finite number"):
                closeness_params(10, b, eps, CFG)

    def test_verdict_is_exact_past_the_int64_range(self):
        # lambda = 7.5e9 on the 2 x 2 diagonal law: the batch passes
        # isqrt(2^63 - 1) samples, so its sums of squares pass 2^63, where
        # int64 sums wrap. The verdict must rest on the exact Z.
        eps = 4e-5
        lam, _ = closeness_params(4, 1.0, eps, CFG)
        assert lam > estimators._INT64_DOT_SAMPLES and lam * lam > 2**63
        assert not closeness_test(grid_view(np.eye(2) / 2), 4, 1.0, eps, 0.1, CFG, Rng(52))
        assert closeness_test(grid_view(np.full((2, 2), 0.25)), 4, 1.0, eps, 0.1, CFG, Rng(52))

    def test_null_accepts(self):
        view = grid_view(np.full((10, 5), 0.02))
        hits = sum(closeness_test(view, 50, 1 / 50, 0.3, 0.05, CFG, Rng(11, (t,))) for t in range(60))
        assert hits >= 54

    def test_far_law_rejects(self):
        # the 2 x 2 diagonal law lies at tv 0.5 from its own product
        view = grid_view(np.eye(2) / 2)
        hits = sum(not closeness_test(view, 4, 0.25, 0.3, 0.05, CFG, Rng(12, (t,))) for t in range(60))
        assert hits >= 54

    def test_accounting_deterministic_and_cost_weighted(self):
        accounts = []
        for _ in range(2):
            view = grid_view(np.full((5, 2), 0.1))
            view.cost = 2
            accounts.append(SampleAccount())
            closeness_test(view, 10, 0.1, 0.3, 0.5, CFG, Rng(13), accounts[-1])
        lam = closeness_params(10, 0.1, 0.3, CFG)[0]
        counts = estimators._poissonized_counts(grid_view(np.full((5, 2), 0.1)), lam, Rng(13))
        assert accounts[0].closeness == accounts[1].closeness == 2 * counts.sum() > 0

    def test_validation(self):
        v = grid_view(np.ones((1, 1)))
        with pytest.raises(DomainError):
            closeness_test(v, 1, 1.0, 0.0, 0.1, CFG, Rng(14))
        with pytest.raises(DomainError):
            closeness_test(v, 1, -1.0, 0.3, 0.1, CFG, Rng(14))


def brute_terms(counts: np.ndarray) -> tuple[int, int, int]:
    """(D, T_3, T_4) of a small table by enumerating ordered tuples of distinct samples."""
    cells = [cell for cell in np.ndindex(counts.shape) for _ in range(counts[cell])]
    pairs = sum(a == b for a, b in itertools.permutations(cells, 2))
    triples = sum(t[0] == s[0] and u[1] == s[1] for s, t, u in itertools.permutations(cells, 3))
    quads = sum(s[0] == t[0] and u[1] == v[1] for s, t, u, v in itertools.permutations(cells, 4))
    return pairs, triples, quads


def python_int_terms(counts: np.ndarray) -> tuple[int, int, int]:
    """(D, T_3, T_4) in Python ints, T_4 by its per-cell expansion over the
    falling factorials N^(k): sum R(R-1) * sum C(C-1) less
    sum_ij [4 N^(3) + 2 N^(2) + 4 N^(2) (R_i + C_j - 2 N_ij) + 4 N_ij (R_i - N_ij) (C_j - N_ij)]."""
    n = [[int(x) for x in row] for row in counts]
    rows = [sum(row) for row in n]
    cols = [sum(col) for col in zip(*n)]
    k = sum(rows)
    pairs = sum(x * (x - 1) for row in n for x in row)
    weighted = sum(x * r * c for row, r in zip(n, rows) for x, c in zip(row, cols))
    squares = sum(x * x for row in n for x in row)
    triples = weighted - sum(r * r for r in rows) - sum(c * c for c in cols) - squares + 2 * k
    shared = sum(
        4 * x * (x - 1) * (x - 2) + 2 * x * (x - 1) + 4 * x * (x - 1) * (r + c - 2 * x) + 4 * x * (r - x) * (c - x)
        for row, r in zip(n, rows)
        for x, c in zip(row, cols)
    )
    quads = sum(r * (r - 1) for r in rows) * sum(c * (c - 1) for c in cols) - shared
    return pairs, triples, quads


def joint_z(counts: np.ndarray, lam: float) -> float:
    """The one-batch statistic Z = D - 2 T_3 / lambda + T_4 / lambda^2 of a count table."""
    pairs, triples, quads, _ = estimators._independence_terms(counts)
    return pairs - 2 * triples / lam + quads / (lam * lam)


class TestIndependenceStatistic:
    """closeness_test: one Poissonized batch of a joint on a grid, scored
    against the product of its last axis's marginal and the marginal of the
    others."""

    @staticmethod
    def _laws(F: int = 4) -> dict:
        """Laws on F x F cells for even F: on an F x F grid a product of
        Dirichlet marginals, a sign perturbation of the uniform law at tv .3
        (uniform marginals) and a Dirichlet joint; on an F x F/2 x 2 grid a
        Dirichlet joint of the first two axes times a Dirichlet last axis,
        and a Dirichlet joint."""
        gen = Rng(70).gen
        s = np.where(np.arange(F) % 2 == 0, 1.0, -1.0)
        return {
            "product": np.outer(gen.dirichlet(np.ones(F)), gen.dirichlet(np.ones(F))),
            "sign": (1 + 0.6 * np.outer(s, s)) / (F * F),
            "joint": gen.dirichlet(np.ones(F * F)).reshape(F, F),
            "split3": np.multiply.outer(
                gen.dirichlet(np.ones(F * F // 2)).reshape(F, F // 2), gen.dirichlet(np.ones(2))
            ),
            "joint3": gen.dirichlet(np.ones(F * F)).reshape(F, F // 2, 2),
        }

    @pytest.mark.parametrize("law", ["product", "sign", "joint", "split3", "joint3"])
    @pytest.mark.parametrize("lam, explicit", [(6.0, True), (40.0, True), (6.0, False)], ids=["sparse", "dense", "draw"])
    def test_mean_is_the_squared_l2_gap_to_the_product(self, law, lam, explicit):
        # E[Z] = lambda^2 ||p - p_rows x p_cols||_2^2, the columns the last
        # axis, whether the kernel bins inverse-CDF symbols (lambda < M),
        # draws a Poisson per cell (lambda >= M) or splits a stream on a view
        # that hides its law
        p = self._laws()[law]
        table = p.reshape(-1, p.shape[-1])
        target = lam * lam * float(((table - np.outer(table.sum(axis=1), table.sum(axis=0))) ** 2).sum())
        view = grid_view(p, explicit)
        assert (lam < view.size) == (lam == 6.0)
        rng = Rng(71)
        kernel = estimators._poissonized_counts
        z = np.array([joint_z(kernel(view, lam, rng.split(i)).reshape(table.shape), lam) for i in range(8000)])
        assert abs(z.mean() - target) <= 3 * z.std(ddof=1) / math.sqrt(z.size)

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3).filter(
        lambda t: len({len(row) for row in t}) == 1 and sum(map(sum, t)) <= 7
    ))
    def test_terms_count_the_tuples_of_distinct_samples(self, counts):
        counts = np.array(counts, dtype=np.int64)
        pairs, triples, quads, k = estimators._independence_terms(counts)
        assert k == counts.sum()
        assert (pairs, triples, quads) == brute_terms(counts) == python_int_terms(counts)

    def test_terms_are_exact_at_hidden_bit_scale(self):
        # lambda about 4e7 on 25,000 cells, as on hidden_bit_2d: the
        # product of row and column pair counts passes 1e25 and R . (N C)
        # nears the int64 limit, so every term must be summed exactly
        gen = Rng(72).gen
        law = np.outer(gen.dirichlet(np.ones(1000)), gen.dirichlet(np.ones(25)))
        counts = gen.poisson(4e7 * law)
        rows, cols = counts.sum(axis=1), counts.sum(axis=0)
        assert int(rows @ rows) * int(cols @ cols) > 1e25
        assert sum(int(r) * int(v) for r, v in zip(rows, counts @ cols)) > 2**61
        assert estimators._independence_terms(counts)[:3] == python_int_terms(counts)

    def test_terms_are_exact_past_the_int64_range(self):
        # 7e9 samples: the sums of squares pass 2^63 and are summed in Python ints
        counts = np.array([[3_000_000_000, 1_000_000_000], [1_000_000_000, 2_000_000_000]])
        assert counts.sum() > estimators._INT64_DOT_SAMPLES
        assert estimators._independence_terms(counts)[:3] == python_int_terms(counts)

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("sparse", [True, False])
    def test_verdict_is_one_batch_compared_exactly(self, explicit, sparse):
        # one batch through the count kernel, read with the last axis as
        # columns; the verdict is Z <= threshold in exact rationals, and the
        # account holds K. b = 1/M on 48 x 48 cells puts lambda below M,
        # b = 1 on 4 x 4 above it.
        F = 48 if sparse else 4
        M, eps = F * F, 0.3
        b = 1 / M if sparse else 1.0
        lam, threshold = closeness_params(M, b, eps, CFG)
        assert (lam < M) == sparse
        kernel = estimators._poissonized_counts
        verdicts = []
        for seed, law in enumerate(self._laws(F).values()):
            view = grid_view(law, explicit)
            account = SampleAccount()
            accepted = closeness_test(view, M, b, eps, 0.1, CFG, Rng(seed), account)
            counts = kernel(grid_view(law, explicit), lam, Rng(seed)).reshape(-1, law.shape[-1])
            pairs, triples, quads = python_int_terms(counts)
            z = pairs - 2 * triples / Fraction(lam) + quads / Fraction(lam) ** 2
            assert accepted == (z <= Fraction(threshold))
            assert account.closeness == counts.sum()
            verdicts.append(accepted)
        # the product and the 3-axis law whose last axis is independent of
        # the others accept; the sign perturbation rejects
        assert verdicts[0] and not verdicts[1] and verdicts[3]

    def test_a_view_without_a_grid_of_two_or_more_axes_is_a_domain_error(self):
        law = np.full(12, 1 / 12)
        for view in (FlatView.from_law(law), grid_view(law)):
            account = SampleAccount()
            with pytest.raises(DomainError, match="an axis against the others"):
                closeness_test(view, 12, 1 / 12, 0.3, 0.1, CFG, Rng(73), account)
            assert account.total == 0
        assert closeness_test(grid_view(law.reshape(2, 2, 3)), 12, 1 / 12, 0.3, 0.1, CFG, Rng(73))
        with pytest.raises(DomainError, match="cannot linearize the grid"):
            FlatView(12, law, 1, FlatView.from_law(law).draw, (3, 5))


class TestNullTail:
    """The calibration keeps each band's threshold at least NULL_SDS = 4
    measured standard deviations of the null's Z out at a tight b, since the
    testers make many closeness calls on null laws and a call may err far
    less often than CLOSENESS_ERROR allows. These measure what that buys on
    the benchmark's null laws: the flattened joints of the uniform (100, 20)
    input of closeness_2d and of the uniform (2,)^5 cube of arity5_d, whose
    grouped (4, 4, 2) joint is tested with its first two axes as rows, both
    in the top band, and the flattened marginal of that cube's first two
    grouped axes, which its second batch tests.

    The first two draw null statistics Z on one closeness call's law of a
    real trial, at the tight b = ||p||_2^2, where the threshold sits nearest
    (the testers' measured b is larger on nearly every call), and bound
    their 99th percentile by 5/8 of the threshold. At 4 standard deviations
    the Gaussian's 99th percentile, 2.33 of them, is 0.58 of the threshold;
    the bound leaves 7 % over that for sampling and for Z's heavier tail on
    a few hundred cells. The top band's (3.5, 1.7) reads 0.57 on
    closeness_2d and 0.51 on arity5_d. The second batch's grid of about 100
    cells lands in the 50 band, which the third holds to the calibration's
    own rule there.
    """

    BOUND = 5 / 8
    CONFIGS = {
        "closeness_2d": dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
        "arity5_d": dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2] * 5}),
    }

    @staticmethod
    def _closeness_calls(monkeypatch, config: dict) -> list:
        """(view, M, eps) of each of trial 0's closeness calls under config."""
        calls = []
        real = testers._DEFAULT_HOOKS.closeness

        def record(view, M, b, eps, *rest):
            calls.append((view, M, eps))
            return real(view, M, b, eps, *rest)

        monkeypatch.setattr(testers._DEFAULT_HOOKS, "closeness", record)
        bench.run_single_trial(bench.ExperimentConfig(seed=7, trials=1, **config), 0)
        return calls

    @staticmethod
    def _null_statistics(view, M: int, eps: float, statistics: int, stream: int):
        """Z of `statistics` batches of the view's law at the tight b, drawn
        by the calibration script's own routine, and the call's threshold."""
        p = view.probs.reshape(-1, view.dims[-1])
        b = min(float((p * p).sum()), float((p.sum(axis=1) ** 2).sum() * (p.sum(axis=0) ** 2).sum()))
        lam, threshold = closeness_params(M, b, eps, CFG)
        return _calibration_script().joint_z_samples(p, lam, statistics, Rng(stream)), threshold

    @pytest.mark.parametrize(
        "name, statistics", [("closeness_2d", 3000), ("arity5_d", 20000)], ids=["closeness_2d", "arity5_d"]
    )
    def test_the_99th_percentile_stays_well_inside_the_threshold(self, monkeypatch, name, statistics):
        view, M, eps = self._closeness_calls(monkeypatch, self.CONFIGS[name])[0]
        assert len(view.dims) == (2 if name == "closeness_2d" else 3)
        z, threshold = self._null_statistics(view, M, eps, statistics, 36)
        assert estimators._closeness_band(M, CFG.closeness_bands) == CFG.closeness_bands[-1]
        assert np.quantile(z, 0.99) / threshold <= self.BOUND

    def test_the_second_batch_sits_at_least_4_null_sds_out(self, monkeypatch):
        # arity5_d's (X, Y) marginal, a product, at the tight b: the
        # threshold over the measured standard deviation of the null's Z
        _, (view, M, eps) = self._closeness_calls(monkeypatch, self.CONFIGS["arity5_d"])
        assert len(view.dims) == 2 and M == view.size
        z, threshold = self._null_statistics(view, M, eps, 20000, 37)
        assert threshold / z.std() >= _calibration_script().NULL_SDS == 4.0


class TestClosenessBands:
    """closeness_params sizes a call on M cells at the one band that serves M."""

    @pytest.mark.parametrize("i", range(len(EDGES)))
    def test_each_band_starts_at_its_edge(self, i):
        bands, edge = CFG.closeness_bands, EDGES[i]
        for M, (_, c_close, c_thr) in ((edge - 1, bands[max(0, i - 1)]), (edge, bands[i])):
            b, eps = 1 / M, 0.3
            lam, threshold = closeness_params(M, b, eps, CFG)
            assert lam == c_close * M * math.sqrt(b) / (eps * eps)
            assert threshold == c_thr * lam * lam * eps * eps / M

    @settings(max_examples=300, deadline=None)
    @given(M=st.integers(1, 10**12))
    @example(M=1)
    @example(M=8)
    @example(M=199)
    @example(M=200)
    def test_every_domain_size_has_exactly_one_band(self, M):
        # band i serves [first_i, first_(i+1)); the first band also serves
        # every M below it, and the last every M above
        assert EDGES == sorted(set(EDGES)) and EDGES[0] == 9
        lows, highs = [1] + EDGES[1:], EDGES[1:] + [math.inf]
        serving = [band for band, low, high in zip(CFG.closeness_bands, lows, highs) if low <= M < high]
        assert len(serving) == 1
        assert estimators._closeness_band(M, CFG.closeness_bands) == serving[0]


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
    @pytest.mark.parametrize("M", [10, 99, 101, 1000])
    def test_closeness_rejects_a_domain_size_that_is_not_the_views(self, M, explicit):
        # lambda sized for the wrong M, and a verdict drawn anyway
        account = SampleAccount()
        with pytest.raises(DomainError, match="but the view has 100 cells"):
            closeness_test(grid_view(np.full((10, 10), 0.01), explicit), M, 1 / M, 0.3, 0.1, CFG, Rng(51), account)
        assert account.total == 0


class TestDrawCeilings:
    """A batch numpy cannot draw is a DomainError before any draw: a closeness
    rate above the largest Poisson mean, a learning size above int64."""

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("M, b", [(4, 1.0), (4, 0.25), (1, 1.0)])
    def test_closeness_rejects_a_rate_above_the_poisson_ceiling(self, M, b, explicit):
        # numpy raised a bare "lam value too large" at eps 1e-10
        with pytest.raises(DomainError, match=r"closeness batch mean lambda = .* exceeds"):
            closeness_params(M, b, 1e-10, CFG)
        v = grid_view(np.full((M, 1), 1 / M), explicit)
        account = SampleAccount()
        with pytest.raises(DomainError, match="lambda"):
            closeness_test(v, M, b, 1e-10, 0.1, CFG, Rng(52), account)
        assert account.total == 0

    def test_closeness_rate_at_the_ceiling_is_drawn(self):
        # lambda = C / eps^2 on one cell, just below the ceiling, just above it
        c = CFG.closeness_bands[0][1]  # the band that serves one cell
        below = math.sqrt(c / domain._POISSON_MEAN_MAX) * (1 + 1e-9)
        lam, _ = closeness_params(1, 1.0, below, CFG)
        assert domain._POISSON_MEAN_MAX * (1 - 1e-8) < lam <= domain._POISSON_MEAN_MAX
        account = SampleAccount()
        assert closeness_test(grid_view(np.ones((1, 1))), 1, 1.0, below, 0.1, CFG, Rng(53), account)
        assert account.closeness > 2**62
        with pytest.raises(DomainError, match="lambda"):
            closeness_params(1, 1.0, below * (1 - 1e-8), CFG)

    def test_two_axis_tester_at_a_tiny_eps_raises_a_domain_error(self):
        p = JointDistribution.uniform((4, 3))
        with pytest.raises(DomainError, match="lambda"):
            aug_independence_2d(JointSampler(p), p, TesterConfig(eps=1e-10, alpha=0.1), Rng(1))

    def test_learning_size_above_int64_is_rejected(self):
        p = JointSampler(JointDistribution.uniform((2, 2)))
        account = SampleAccount()
        with pytest.raises(DomainError, match="sample size t = 9223372036854775808 exceeds"):
            learn_empirical(p, 2**63, Rng(54), account)
        assert account.total == 0
        assert learn_empirical(p, 2**63 - 1, Rng(54)).probs.sum() == pytest.approx(1.0)
        # numpy raised a bare OverflowError from multinomial
        with pytest.raises(DomainError, match="sample size t"):
            testers.test_independence_by_learning(JointSampler(JointDistribution.uniform((4, 3))), 1e-10, 0.1, Rng(1))


class TestSquareUnderflow:
    """The sizing formulas divide by eps^2 (closeness) and eta^2 (learning);
    a square that is not a positive normal float is a DomainError naming its
    field, before any draw."""

    @pytest.mark.parametrize("eps", [1e-170, 1e-158, 5e-324])
    def test_closeness_params(self, eps):
        # 1e-170 squared is 0.0, which raised a bare ZeroDivisionError
        with pytest.raises(DomainError, match=r"eps\^2 = .* below the smallest normal float"):
            closeness_params(4, 1.0, eps, CFG)

    @pytest.mark.parametrize("eps", [1e-170, 1e-158])
    def test_two_axis_tester(self, eps):
        p = JointDistribution.uniform((4, 3))
        with pytest.raises(DomainError, match=r"eps\^2"):
            aug_independence_2d(JointSampler(p), p, TesterConfig(eps=eps, alpha=0.1), Rng(1))

    @pytest.mark.parametrize(
        "eps, names",
        [
            (1e-170, r"eta\^2 = 0.0 is below"),  # a bare ZeroDivisionError
            (1e-158, r"eta\^2 = .* is below"),  # subnormal: a bare OverflowError from ceil
            (1.6e-153, "sample size t must be a finite number"),  # normal, but t overflows
        ],
    )
    def test_learning(self, eps, names):
        sampler = JointSampler(JointDistribution.uniform((4, 3)))
        with pytest.raises(DomainError, match=names):
            testers.test_independence_by_learning(sampler, eps, 0.1, Rng(1))

    def test_the_smallest_normal_square_passes_the_check(self):
        eps = math.sqrt(np.finfo(float).tiny) * (1 + 1e-15)
        assert eps * eps >= np.finfo(float).tiny
        # past the check, the rate is far above the Poisson ceiling
        with pytest.raises(DomainError, match="lambda"):
            closeness_params(4, 1.0, eps, CFG)


class TestClosenessMemory:
    """Peak traced allocation of one closeness_test call, on uniform laws."""

    # Below lambda = M the batch holds about lambda uniforms and as many
    # symbols, 8 bytes each, beside its M counts; at and above it, the M
    # Poisson means and the M counts. The coincidence terms add a few row
    # and column sums, which 16 KB and 32 KB cover. The sparse call reuses
    # the guide its view kept from the first call. The calls peak at
    # 122,613 and 407,825 bytes with numpy 2 on x86-64 Linux.
    @pytest.mark.parametrize(
        "dims, eps, sparse, limit",
        [((86, 107), 0.4, True, 8 * (9_202 + 2 * 2_968) + 16_384), ((1_000, 25), 1 / 192, False, 16 * 25_000 + 32_768)],
    )
    def test_peak_stays_under_the_stated_figure(self, dims, eps, sparse, limit):
        M = math.prod(dims)
        view = grid_view(np.full(dims, 1 / M))
        b = 2 / M
        lam = closeness_params(M, b, eps, CFG)[0]
        assert (lam < M) == sparse and (not sparse or lam < 2_968)
        # A first call pays for lazily built state (the seeded generator, the
        # view's map); the second is the one measured.
        closeness_test(view, M, b, eps, 1 / 80, CFG, Rng(60))
        tracemalloc.start()
        try:
            closeness_test(view, M, b, eps, 1 / 80, CFG, Rng(61))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestStreamLayout:
    """Count-level calls draw every batch from the Rng they were given."""

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

    def test_stream_count_does_not_grow_with_repetitions(self, monkeypatch):
        v = FlatView.from_law(np.full(20, 0.05))

        def call(delta):
            rng = Rng(30)
            return lambda: estimate_l2_squared(v, 20, delta, CFG, rng)

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
    def test_closeness_draws_one_batch_through_the_count_seam(self, monkeypatch, explicit):
        # perfbench's tracer wraps estimators._poissonized_counts, so
        # closeness_test draws its one batch through that module attribute,
        # as a dense integer vector over the view's cells
        seen = []
        kernel = estimators._poissonized_counts

        def recording(v, lam, rng):
            counts = kernel(v, lam, rng)
            seen.append((v, lam, counts))
            return counts

        monkeypatch.setattr(estimators, "_poissonized_counts", recording)
        # b = 1 at eps .1 on a 2 x 3 grid runs lambda = 1,800, above M;
        # b = 1/2,000 at eps .5 on a 40 x 50 grid runs lambda = 626, below
        # it. Both laws put their mass on a diagonal, far from the product of
        # their marginals, so the call rejects.
        for dims, b, eps, sparse in (((2, 3), 1.0, 0.1, False), ((40, 50), 1 / 2000, 0.5, True)):
            M = math.prod(dims)
            law = np.zeros(dims)
            law[np.arange(dims[0]), np.arange(dims[0])] = 1 / dims[0]
            view = grid_view(law, explicit)
            seen.clear()
            accepted = closeness_test(view, M, b, eps, 0.1, CFG, Rng(32))
            lam, _ = closeness_params(M, b, eps, CFG)
            assert (lam < M) == sparse
            assert not accepted
            ((v, drawn_lam, counts),) = seen
            assert v is view and drawn_lam == lam
            assert isinstance(counts, np.ndarray) and counts.shape == (M,)
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
        # All n batches look up through one guide map, which the view keeps
        # from a first call that expects their n * lam lookups.
        table = view.inverse_cdf(n * lam)
        counts = np.array([estimators._poissonized_counts(view, lam, rng) for _ in range(n)])
        assert view.inverse_cdf(lam) is table
        u = np.linspace(0.0, 1.0, 64, endpoint=False)
        assert np.array_equal(table(u), inverse_cdf(np.cumsum(law), 1)(u))
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
        # without a guide table (a view's first map, or one an earlier call
        # with enough lookups kept).
        law, M = self.LAW, self.LAW.size
        view = FlatView.from_law(law)
        for lam in (float(M), M * (1 + 1e-12), 3.7 * M, 2.5e7):
            rng, ref = Rng(41), Rng(41).gen
            counts = estimators._poissonized_counts(view, lam, rng)
            assert np.array_equal(counts, ref.poisson(lam * law))
            assert rng.gen.bit_generator.state == ref.bit_generator.state
        lam = math.nextafter(M, 0)
        for lookups in (None, 1000 * lam):
            view = FlatView.from_law(law)
            if lookups is not None:
                view.inverse_cdf(lookups)
            rng, ref = Rng(41), Rng(41).gen
            counts = estimators._poissonized_counts(view, lam, rng)
            u = ref.random(int(ref.poisson(lam)))
            assert np.array_equal(counts, np.bincount(inverse_cdf(np.cumsum(law), u.size)(u), minlength=M))
            assert rng.gen.bit_generator.state == ref.bit_generator.state

    def test_a_view_without_a_law_draws_from_child_stream_0(self):
        # K ~ Poi(lam) from rng.split(0).split(0), the K symbols from
        # rng.split(0).split(1)
        view = draw_only(FlatView.from_law(self.LAW))
        counts = estimators._poissonized_counts(view, 30.0, Rng(42))
        child = Rng(42).split(0)
        want = np.bincount(view.draw(int(child.split(0).gen.poisson(30.0)), child.split(1)), minlength=view.size)
        assert np.array_equal(counts, want)

    # A (3, 2, 2) law with zero-mass cells, and the view of its (3, 2) marginal.
    JOINT = np.array([0.0, 0.1, 0.05, 0.05, 0.2, 0.0, 0.1, 0.1, 0.0, 0.15, 0.1, 0.15]).reshape(3, 2, 2)

    def marginal_view(self, parent: FlatView, explicit: bool) -> FlatView:
        law = self.JOINT.sum(axis=2)
        return FlatView(law.size, law.reshape(-1) if explicit else None, 1, FlatView.from_law(law).draw, law.shape, parent)

    @pytest.mark.parametrize("explicit", [True, False], ids=["law", "draw_only"])
    @pytest.mark.parametrize("lam1, lam2", [(8.0, 4.0), (30.0, 12.0), (8.0, 13.6), (30.0, 51.0)])
    def test_a_marginal_view_thins_its_parents_batch(self, lam1, lam2, explicit):
        # Each repetition draws the parent's batch at lam1, then the
        # marginal's at lam2: below lam1 by thinning the parent's table
        # summed over its last axis, drawing no fresh sample; above it by
        # that table plus a fresh batch at lam2 - lam1 (sparse at 5.6 and
        # dense at 21 on 6 cells). Either way every cell is Poi(lam2 p_i):
        # its mean and its variance are lam2 p_i, within 4 standard errors.
        parent = grid_view(self.JOINT)
        view = self.marginal_view(parent, explicit)
        n = 10_000
        counts, drawn = np.empty((n, view.size), dtype=np.int64), np.empty(n, dtype=np.int64)
        for i in range(n):
            rng = Rng(44, (i,))  # a view without a law splits rng, so each repetition has its own
            table = estimators._poissonized_counts(parent, lam1, rng)
            counts[i] = estimators._poissonized_counts(view, lam2, rng)
            assert parent.last[0] == lam1 and parent.last[1] is table and parent.last[2] == table.sum()
            assert view.last[0] == lam2 and view.last[1] is not None
            drawn[i] = view.last[2]
            if lam2 <= lam1:
                assert np.all(counts[i] <= table.reshape(view.size, -1).sum(axis=1))
        if lam2 <= lam1:
            assert not drawn.any()
        else:
            assert abs(drawn.mean() - (lam2 - lam1)) <= 4 * math.sqrt((lam2 - lam1) / n)
        law = self.JOINT.sum(axis=2).reshape(-1)
        assert np.all(counts[:, law == 0] == 0)
        mu = lam2 * law[law > 0]
        c = counts[:, law > 0].astype(np.float64)
        assert np.all(np.abs(c.mean(axis=0) - mu) <= 4 * np.sqrt(mu / n))
        assert np.all(np.abs(c.var(axis=0, ddof=1) - mu) <= 4 * np.sqrt((mu + 2 * mu * mu) / n))

    @pytest.mark.parametrize("explicit", [True, False], ids=["law", "draw_only"])
    def test_a_parent_without_a_batch_leaves_the_whole_rate_fresh(self, explicit):
        # lam_1 = 0: the marginal draws as a view with no parent would, from the same stream
        parent = grid_view(self.JOINT)
        view, alone = self.marginal_view(parent, explicit), self.marginal_view(None, explicit)
        for lam in (4.0, 30.0):
            counts = estimators._poissonized_counts(view, lam, Rng(45))
            assert np.array_equal(counts, estimators._poissonized_counts(alone, lam, Rng(45)))
            assert view.last[2] == counts.sum()

    def test_a_parent_must_lead_with_the_views_grid(self):
        parent = grid_view(self.JOINT)
        law = self.JOINT.sum(axis=0)
        with pytest.raises(DomainError, match="does not lead"):
            FlatView(law.size, law.reshape(-1), 1, FlatView.from_law(law).draw, law.shape, parent)


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
        # not a misleading mass error from 10 counts over 10.7
        with pytest.raises(DomainError, match="sample size t must be a non-negative integer, got 10.7"):
            learn_empirical(JointSampler(p), 10.7, Rng(27))


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
