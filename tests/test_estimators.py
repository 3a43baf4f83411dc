"""Tests for the l2 estimator, the closeness tester, and empirical learning."""

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
# The first M of each closeness band, which EstimatorConfig owns; the joint
# batch's bands share them.
EDGES = [first for first, _, _ in CFG.closeness_bands]
INDEPENDENCE_BANDS = ((9, 3.0, 1.45), (50, 3.0, 1.75), (200, 3.5, 1.7))
# The calibration cells of the bands that start at 9, 50 and 200 cells, by
# stream index: the single-point calibration's 28, then the two-level laws on 10 cells.
SMALL_BAND_CELLS = [*range(28), *range(52, 58)]
# The top band's premise cells on 2,000 and 8,192 cells: on each size the
# binding one and the uniform null, with the statistics drawn on each.
LARGE_BAND_CELLS = [
    ("M=2000,bM=5,eps=0.3,null", 5000),
    ("M=2000,eps=0.3,null", 5000),
    ("M=8192,bM=5,eps=0.3,null", 5000),
    ("M=8192,eps=0.3,null", 5000),
]


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
        assert CFG.norm_sample_mult == 4.0
        assert CFG.closeness_bands == ((9, 9.0, 1.5), (50, 7.0, 1.9), (200, 6.0, 1.95))
        assert CFG.independence_bands == INDEPENDENCE_BANDS
        # a recalibration that is not carried into the defaults fails here
        with open(CALIBRATION) as fh:
            record = json.load(fh)
        assert CFG.closeness_bands == tuple(
            (band["first_M"], band["chosen"]["closeness_sample_mult"], band["chosen"]["closeness_threshold_mult"])
            for band in record["bands"]
        )
        assert CFG.norm_sample_mult == record["norm"]["chosen"]["norm_sample_mult"]
        assert CFG.independence_bands == tuple(
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

    def test_is_the_calibrated_bound_and_covers_every_tester(self):
        assert estimators.CLOSENESS_ERROR == 13 / 2048
        with open(CALIBRATION) as fh:
            bands = json.load(fh)["bands"]
        assert max(band["chosen"]["bound"] for band in bands) == estimators.CLOSENESS_ERROR
        assert estimators.CLOSENESS_ERROR <= min(testers._CLOSENESS_DELTA.values()) == 1 / 120

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("delta", [math.nextafter(13 / 2048, 0), 1 / 200, 1e-6, 0.0, -0.1, 1.0, math.nan])
    def test_a_delta_below_it_is_a_domain_error(self, delta, explicit):
        v = FlatView.from_law(np.full(4, 0.25))
        account = SampleAccount()
        with pytest.raises(DomainError, match="delta must be"):
            closeness_test(*[v if explicit else draw_only(v)] * 2, 4, 0.25, 0.3, delta, CFG, Rng(15), account)
        assert account.total == 0

    def test_a_delta_at_it_is_drawn(self):
        v = FlatView.from_law(np.full(4, 0.25))
        account = SampleAccount()
        assert closeness_test(v, v, 4, 0.25, 0.3, estimators.CLOSENESS_ERROR, CFG, Rng(15), account)
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
    def test_the_cells_are_recorded_in_stream_order(self):
        # the single-point calibration's 28 cells keep the stream indices it
        # gave them; the added ones follow
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            record = json.load(fh)
        cells = script.all_closeness_cells()
        labels = [label for label, *_ in cells]
        assert record["cells"] == labels
        assert labels[:28] == [label for label, *_ in script.closeness_cells(script.calibration_laws())]
        assert len(labels) == 58
        # the script calibrates the bands of EstimatorConfig
        assert record["grid"]["bands"] == EDGES == [9, 50, 200]
        members, above = script.band_cells(cells)
        assert sorted(members[0] + members[1] + members[2]) == SMALL_BAND_CELLS
        # the cells on 2,000 and 8,192 cells check the top band's premise
        assert above == [[], [], list(range(28, 52))]

    @pytest.mark.parametrize("band", range(3))
    def test_every_point_re_derives_from_its_errors(self, band):
        # each C_close row's threshold, held-out bound and standing follow
        # from its recorded selection and check errors through the script's
        # own rule, over the cells of the band's lowest M
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            record = json.load(fh)
        assert record["trials_per_cell"] == script.TRIALS == 40_000
        entry = record["bands"][band]
        assert entry["first_M"] == EDGES[band]
        cells = script.all_closeness_cells()
        members = script.band_cells(cells)[0][band]
        labels = [cells[k][0] for k in members]
        assert {cells[k][1].size for k in members} == {entry["M"]}
        assert entry["M"] == [10, 50, 200][band]
        # on 10 cells, the two-level law with b M = 5 has no spread pair at eps 0.3
        assert len(labels) == (10 if band == 0 else 12)
        for point in entry["results"]:
            derived = script.closeness_point(
                point["closeness_sample_mult"], point["select_worst"], point["select_errors"], point["check_errors"]
            )
            assert json.loads(json.dumps(derived)) == point
            assert len(point["select_worst"]) == len(script.THRESHOLD_MULTS) == 56
            assert list(point["select_errors"]) == list(point["check_errors"]) == labels
            assert max(point["select_errors"].values()) == point["select_error"]

    @pytest.mark.parametrize("band", range(3))
    def test_each_bands_point_is_the_cheapest_left(self, band):
        # C_close runs up the grid and stops at the band's first left point,
        # which is the left point with the smallest C_close
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            entry = json.load(fh)["bands"][band]
        results = entry["results"]
        assert [point["closeness_sample_mult"] for point in results] == script.SAMPLE_MULTS[: len(results)]
        assert [point["left"] for point in results] == [False] * (len(results) - 1) + [True]
        chosen = entry["chosen"]
        left = [point for point in results if point["left"]]
        assert chosen == results[-1] == min(left, key=lambda p: (p["closeness_sample_mult"], p["bound"]))
        assert chosen["closeness_sample_mult"] <= 9
        assert chosen["bound"] <= 1 / 120
        assert chosen["null_sds"] >= script.NULL_SDS == 4.0

    def test_the_null_tail_rule_refuses_what_the_bound_allows(self):
        # on 200 cells C_close 5 meets the 1/120 bound, but its threshold
        # sits under 4 null standard deviations out, where the benchmark's
        # null laws were seen to reject
        with open(CALIBRATION) as fh:
            first = json.load(fh)["bands"][2]["results"][0]
        assert first["closeness_sample_mult"] == 5.0
        assert first["bound"] <= 1 / 120
        assert first["null_sds"] == 5.0 * first["closeness_threshold_mult"] / (2 * math.sqrt(2)) < 4.0
        assert not first["left"]

    def test_the_top_bands_premise_check_re_derives_and_holds(self):
        # the top band's point, on the held-out sets of its cells on 2,000
        # and 8,192 cells, errs within the band's own bound; the lower bands
        # have no cells above their lowest M
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            bands = json.load(fh)["bands"]
        assert [band["premise"] is None for band in bands] == [True, True, False]
        top = bands[2]
        premise = top["premise"]
        cells = script.all_closeness_cells()
        assert list(premise["check_errors"]) == [cells[k][0] for k in range(28, 52)]
        assert premise["check_error"] == max(premise["check_errors"].values())
        assert premise["bound"] == script.bound_up(premise["check_error"], script.TRIALS, script.CLOSENESS_GRID)
        assert premise["holds"] and premise["bound"] <= top["chosen"]["bound"]

    @pytest.mark.parametrize("band", range(3))
    def test_every_joint_batch_point_re_derives_from_its_errors(self, band):
        # each row of the one-batch statistic's band follows from its
        # recorded errors and null standard deviations through the script's
        # own rule, over the product laws of the band's grids and their sign
        # perturbations
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
            assert list(point["select_errors"]) == list(point["check_errors"]) == labels
            assert list(point["null_sd"]) == nulls

    @pytest.mark.parametrize("band", range(3))
    def test_each_joint_batch_bands_point_is_the_cheapest_left(self, band):
        # the config's independence_bands is the record's chosen points; each
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
        assert chosen["null_sds"] >= script.NULL_SDS
        assert CFG.independence_bands[band] == (
            entry["first_M"],
            chosen["closeness_sample_mult"],
            chosen["closeness_threshold_mult"],
        )

    def test_the_joint_batch_top_bands_premise_check_re_derives_and_holds(self):
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
        monkeypatch.setattr(script, "BANDS", CFG.closeness_bands[:2])
        cells = [cell for cell in script.all_closeness_cells() if cell[1].size in (10, 50)]
        runs = []
        for workers in (1, 2):
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                runs.append(script.calibrate_bands(cells, pool))
        assert json.dumps(runs[0]) == json.dumps(runs[1])
        assert all(band["results"] for band in runs[0])

    def test_z_blocks_bound_the_working_arrays_and_not_the_draws(self):
        # blocks of BLOCK_COUNTS // M rows draw what one block of every row draws
        script = _calibration_script()
        p, q = script.spread_pair(script.two_level_law(200, 5), 0.1)
        one = script.z_samples(p, q, 3000.0, 700, Rng(35))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(script, "BLOCK_COUNTS", 200 * 64 + 1)
            blocked = script.z_samples(p, q, 3000.0, 700, Rng(35))
        assert np.array_equal(one, blocked)

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
            bands = json.load(fh)["bands"]
        for band in bands:
            chosen = band["chosen"]
            assert chosen["check_error"] == max(chosen["check_errors"].values())
            assert chosen["check_error"] <= chosen["bound"] <= estimators.CLOSENESS_ERROR
        assert max(band["chosen"]["bound"] for band in bands) == estimators.CLOSENESS_ERROR

    @staticmethod
    def _wrong_share_bound(cell, trials: int, stream) -> float:
        """The Wilson upper bound on the share of wrong verdicts of `trials`
        single-batch statistics Z on a calibration cell, at the band of
        CFG.closeness_bands that serves its M, drawn by the calibration
        script's own routine on Rng(stream), apart from the calibration's."""
        script = _calibration_script()
        _, law, b, eps, case = cell
        lam, threshold = closeness_params(law.size, b, eps, CFG)
        p, q = script.spread_pair(law, eps)
        z = script.z_samples(p, p if case == "null" else q, lam, trials, stream)
        wrong = int(np.sum(z > threshold if case == "null" else z <= threshold))
        return wilson_interval(wrong, trials)[1]

    @pytest.mark.parametrize("k", SMALL_BAND_CELLS)
    def test_single_batch_errors_are_covered_by_the_bound(self, k):
        # 40,000 statistics on each cell of the bands that start at 9, 50
        # and 200 cells, which are those of M = 10, 50 and 200; the Wilson
        # upper bound on the cell's share of wrong verdicts must stay within
        # CLOSENESS_ERROR.
        script = _calibration_script()
        cell = script.all_closeness_cells()[k]
        assert cell[1].size <= 200
        assert self._wrong_share_bound(cell, 40_000, Rng(34, (k,))) <= estimators.CLOSENESS_ERROR

    @pytest.mark.parametrize("label, trials", LARGE_BAND_CELLS)
    def test_the_top_bands_point_holds_on_its_larger_cells(self, label, trials):
        # the premise that the band's error does not grow with M, on the
        # binding cell and the uniform null of 2,000 and 8,192 cells, at
        # fewer statistics
        script = _calibration_script()
        cells = script.all_closeness_cells()
        k = [cell[0] for cell in cells].index(label)
        assert k >= 28
        assert self._wrong_share_bound(cells[k], trials, Rng(34, (k,))) <= estimators.CLOSENESS_ERROR

    @pytest.mark.parametrize("band", range(3))
    def test_the_joint_batch_binding_cells_are_covered_by_the_bound(self, band):
        # 40,000 one-batch statistics on the cell each band's point errs
        # most on, on streams apart from the calibration's, at the band of
        # CFG.independence_bands that serves its M
        script = _calibration_script()
        with open(CALIBRATION) as fh:
            label = json.load(fh)["independence"]["bands"][band]["chosen"]["binding_cell"]
        cells = script.independence_cells(script.INDEPENDENCE_GRIDS[EDGES[band]])
        _, law, b, eps, case = next(cell for cell in cells if cell[0] == label)
        lam, threshold = estimators.independence_params(law.size, b, eps, CFG)
        z = script.joint_z_samples(law, lam, 40_000, Rng(34, (100 + band,)))
        wrong = int(np.sum(z > threshold if case == "null" else z <= threshold))
        assert wilson_interval(wrong, z.size)[1] <= estimators.CLOSENESS_ERROR

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
        # where an int64 dot wraps negative. The verdict must rest on the exact Z.
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
    def _near_threshold_pair(seed: int, M: int, eps: float):
        """Laws p, q with ||p - q||_2^2 = C_thr eps^2 / M (unless q hits w).

        The statistic's mean lambda^2 ||p - q||_2^2 sits on the reject
        threshold, so the verdict goes both ways on them.
        """
        gen = Rng(seed).gen
        p = gen.dirichlet(np.ones(M))
        w = gen.dirichlet(np.ones(M))
        c_thr = estimators._closeness_band(M, CFG.closeness_bands)[2]
        t = min(1.0, math.sqrt(c_thr * eps * eps / M / float((p - w) @ (p - w))))
        return p, (1 - t) * p + t * w

    @staticmethod
    def _regime(sparse: bool) -> tuple[int, float, float]:
        """(M, b, eps): b = 1 on 4 cells puts lambda above M, so each cell
        draws its own Poisson; b = 1/M at eps .5 on 2,000 cells puts it
        below M, so the batch is drawn as inverse-CDF symbols."""
        M, b, eps = (2000, 1 / 2000, 0.5) if sparse else (4, 1.0, 0.3)
        assert (closeness_params(M, b, eps, CFG)[0] < M) == sparse
        return M, b, eps

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_verdict_is_one_batch_of_the_same_streams(self, explicit, sparse):
        # closeness_test draws X then Y once through the count kernel,
        # accepts iff their Z is at most the threshold, and accounts for
        # exactly the counts drawn. On laws whose Z sits at the threshold the
        # verdict goes both ways, with lambda above M and below it.
        M, b, eps = self._regime(sparse)
        lam, threshold = closeness_params(M, b, eps, CFG)
        kernel = estimators._poissonized_counts
        verdicts = []
        for seed in range(20):
            p, q = self._near_threshold_pair(seed, M, eps)
            views = [FlatView.from_law(v) for v in (p, q)]
            if not explicit:
                views = [draw_only(v) for v in views]
            drawn = []

            def recording(v, lam, rng, index):
                counts = kernel(v, lam, rng, index)
                drawn.append(counts.copy())  # closeness_test forms X - Y in X's array
                return counts

            account = SampleAccount()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimators, "_poissonized_counts", recording)
                accepted = closeness_test(*views, M, b, eps, 0.1, CFG, Rng(seed), account)
            rng = Rng(seed)
            x, y = (kernel(v, lam, rng, i) for i, v in enumerate(views))
            d = x.astype(np.float64) - y
            assert accepted == (float(d @ d - x.sum() - y.sum()) <= threshold)
            assert len(drawn) == 2
            assert np.array_equal(drawn[0], x) and np.array_equal(drawn[1], y)
            assert account.closeness == int(x.sum()) + int(y.sum())
            verdicts.append(accepted)
        assert 5 <= sum(verdicts) <= 15

    def test_validation(self):
        v = FlatView.from_law(np.array([1.0]))
        with pytest.raises(DomainError):
            closeness_test(v, v, 1, 1.0, 0.0, 0.1, CFG, Rng(14))
        with pytest.raises(DomainError):
            closeness_test(v, v, 1, -1.0, 0.3, 0.1, CFG, Rng(14))


def grid_view(law: np.ndarray, explicit: bool = True) -> FlatView:
    """A view over a 2-axis law's cells, row-major, that carries its grid;
    with explicit False its law is hidden, so the batch splits a stream."""
    view = FlatView.from_law(law.reshape(-1))
    view.dims = law.shape
    return view if explicit else FlatView(view.size, None, 1, view.draw, law.shape)


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
    """closeness_test(view, None, ...): one Poissonized batch of a 2-axis
    joint, scored against the product of its own marginals."""

    @staticmethod
    def _laws(F: int = 4) -> dict:
        """F x F laws for even F: a product of Dirichlet marginals, a sign
        perturbation of the uniform law at tv .3 (uniform marginals) and a
        Dirichlet joint."""
        gen = Rng(70).gen
        s = np.where(np.arange(F) % 2 == 0, 1.0, -1.0)
        return {
            "product": np.outer(gen.dirichlet(np.ones(F)), gen.dirichlet(np.ones(F))),
            "sign": (1 + 0.6 * np.outer(s, s)) / (F * F),
            "joint": gen.dirichlet(np.ones(F * F)).reshape(F, F),
        }

    @pytest.mark.parametrize("law", ["product", "sign", "joint"])
    @pytest.mark.parametrize("lam, explicit", [(6.0, True), (40.0, True), (6.0, False)], ids=["sparse", "dense", "draw"])
    def test_mean_is_the_squared_l2_gap_to_the_product(self, law, lam, explicit):
        # E[Z] = lambda^2 ||p - p_1 x p_2||_2^2 whether the kernel bins
        # inverse-CDF symbols (lambda < M), draws a Poisson per cell
        # (lambda >= M) or splits a stream on a view that hides its law
        p = self._laws()[law]
        target = lam * lam * float(((p - np.outer(p.sum(axis=1), p.sum(axis=0))) ** 2).sum())
        view = grid_view(p, explicit)
        assert (lam < view.size) == (lam == 6.0)
        rng = Rng(71)
        z = np.array(
            [joint_z(estimators._poissonized_counts(view, lam, rng.split(i), 0).reshape(4, 4), lam) for i in range(8000)]
        )
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
        # one batch through the count kernel at index 0; the verdict is
        # Z <= threshold in exact rationals, and the account holds K. b = 1/M
        # on 48 x 48 cells puts lambda below M, b = 1 on 4 x 4 above it.
        F = 48 if sparse else 4
        M, eps = F * F, 0.3
        b = 1 / M if sparse else 1.0
        lam, threshold = estimators.independence_params(M, b, eps, CFG)
        assert (lam < M) == sparse
        kernel = estimators._poissonized_counts
        verdicts = []
        for seed, law in enumerate(self._laws(F).values()):
            view = grid_view(law, explicit)
            account = SampleAccount()
            accepted = closeness_test(view, None, M, b, eps, 0.1, CFG, Rng(seed), account)
            counts = kernel(grid_view(law, explicit), lam, Rng(seed), 0).reshape(F, F)
            pairs, triples, quads = python_int_terms(counts)
            z = pairs - 2 * triples / Fraction(lam) + quads / Fraction(lam) ** 2
            assert accepted == (z <= Fraction(threshold))
            assert account.closeness == counts.sum()
            verdicts.append(accepted)
        assert verdicts[0] and not verdicts[1]

    def test_a_view_without_a_two_axis_grid_is_a_domain_error(self):
        law = np.full(12, 1 / 12)
        for view in (FlatView.from_law(law), grid_view(law.reshape(2, 2, 3))):
            account = SampleAccount()
            with pytest.raises(DomainError, match="two axes"):
                closeness_test(view, None, 12, 1 / 12, 0.3, 0.1, CFG, Rng(73), account)
            assert account.total == 0
        with pytest.raises(DomainError, match="but the view has"):
            closeness_test(grid_view(law.reshape(3, 4)), None, 16, 1 / 12, 0.3, 0.1, CFG, Rng(73))
        with pytest.raises(DomainError, match="delta must be"):
            closeness_test(grid_view(law.reshape(3, 4)), None, 12, 1 / 12, 0.3, 1 / 200, CFG, Rng(73))
        with pytest.raises(DomainError, match="cannot linearize the grid"):
            FlatView(12, law, 1, FlatView.from_law(law).draw, (3, 5))


class TestNullTail:
    """The calibration keeps each band's threshold at least NULL_SDS = 4
    standard deviations of the null's Z out at a tight b, since the testers
    make many closeness calls on null laws and a call may err far less often
    than CLOSENESS_ERROR allows. These measure what that buys on the
    benchmark's null laws: the flattened joints of the uniform (100, 20)
    input of closeness_2d, tested for independence from one joint batch,
    and of the uniform (2,)^5 cube of arity5_d, tested against the product
    view by two streams, both in the top band.

    Each draws null statistics Z on one closeness call's laws of a real
    trial, at the tight b = ||p||_2^2, where the threshold sits nearest (the
    testers' measured b is larger on nearly every call), and bounds their
    99th percentile by 5/8 of the threshold. At 4 standard deviations the
    Gaussian's 99th percentile, 2.33 of them, is 0.58 of the threshold; the
    bound leaves 7 % over that for sampling and for Z's heavier tail on a
    few hundred cells. The two-stream statistic at the top band's (6, 1.95)
    reads 0.57 on closeness_2d and 0.60 on arity5_d; at (C_close, C_thr) =
    (5, 2), 3.5 standard deviations out, where 1 in 80,000 closeness_2d
    trials rejected, they read 0.66 and 0.70. The one-batch statistic at
    its top band's (3.5, 1.7) reads 0.57 on closeness_2d.
    """

    BOUND = 5 / 8

    @staticmethod
    def _first_closeness_call(monkeypatch, config: dict) -> tuple:
        """(joint view, product view or None, M, eps) of trial 0's first closeness call under config."""
        calls = []
        real = testers._DEFAULT_HOOKS.closeness

        def record(view_p, view_q, M, b, eps, *rest):
            calls.append((view_p, view_q, M, eps))
            return real(view_p, view_q, M, b, eps, *rest)

        monkeypatch.setattr(testers._DEFAULT_HOOKS, "closeness", record)
        bench.run_single_trial(bench.ExperimentConfig(seed=7, trials=1, **config), 0)
        return calls[0]

    @pytest.mark.parametrize(
        "config, statistics, joint_only",
        [
            (dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}), 3000, True),
            (dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2] * 5}), 20000, False),
        ],
        ids=["closeness_2d", "arity5_d"],
    )
    def test_the_99th_percentile_stays_well_inside_the_threshold(self, monkeypatch, config, statistics, joint_only):
        view_p, view_q, M, eps = self._first_closeness_call(monkeypatch, config)
        p, script = view_p.probs, _calibration_script()
        assert (view_q is None) == joint_only
        if joint_only:
            bands = CFG.independence_bands
            lam, threshold = estimators.independence_params(M, float(p @ p), eps, CFG)
            z = script.joint_z_samples(p.reshape(view_p.dims), lam, statistics, Rng(36))
        else:
            bands = CFG.closeness_bands
            lam, threshold = closeness_params(M, float(p @ p), eps, CFG)
            z = script.z_samples(p, view_q.probs, lam, statistics, Rng(36))
        assert estimators._closeness_band(M, bands) == bands[-1]
        assert np.quantile(z, 0.99) / threshold <= self.BOUND


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
    @pytest.mark.parametrize(
        "M, sizes",
        [
            # lambda sized for the wrong M, and a verdict drawn anyway
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


class TestDrawCeilings:
    """A batch numpy cannot draw is a DomainError before any draw: a closeness
    rate above the largest Poisson mean, a learning size above int64."""

    @pytest.mark.parametrize("explicit", [True, False])
    @pytest.mark.parametrize("M, b", [(4, 1.0), (4, 0.25), (1, 1.0)])
    def test_closeness_rejects_a_rate_above_the_poisson_ceiling(self, M, b, explicit):
        # numpy raised a bare "lam value too large" at eps 1e-10
        with pytest.raises(DomainError, match=r"closeness batch mean lambda = .* exceeds"):
            closeness_params(M, b, 1e-10, CFG)
        v = FlatView.from_law(np.full(M, 1 / M))
        account = SampleAccount()
        with pytest.raises(DomainError, match="lambda"):
            closeness_test(*[v if explicit else draw_only(v)] * 2, M, b, 1e-10, 0.1, CFG, Rng(52), account)
        assert account.total == 0

    def test_closeness_rate_at_the_ceiling_is_drawn(self):
        # lambda = C_close / eps^2 on one cell, just below the ceiling, just above it
        c_close = CFG.closeness_bands[0][1]  # the band that serves one cell
        below = math.sqrt(c_close / domain._POISSON_MEAN_MAX) * (1 + 1e-9)
        lam, _ = closeness_params(1, 1.0, below, CFG)
        assert domain._POISSON_MEAN_MAX * (1 - 1e-8) < lam <= domain._POISSON_MEAN_MAX
        assert closeness_test(FlatView.from_law([1.0]), FlatView.from_law([1.0]), 1, 1.0, below, 0.1, CFG, Rng(53))
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

    # Each figure is the peak that the binary-search kernel with a float Z
    # reached on the same call (584,142 bytes sparse, 1,469,608 dense), plus
    # one guide table of G int64 entries, G = 16,384 and 32,768. The sparse
    # call reuses the guide its view kept from the first call; the dense one
    # builds none and its integer Z makes no float copies of the count vectors.
    @pytest.mark.parametrize(
        "M, eps, sparse, limit",
        [(9_202, 0.4, True, 584_142 + 8 * 16_384), (25_000, 1 / 192, False, 1_469_608 + 8 * 32_768)],
    )
    def test_peak_stays_under_the_stated_figure(self, M, eps, sparse, limit):
        view = FlatView.from_law(np.full(M, 1 / M))
        b = 2 / M
        assert (closeness_params(M, b, eps, CFG)[0] < M) == sparse
        # A first call pays for lazily built state (the seeded generator, the
        # view's map); the second is the one measured.
        closeness_test(view, view, M, b, eps, 1 / 80, CFG, Rng(60))
        tracemalloc.start()
        try:
            closeness_test(view, view, M, b, eps, 1 / 80, CFG, Rng(61))
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
    def test_closeness_draws_x_then_y_through_the_count_seam(self, monkeypatch, explicit):
        # perfbench's tracer counts reject votes by wrapping
        # estimators._poissonized_counts and scoring X, Y when Y returns,
        # before closeness_test reuses X's array.
        def view(pv):
            s = FlatView.from_law(pv)
            return s if explicit else FlatView(size=s.size, probs=None, cost=1, draw=s.draw)

        seen = []
        z = []
        kernel = estimators._poissonized_counts

        def recording(v, lam, rng, index):
            counts = kernel(v, lam, rng, index)
            if seen:
                x = seen[-1][1]
                d = x.astype(np.float64) - counts
                z.append(float(d @ d - x.sum() - counts.sum()))
            seen.append((v, counts))
            return counts

        monkeypatch.setattr(estimators, "_poissonized_counts", recording)
        # b = 1 at eps .1 on 6 cells runs lambda = 4,800, above M; b = 1/2,000
        # at eps .5 on 2,000 cells runs lambda = 1,431, below it. On a point
        # mass against uniform, Z's mean lambda^2 ||p - q||^2 sits about
        # sqrt(lambda) / 2 of its standard deviations (about 2 lambda^1.5)
        # above the threshold, 15 or more here, so the call rejects.
        for M, b, eps, sparse in ((6, 1.0, 0.1, False), (2000, 1 / 2000, 0.5, True)):
            point = np.zeros(M)
            point[0] = 1.0
            p, q = view(np.full(M, 1 / M)), view(point)
            seen.clear()
            z.clear()
            accepted = closeness_test(p, q, M, b, eps, 0.1, CFG, Rng(32))
            lam, threshold = closeness_params(M, b, eps, CFG)
            assert (lam < M) == sparse
            assert not accepted
            assert len(seen) == 2 and len(z) == 1
            assert z[0] > threshold
            assert all(v is w for (v, _), w in zip(seen, [p, q]))
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
        # All n batches look up through one guide map, which the view keeps
        # from a first call that expects their n * lam lookups.
        table = view.inverse_cdf(n * lam)
        counts = np.array([estimators._poissonized_counts(view, lam, rng, j) for j in range(n)])
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
            counts = estimators._poissonized_counts(view, lam, rng, 0)
            assert np.array_equal(counts, ref.poisson(lam * law))
            assert rng.gen.bit_generator.state == ref.bit_generator.state
        lam = math.nextafter(M, 0)
        for lookups in (None, 1000 * lam):
            view = FlatView.from_law(law)
            if lookups is not None:
                view.inverse_cdf(lookups)
            rng, ref = Rng(41), Rng(41).gen
            counts = estimators._poissonized_counts(view, lam, rng, 0)
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
