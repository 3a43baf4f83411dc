"""Tests for the hidden-bit hard-instance family and its validity certificates."""

import math

import numpy as np
import pytest

from augtest.domain import (
    DomainError,
    JointDistribution,
    Rng,
    merge_axes,
    tv_distance,
    tv_to_own_product,
)
from augtest.hard_instances import (
    EPS_REGIME_MAX,
    embed_hard_to_d,
    gen_hard_2d,
    gen_valid_hard_2d,
    poissonized_counts,
    rank_one_gap,
    validity_check,
)

EPS = EPS_REGIME_MAX  # largest eps the default construction admits


class TestPreconditions:
    def test_axis_ordering_required(self):
        with pytest.raises(DomainError):
            gen_hard_2d(5, 10, 2, 0.3, EPS, Rng(1))

    def test_sizes_must_be_integers(self):
        with pytest.raises(DomainError, match="must be integers"):
            gen_hard_2d(64.5, 16, 6, 0.3, EPS, Rng(1))

    def test_k_range(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 0, 0.3, EPS, Rng(1))
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 6, 0.3, EPS, Rng(1))

    def test_alpha_eps_ranges(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 2, 0.0, EPS, Rng(1))
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 2, 0.3, 0.0, Rng(1))

    def test_eps_above_regime_needs_override(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 2, 0.3, 0.1, Rng(1))
        inst = gen_hard_2d(10, 5, 2, 0.3, 0.1, Rng(1), eps_meas=0.5)
        assert inst.eps_meas == 0.5
        assert not inst.regime_ok

    def test_eps_meas_must_stay_in_unit_range(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 2, 0.3, 0.1, Rng(1), eps_meas=1.5)

    def test_heavy_probability_bounded(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 5, 0.3, EPS, Rng(1), alpha_meas=3.0)

    def test_force_x_values(self):
        with pytest.raises(DomainError):
            gen_hard_2d(10, 5, 2, 0.3, EPS, Rng(1), force_x=2)

    def test_narrow_second_axis_warns_and_voids_regime(self):
        with pytest.warns(UserWarning):
            inst = gen_hard_2d(2000, 5, 10, 0.3, EPS, Rng(1))
        assert not inst.regime_ok


class TestConstruction:
    def test_default_measured_parameters(self):
        inst = gen_hard_2d(100, 10, 10, 0.3, EPS, Rng(2))
        assert inst.eps_meas == pytest.approx(192.0 * EPS)
        assert inst.alpha_meas == pytest.approx(0.2)
        assert inst.regime_ok

    def test_row_scalars(self):
        inst = gen_hard_2d(100, 10, 10, 0.3, EPS, Rng(3))
        heavy_mask = np.zeros(100, dtype=bool)
        heavy_mask[inst.heavy] = True
        assert np.all(inst.c[heavy_mask] == 1.0 / inst.k)
        assert np.all(inst.c[~heavy_mask] == 1.0 / inst.n)
        assert inst.C == pytest.approx(inst.c.sum())

    def test_mass_identities(self):
        inst = gen_hard_2d(60, 8, 6, 0.3, EPS, Rng(4), force_x=1)
        assert np.allclose(inst.Q, inst.c[:, None] * inst.P, atol=0)
        assert np.allclose(inst.row_sums, inst.P.sum(axis=1), atol=0)
        denom = inst.row_sums[:, None] * inst.C
        expected = np.divide(inst.Q, denom, out=np.zeros_like(inst.Q), where=denom > 0)
        expected = expected / expected.sum()
        assert np.allclose(inst.p.table(), expected, atol=1e-15)
        assert abs(inst.p.probs.sum() - 1.0) <= 1e-12

    def test_x0_is_exact_product(self):
        inst = gen_hard_2d(80, 10, 8, 0.3, EPS, Rng(5), force_x=0)
        assert inst.signs is None
        assert np.all(inst.P == 1.0 / inst.m)
        assert rank_one_gap(inst.p) <= 1e-12

    def test_x1_signs_on_light_rows_only(self):
        inst = gen_hard_2d(80, 10, 8, 0.3, EPS, Rng(6), force_x=1)
        assert inst.signs is not None
        heavy_mask = np.zeros(80, dtype=bool)
        heavy_mask[inst.heavy] = True
        assert np.all(inst.signs[heavy_mask] == 0)
        assert np.all(np.abs(inst.signs[~heavy_mask]) == 1)
        assert np.allclose(inst.P, (1.0 + inst.eps_meas * inst.signs) / inst.m)

    def test_prediction_is_uniform(self):
        inst = gen_hard_2d(40, 8, 4, 0.3, EPS, Rng(7))
        assert np.all(inst.prediction.probs == 1.0 / (40 * 8))

    def test_x0_tv_to_uniform_formula(self):
        # rows are uniform, so tv(p, uniform) = 0.5 * sum_i |c_i/C - 1/n|
        inst = gen_hard_2d(120, 10, 12, 0.3, EPS, Rng(8), force_x=0)
        expected = 0.5 * np.abs(inst.c / inst.C - 1.0 / inst.n).sum()
        assert tv_distance(inst.p, inst.prediction) == pytest.approx(expected, abs=1e-12)

    def test_empty_row_at_boundary_carries_no_mass(self):
        # at eps_meas = 1 an all-minus light row sums to zero; it must come
        # out massless with a finite, normalized distribution
        found = None
        for t in range(200):
            inst = gen_hard_2d(30, 4, 3, 0.3, EPS, Rng(33, (t,)), force_x=1)
            zero_rows = np.flatnonzero(inst.row_sums == 0)
            if zero_rows.size:
                found = (inst, zero_rows)
                break
        assert found is not None, "no zero-sum row produced; widen the search"
        inst, zero_rows = found
        table = inst.p.table()
        assert np.all(table[zero_rows] == 0.0)
        assert np.all(np.isfinite(inst.p.probs))
        assert inst.p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = gen_hard_2d(50, 10, 5, 0.3, EPS, Rng(9), force_x=1)
        b = gen_hard_2d(50, 10, 5, 0.3, EPS, Rng(9), force_x=1)
        assert np.array_equal(a.p.probs, b.p.probs)
        assert np.array_equal(a.heavy, b.heavy)
        assert np.array_equal(a.signs, b.signs)

    def test_meta_payload(self):
        inst = gen_hard_2d(50, 10, 5, 0.3, EPS, Rng(10))
        meta = inst.meta(seed=77)
        assert meta["seed"] == 77
        assert meta["k"] == 5
        assert meta["x"] in (0, 1)
        assert meta["heavy_rows"] == [int(i) for i in inst.heavy]
        assert "seed" not in inst.meta()


class TestCounts:
    def test_shape_and_dtype(self):
        inst = gen_hard_2d(50, 10, 5, 0.3, EPS, Rng(11))
        counts = poissonized_counts(inst, Rng(12))
        assert counts.shape == (50, 10)
        assert counts.min() >= 0
        assert np.issubdtype(counts.dtype, np.integer)

    def test_total_concentrates_on_expectation(self):
        # E[sum a_ij] = k * sum Q = k * sum_i c_i s_i
        inst = gen_hard_2d(200, 20, 20, 0.3, EPS, Rng(13), force_x=0)
        mean_total = inst.k * float((inst.c * inst.row_sums).sum())
        totals = [poissonized_counts(inst, Rng(14, (t,))).sum() for t in range(300)]
        se = np.std(totals, ddof=1) / math.sqrt(len(totals))
        assert abs(np.mean(totals) - mean_total) <= 4 * se


class TestValidity:
    def test_target_formulas(self):
        inst = gen_hard_2d(100, 10, 10, 0.3, EPS, Rng(15), force_x=1)
        report = validity_check(inst, poissonized_counts(inst, Rng(16)))
        assert report.row_target == pytest.approx(
            inst.eps_meas * math.sqrt((2 / 10) * math.log(50 * 100))
        )
        assert report.col_target == pytest.approx(
            inst.eps_meas * math.sqrt((2 / 100) * math.log(50 * 10))
        )

    def test_x0_report(self):
        inst = gen_hard_2d(100, 10, 10, 0.3, EPS, Rng(17), force_x=0)
        report = validity_check(inst, poissonized_counts(inst, Rng(18)))
        assert report.max_row_dev == 0.0
        assert report.max_col_dev == 0.0
        assert report.product_exact_ok
        assert report.tv_ok == (report.tv_to_uniform <= inst.alpha)
        assert report.heavy_count == inst.heavy.size

    def test_x1_certificate_threshold(self):
        inst = gen_hard_2d(200, 20, 10, 0.3, EPS, Rng(19), force_x=1)
        report = validity_check(inst, poissonized_counts(inst, Rng(20)))
        assert report.tv_to_marg_product == pytest.approx(tv_to_own_product(inst.p), abs=1e-12)
        assert report.tv_ok == (report.tv_to_marg_product >= 3 * inst.eps)

    def test_sign_deviations_match_matrix(self):
        inst = gen_hard_2d(100, 10, 10, 0.3, EPS, Rng(21), force_x=1)
        report = validity_check(inst, poissonized_counts(inst, Rng(22)))
        dev = inst.eps_meas * inst.signs
        assert report.max_row_dev == pytest.approx(np.abs(dev.sum(axis=1) / 10).max())
        assert report.max_col_dev == pytest.approx(np.abs(dev.sum(axis=0) / 100).max())

    def test_counts_shape_validated(self):
        inst = gen_hard_2d(50, 10, 5, 0.3, EPS, Rng(23))
        with pytest.raises(DomainError):
            validity_check(inst, np.zeros((10, 50)))

    def test_heavy_and_sample_events(self):
        inst = gen_hard_2d(2000, 50, 150, 0.3, EPS, Rng(24))
        counts = poissonized_counts(inst, Rng(25))
        report = validity_check(inst, counts)
        assert report.heavy_count_ok == (report.heavy_count <= 1.5 * inst.alpha_meas * inst.k)
        assert report.sample_count_ok == (counts.sum() >= inst.k / 100)


class TestGenValid:
    def test_returns_passing_instance(self):
        inst, counts, report = gen_valid_hard_2d(200, 20, 10, 0.3, EPS, Rng(26))
        assert report.valid
        assert counts.shape == (200, 20)
        if inst.x == 0:
            assert rank_one_gap(inst.p) <= 1e-12
            assert tv_distance(inst.p, inst.prediction) <= inst.alpha
        else:
            assert tv_to_own_product(inst.p) >= 3 * inst.eps

    def test_deterministic(self):
        a = gen_valid_hard_2d(200, 20, 10, 0.3, EPS, Rng(27))
        b = gen_valid_hard_2d(200, 20, 10, 0.3, EPS, Rng(27))
        assert np.array_equal(a[0].p.probs, b[0].p.probs)
        assert np.array_equal(a[1], b[1])

    def test_forced_bit_respected(self):
        for x in (0, 1):
            inst, _, _ = gen_valid_hard_2d(200, 20, 10, 0.3, EPS, Rng(28, (x,)), force_x=x)
            assert inst.x == x


class TestEmbedding:
    def test_roundtrip_exact(self):
        inst = gen_hard_2d(64, 16, 6, 0.3, EPS, Rng(29), force_x=1)
        p_d, pred_d = embed_hard_to_d(inst, (2, 2, 2, 2))
        assert p_d.dims == (64, 2, 2, 2, 2)
        merged = merge_axes(p_d, [[0], [1, 2, 3, 4]])
        assert np.array_equal(merged.probs, inst.p.probs)

    def test_prediction_stays_uniform(self):
        inst = gen_hard_2d(64, 16, 6, 0.3, EPS, Rng(30))
        _, pred_d = embed_hard_to_d(inst, (4, 4))
        assert pred_d.dims == (64, 4, 4)
        assert np.all(pred_d.probs == 1.0 / (64 * 16))

    def test_tv_certificates_survive_reindexing(self):
        inst = gen_hard_2d(64, 16, 6, 0.3, EPS, Rng(31), force_x=1)
        p_d, pred_d = embed_hard_to_d(inst, (4, 4))
        assert tv_distance(p_d, pred_d) == pytest.approx(
            tv_distance(inst.p, inst.prediction), abs=1e-14
        )

    def test_bad_factorization_rejected(self):
        inst = gen_hard_2d(64, 16, 6, 0.3, EPS, Rng(32))
        with pytest.raises(DomainError):
            embed_hard_to_d(inst, (3, 5))
