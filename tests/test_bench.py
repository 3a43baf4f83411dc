"""Tests for the Monte-Carlo benchmark harness: configs, determinism, reports."""

import csv
import json
import math
import os
import pickle

import numpy as np
import pytest

from augtest import bench
from augtest.bench import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    emit_report,
    emit_sweep,
    run_single_trial,
    run_trials,
    summarize,
    sweep_alpha,
    wilson_interval,
    worker_count,
)
from augtest.domain import DomainError, JointDistribution, save_distribution

BASE = dict(
    tester="2d",
    trials=4,
    seed=11,
    eps=0.4,
    alpha=0.05,
    instance={"kind": "uniform", "dims": [8, 5]},
)
HARD2D = {"kind": "hard2d", "n": 64, "m": 16, "k": 6, "alpha": 0.3, "eps": 1.0 / 192.0}

# Config values ExperimentConfig rejects at load, with the error each raises.
LOAD_ERRORS = [
    ({"prediction": "psychic"}, "unknown prediction"),
    ({"prediction": {"path": "p.json"}}, "prediction mapping"),
    ({"prediction": {"file": "p.json", "typo": 1}}, "prediction mapping"),
    ({"prediction": "natural", "instance": {"kind": "file", "path": "p.json"}}, "no natural prediction"),
    ({"prediction": "natural", "instance": {"kind": "correlated", "size": 4}}, "no natural prediction"),
    ({"prediction": "natural", "instance": {"kind": "product_random", "dims": [4, 3]}}, "no natural prediction"),
    ({"profile": "exotic"}, "unknown profile"),
    ({"eps": 7}, "eps must be"),
    ({"eps": 0}, "eps must be"),
    ({"alpha": 1.5}, "alpha must be"),
    ({"alpha": -0.1}, "alpha must be"),
    ({"alpha": "approx"}, "could not convert"),
    ({"instance": {"kind": "uniform", "dims": [8, 5], "dimz": [3]}}, "takes no keys"),
    ({"instance": {"kind": "correlated", "size": 4, "force_x": 1}}, "takes no keys"),
    ({"instance": dict(HARD2D, require_valid=False)}, "takes no keys"),
    ({"instance": dict(HARD2D, eps=0.1)}, "above the regime bound"),
    ({"instance": dict(HARD2D, k=40)}, "need 1 <= k <= n/2"),
    ({"instance": dict(HARD2D, n=8)}, "need n >= m >= 2"),
    ({"instance": dict(HARD2D, alpha=0)}, "alpha must be in"),
    ({"instance": dict(HARD2D, force_x=2)}, "force_x must be 0 or 1"),
    ({"instance": dict(HARD2D, embed_dims=[4, 5])}, "do not multiply to m=16"),
    ({"instance": dict(HARD2D, embed_dims=[8, 2, 1])}, "every axis size must be >= 2"),
    ({"instance": dict(HARD2D, embed_dims=[4.0, 4])}, "dims must be a sequence of integers"),
    ({"trials": 2.5}, "trials must be an integer"),
    ({"jobs": 1.5}, "jobs must be an integer"),
    ({"seed": "11"}, "seed must be an integer"),
    ({"instance": dict(HARD2D, n=64.5)}, "n, m and k must be integers"),
    ({"instance": dict(HARD2D, k=6.0)}, "n, m and k must be integers"),
    ({"instance": {"kind": "correlated", "size": 2.5}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "correlated", "size": "3"}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "correlated", "size": 1}}, "every axis size must be >= 2"),
    ({"alpha": "exact", "alpha_margin": float("nan")}, "alpha_margin must be a finite number"),
    ({"alpha": "exact", "alpha_margin": "0.1"}, "alpha_margin must be a finite number"),
    ({"instance": {"kind": "file", "path": 123}}, "path must be a string"),
    ({"prediction": {"file": 3}}, "prediction mapping"),
    ({"instance": {"kind": "uniform", "dims": [2.5, 3]}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "uniform", "dims": [1, 5]}}, "every axis size must be >= 2"),
    ({"instance": {"kind": "product_random", "dims": [2.5, 3]}}, "dims must be a sequence of integers"),
    ({"instance": {"kind": "product_random", "dims": "43"}}, "dims must be a sequence of integers"),
]


class TestConfig:
    def test_round_trip_from_dict(self):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        assert cfg.tester == "2d"
        assert cfg.prediction == "exact"
        assert cfg.profile == "practical"

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, typo_field=1))

    def test_unknown_tester_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, tester="4d"))

    def test_trial_and_job_counts_validated(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, trials=0))
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, jobs=0))

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        assert ExperimentConfig.from_file(str(path)).seed == 11

    def test_estimator_block_rejected(self):
        # the estimators run at their calibrated defaults; a config cannot set them
        with pytest.raises(DomainError, match="unknown config keys"):
            ExperimentConfig.from_dict(dict(BASE, estimator={"norm_sample_mult": 8.0}))

    @pytest.mark.parametrize("overrides, message", LOAD_ERRORS)
    def test_bad_values_fail_at_load(self, overrides, message):
        # each would otherwise fail only inside a trial, in a worker when jobs > 1
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(dict(BASE, **overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"eps": 1.0, "alpha": 0.0},
            {"alpha": 1.0, "profile": "theory"},
            {"alpha": "exact", "prediction": "natural"},
            {"prediction": {"file": "p.json"}},  # read per trial, not at load
            {"instance": dict(HARD2D, force_x=1, embed_dims=[4, 4]), "prediction": "natural"},
        ],
    )
    def test_edge_values_load(self, overrides):
        ExperimentConfig.from_dict(dict(BASE, **overrides))


class TestWorkers:
    def test_worker_count_is_capped_by_trials_and_cores(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        assert worker_count(10_000, 10_000) == cores
        assert worker_count(10_000, 1) == 1
        assert worker_count(1, 10_000) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        assert worker_count(10_000, 10_000) == 4
        assert worker_count(10_000, 3) == 3
        assert worker_count(2, 10_000) == 2

    def test_worker_error_reaches_the_caller(self, tmp_path):
        # a config-valid instance that each trial fails to build: its file's masses sum to 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "probs": [0.5] * 4}))
        cfg = ExperimentConfig.from_dict(dict(BASE, jobs=2, instance={"kind": "file", "path": str(path)}))
        with pytest.raises(DomainError):
            run_trials(cfg)


class TestDeterminism:
    def test_reruns_are_identical(self):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        assert run_trials(cfg) == run_trials(cfg)

    def test_jobs_do_not_change_results(self):
        solo = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        multi = run_trials(ExperimentConfig.from_dict(dict(BASE, jobs=3)))
        assert solo == multi
        # A hidden-bit instance whose flat size (288 x 50 = 14,400) is past
        # where a BLAS float dot would start threads of its own.
        hard = dict(
            BASE,
            instance={
                "kind": "hard2d",
                "n": 120,
                "m": 20,
                "k": 10,
                "alpha": 0.3,
                "eps": 1.0 / 192.0,
                "force_x": 1,
            },
            prediction="natural",
            eps=1.0 / 192.0,
            alpha="exact",
            alpha_margin=0.01,
            trials=3,
        )
        solo = run_trials(ExperimentConfig.from_dict(hard))
        multi = run_trials(ExperimentConfig.from_dict(dict(hard, jobs=2)))
        assert solo == multi
        assert all(r.stage == "closeness" and r.outcome == "reject" for r in solo)

    def test_trials_differ_from_each_other(self):
        records = run_trials(ExperimentConfig.from_dict(dict(BASE, trials=6)))
        assert len({r.samples_total for r in records}) > 1

    def test_seed_changes_results(self):
        a = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        b = run_trials(ExperimentConfig.from_dict(dict(BASE, seed=12)))
        assert a != b


class TestCsvOutput:
    def test_schema_and_ms_formatting(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        records = run_trials(cfg)
        path = tmp_path / "out.csv"
        emit_report(records, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + cfg.trials
        for row in rows[1:]:
            assert row[-1] == "0.000"  # timing disabled by default
            assert row[2] in ("accept", "reject", "inaccurate_information")

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_trials(cfg), str(p1))
        emit_report(run_trials(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_timing_populates_ms(self):
        cfg = ExperimentConfig.from_dict(dict(BASE, record_timing=True, trials=1))
        assert run_single_trial(cfg, 0).ms > 0

    def test_records_survive_pickling_with_the_same_csv(self, tmp_path):
        # Forked workers hand their records back pickled; slotted records
        # carry no per-instance dict.
        records = run_trials(ExperimentConfig.from_dict(dict(BASE)))
        assert not hasattr(records[0], "__dict__")
        copies = pickle.loads(pickle.dumps(records))
        assert copies == records
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(records, str(p1))
        emit_report(copies, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4901568467, abs=1e-9)
        assert hi == pytest.approx(0.9433190520, abs=1e-9)
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.2775401688, abs=1e-9)
        lo, hi = wilson_interval(10, 10)
        assert lo == pytest.approx(0.7224598312, abs=1e-9)
        assert hi == 1.0

    def test_requires_trials(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)


class TestSummaries:
    def test_counts_and_rates(self):
        records = run_trials(ExperimentConfig.from_dict(dict(BASE, trials=6)))
        s = summarize(records)
        assert s["trials"] == 6
        total = sum(s[k]["count"] for k in ("accept", "reject", "inaccurate_information"))
        assert total == 6
        for k in ("accept", "reject", "inaccurate_information"):
            assert s[k]["rate"] == s[k]["count"] / 6
            lo, hi = s[k]["wilson95"]
            assert 0.0 <= lo <= s[k]["rate"] <= hi <= 1.0
        assert s["mean_samples"] == pytest.approx(
            float(np.mean([r.samples_total for r in records]))
        )

    def test_sample_columns_sum_to_total(self):
        for r in run_trials(ExperimentConfig.from_dict(dict(BASE))):
            assert (
                r.samples_flatten + r.samples_norm + r.samples_closeness + r.samples_learning
                == r.samples_total
            )


class TestInstanceKinds:
    def test_file_instance_and_prediction(self, tmp_path):
        p = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
        dpath = tmp_path / "dist.json"
        save_distribution(p, str(dpath))
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "file", "path": str(dpath)},
                prediction={"file": str(dpath)},
                trials=1,
            )
        )
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_file_instance_has_no_natural_prediction(self, tmp_path):
        p = JointDistribution.uniform((3, 3))
        dpath = tmp_path / "dist.json"
        save_distribution(p, str(dpath))
        # rejected when the config is loaded, before any trial runs
        with pytest.raises(DomainError, match="no natural prediction"):
            ExperimentConfig.from_dict(
                dict(BASE, instance={"kind": "file", "path": str(dpath)}, prediction="natural", trials=1)
            )

    def test_correlated_instance_rejects(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "correlated", "size": 6},
                prediction="uniform",
                alpha=1.0,
                trials=8,
            )
        )
        records = run_trials(cfg)
        rejects = sum(r.outcome == "reject" for r in records)
        assert rejects >= 6

    def test_product_random_accepts(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={"kind": "product_random", "dims": [6, 4]},
                prediction="exact",
                trials=8,
            )
        )
        accepts = sum(r.outcome == "accept" for r in run_trials(cfg))
        assert accepts >= 6

    def test_hard2d_instance(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                instance={
                    "kind": "hard2d",
                    "n": 100,
                    "m": 10,
                    "k": 10,
                    "alpha": 0.3,
                    "eps": 1.0 / 192.0,
                    "force_x": 0,
                },
                prediction="natural",
                eps=1.0 / 192.0,
                alpha=0.3,
                trials=2,
            )
        )
        records = run_trials(cfg)
        assert len(records) == 2

    def test_hard2d_embedding(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE,
                tester="d",
                instance={
                    "kind": "hard2d",
                    "n": 64,
                    "m": 16,
                    "k": 6,
                    "alpha": 0.3,
                    "eps": 1.0 / 192.0,
                    "force_x": 0,
                    "embed_dims": [4, 4],
                },
                prediction="natural",
                eps=1.0 / 192.0,
                alpha=0.3,
                trials=1,
            )
        )
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_unknown_kind(self):
        # rejected when the config is loaded, before any trial runs
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(dict(BASE, instance={"kind": "mystery"}, trials=1))

    def test_unknown_prediction(self):
        with pytest.raises(DomainError, match="unknown prediction"):
            ExperimentConfig.from_dict(dict(BASE, prediction="psychic", trials=1))

    def test_point_mass_prediction_never_rejects_a_product(self):
        # A point-mass prediction on a uniform product input: the per-axis
        # norm gates may call the claim inaccurate, but flattening by any
        # prediction keeps the input a product, so no trial may reject it.
        cfg = ExperimentConfig.from_dict(
            dict(BASE, seed=3, trials=20, instance={"kind": "uniform", "dims": [20, 10]},
                 prediction="point_mass")
        )
        assert "reject" not in {r.outcome for r in run_trials(cfg)}


class TestAlphaHandling:
    def test_exact_alpha_uses_tv_plus_margin(self):
        # exact prediction has tv 0, so alpha = margin; a huge margin clamps to 1
        cfg = ExperimentConfig.from_dict(dict(BASE, alpha="exact", alpha_margin=0.07, trials=1))
        r = run_single_trial(cfg, 0)
        assert r.outcome in ("accept", "reject", "inaccurate_information")

    def test_alpha_override_wins(self):
        # a sweep row summarizes a plain run at the row's alpha, whatever alpha the config holds
        cfg = ExperimentConfig.from_dict(dict(BASE, alpha=1.0, trials=2))
        (row,) = sweep_alpha(cfg, [0.05])
        s = summarize(run_trials(ExperimentConfig.from_dict(dict(BASE, trials=2))))  # BASE claims 0.05
        assert row == {
            "alpha": 0.05,
            "mean_samples": s["mean_samples"],
            "accept_rate": s["accept"]["rate"],
            "reject_rate": s["reject"]["rate"],
            "inaccurate_rate": s["inaccurate_information"]["rate"],
        }
        assert summarize(run_trials(cfg))["mean_samples"] != row["mean_samples"]


class TestAmplification:
    def test_small_delta_runs_amplified(self):
        # amplified runs repeat the base tester 7 times, so accounts scale up
        base = run_single_trial(ExperimentConfig.from_dict(dict(BASE, trials=1)), 0)
        amp = run_single_trial(
            ExperimentConfig.from_dict(dict(BASE, trials=1, delta=0.05)), 0
        )
        assert amp.samples_total > 5 * base.samples_total

    def test_learn_tester_ignores_amplification(self):
        cfg = ExperimentConfig.from_dict(
            dict(BASE, tester="learn", delta=0.05, trials=1, eps=0.35)
        )
        r = run_single_trial(cfg, 0)
        # one learning call at delta=0.05: t = ceil((40 + ln(3/0.05)) / (0.05)^2)
        t = math.ceil((40 + math.log(3 / 0.05)) / 0.05**2)
        assert r.samples_learning == t


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(BASE, trials=3))
        rows = sweep_alpha(cfg, [0.3, 0.1])
        assert [r["alpha"] for r in rows] == [0.3, 0.1]
        for r in rows:
            assert set(r) == set(SWEEP_COLUMNS)
            assert r["accept_rate"] + r["reject_rate"] + r["inaccurate_rate"] == pytest.approx(1.0)
        path = tmp_path / "sweep.csv"
        emit_sweep(rows, str(path))
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == SWEEP_COLUMNS
        assert len(got) == 3

    def test_bad_level_fails_before_any_level_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "run_trials", ran.append)
        with pytest.raises(DomainError, match="alpha must be"):
            sweep_alpha(ExperimentConfig.from_dict(dict(BASE)), [0.3, 1.5])
        assert ran == []
