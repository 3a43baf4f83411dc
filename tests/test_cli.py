"""End-to-end tests of the command-line interface via click's test runner."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from augtest import bench, cli, testers
from augtest.cli import main
from augtest.domain import JointDistribution, SampleAccount, save_distribution
from augtest.testers import Outcome, Verdict


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    """Writes the distribution files the commands consume; returns their paths."""
    paths = {}

    uniform = JointDistribution.uniform((8, 5))
    paths["uniform"] = str(tmp_path / "uniform.json")
    save_distribution(uniform, paths["uniform"])

    t = np.zeros((4, 4))
    np.fill_diagonal(t, 0.25)
    paths["diag"] = str(tmp_path / "diag.json")
    save_distribution(JointDistribution.from_table(t), paths["diag"])
    paths["uniform44"] = str(tmp_path / "uniform44.json")
    save_distribution(JointDistribution.uniform((4, 4)), paths["uniform44"])

    pm = np.zeros(400)
    pm[0] = 1.0
    paths["point"] = str(tmp_path / "point.json")
    save_distribution(JointDistribution((100, 4), pm), paths["point"])
    wrong = np.zeros(400)
    wrong[-1] = 1.0
    paths["wrong_point"] = str(tmp_path / "wrong_point.json")
    save_distribution(JointDistribution((100, 4), wrong), paths["wrong_point"])

    paths["uniform3d"] = str(tmp_path / "uniform3d.json")
    save_distribution(JointDistribution.uniform((4, 3, 2)), paths["uniform3d"])

    paths["tmp"] = tmp_path
    return paths


class TestVerdictCommands:
    def test_accept_exits_zero(self, runner, files):
        res = runner.invoke(
            main,
            ["test2d", "--dist", files["uniform"], "--pred", files["uniform"],
             "--alpha", "0.05", "--eps", "0.4", "--seed", "0"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["outcome"] == "accept"
        assert payload["seed"] == 0
        assert payload["samples"]["total"] > 0

    def test_reject_exits_two(self, runner, files):
        res = runner.invoke(
            main,
            ["test2d", "--dist", files["diag"], "--pred", files["uniform44"],
             "--alpha", "1.0", "--eps", "0.4", "--seed", "0"],
        )
        assert res.exit_code == 2
        assert json.loads(res.output)["outcome"] == "reject"

    def test_inaccurate_exits_three(self, runner, files):
        res = runner.invoke(
            main,
            ["test2d", "--dist", files["point"], "--pred", files["wrong_point"],
             "--alpha", "0.0", "--eps", "0.4", "--seed", "0"],
        )
        assert res.exit_code == 3
        payload = json.loads(res.output)
        assert payload["outcome"] == "inaccurate_information"
        assert payload["stage"] == "norm_gate"

    def test_3d_command(self, runner, files):
        res = runner.invoke(
            main,
            ["test3d", "--dist", files["uniform3d"], "--pred", files["uniform3d"],
             "--alpha", "0.05", "--eps", "0.4", "--seed", "0"],
        )
        assert res.exit_code in (0, 2, 3)
        assert json.loads(res.output)["outcome"]

    def test_d_command_routes_low_arity(self, runner, files):
        res = runner.invoke(
            main,
            ["testd", "--dist", files["uniform"], "--pred", files["uniform"],
             "--alpha", "0.05", "--eps", "0.4", "--seed", "0"],
        )
        assert res.exit_code == 0

    def test_amplified_run(self, runner, files):
        res = runner.invoke(
            main,
            ["test2d", "--dist", files["uniform"], "--pred", files["uniform"],
             "--alpha", "0.05", "--eps", "0.4", "--seed", "0", "--delta", "0.05"],
        )
        assert res.exit_code == 0

    def test_arity_mismatch_exits_one(self, runner, files):
        res = runner.invoke(
            main,
            ["test3d", "--dist", files["uniform"], "--pred", files["uniform"],
             "--alpha", "0.05", "--eps", "0.4"],
        )
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_bad_alpha_exits_one(self, runner, files):
        res = runner.invoke(
            main,
            ["test2d", "--dist", files["uniform"], "--pred", files["uniform"],
             "--alpha", "1.5", "--eps", "0.4"],
        )
        assert res.exit_code == 1

    def test_unreadable_distribution_exits_one(self, runner, files):
        bad = files["tmp"] / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(
            main,
            ["test2d", "--dist", str(bad), "--pred", files["uniform"],
             "--alpha", "0.05", "--eps", "0.4"],
        )
        assert res.exit_code == 1

    @pytest.mark.parametrize("command", ["test2d", "test3d", "testd"])
    @pytest.mark.parametrize("delta", ["1.5", "1"])
    def test_delta_outside_the_unit_interval_exits_one(self, runner, files, command, delta):
        dist = files["uniform3d"] if command == "test3d" else files["uniform"]
        res = runner.invoke(
            main,
            [command, "--dist", dist, "--pred", dist, "--alpha", "0.05", "--eps", "0.4", "--delta", delta],
        )
        assert res.exit_code == 1
        assert "error:" in res.output

    @pytest.mark.parametrize(
        "change",
        [
            {"--pred": None},  # missing required option
            {"--alpha": "abc"},  # not a number
            {"--dist": "no/such/file.json"},  # no such file
            {"--profile": "exotic"},  # not a choice
        ],
    )
    def test_usage_errors_exit_one(self, runner, files, change):
        opts = {"--dist": files["uniform"], "--pred": files["uniform"], "--alpha": "0.05", "--eps": "0.4"}
        opts.update(change)
        args = ["test2d"] + [tok for k, v in opts.items() if v is not None for tok in (k, v)]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "Error:" in res.output  # click's own message, kept

    @pytest.mark.parametrize("command", ["test2d", "test3d", "testd", "learn", "gen-hard"])
    def test_negative_seed_exits_one_naming_it(self, runner, files, command):
        dist = files["uniform3d"] if command == "test3d" else files["uniform"]
        args = {
            "learn": ["--dist", dist, "--eps", "0.35"],
            "gen-hard": ["--n", "64", "--m", "16", "--k", "6", "--alpha", "0.3", "--eps", "0.005",
                         "--out", str(files["tmp"] / "never.json")],
        }.get(command, ["--dist", dist, "--pred", dist, "--alpha", "0.05", "--eps", "0.4"])
        res = runner.invoke(main, [command, *args, "--seed", "-5"])
        assert res.exit_code == 1
        assert "Invalid value for '--seed'" in res.output
        assert not (files["tmp"] / "never.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": None, "probs": [0.25] * 4},
            {"dims": [2.7, 2], "probs": [0.25] * 4},
            {"dims": "22", "probs": [0.25] * 4},
            {"dims": [2, 2], "probs": ["a", "b", "c", "d"]},
            {"dims": [2, 3], "probs": [[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]]},
        ],
    )
    def test_malformed_distribution_exits_one(self, runner, files, payload):
        bad = files["tmp"] / "bad.json"
        bad.write_text(json.dumps(payload))
        res = runner.invoke(
            main,
            ["testd", "--dist", str(bad), "--pred", str(bad), "--alpha", "0.05", "--eps", "0.4"],
        )
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert res.exit_code == 1
        assert "error:" in res.output


class TestLearnCommand:
    def test_default_delta_is_the_base_delta(self, runner):
        (param,) = [p for p in main.commands["learn"].params if p.name == "delta"]
        assert param.default == testers.BASE_DELTA == 0.1

    def test_accept(self, runner, files):
        res = runner.invoke(main, ["learn", "--dist", files["uniform"], "--eps", "0.35", "--seed", "0"])
        assert res.exit_code == 0
        assert json.loads(res.output)["outcome"] == "accept"

    def test_reject(self, runner, files):
        res = runner.invoke(main, ["learn", "--dist", files["diag"], "--eps", "0.35", "--seed", "0"])
        assert res.exit_code == 2

    def test_axis_subset_single_axis_accepts(self, runner, files):
        res = runner.invoke(
            main, ["learn", "--dist", files["diag"], "--eps", "0.35", "--axes", "0"]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["samples"]["total"] == 0

    def test_bad_axes_exit_one(self, runner, files):
        res = runner.invoke(
            main, ["learn", "--dist", files["diag"], "--eps", "0.35", "--axes", "0,7"]
        )
        assert res.exit_code == 1


class TestGenHard:
    def test_payload_written(self, runner, files):
        out = str(files["tmp"] / "hard.json")
        res = runner.invoke(
            main,
            ["gen-hard", "--n", "100", "--m", "10", "--k", "10", "--alpha", "0.3",
             "--eps", "0.005", "--force-x", "1", "--seed", "3", "--out", out],
        )
        assert res.exit_code == 0
        echo = json.loads(res.output)
        assert echo["x"] == 1 and echo["out"] == out
        with open(out) as fh:
            payload = json.load(fh)
        assert set(payload) == {"instance", "meta", "validity"}
        assert payload["instance"]["dims"] == [100, 10]
        assert len(payload["instance"]["probs"]) == 1000
        assert payload["meta"]["seed"] == 3
        assert isinstance(payload["validity"]["valid"], bool)

    def test_out_of_regime_eps_exits_one(self, runner, files):
        out = str(files["tmp"] / "never.json")
        res = runner.invoke(
            main,
            ["gen-hard", "--n", "100", "--m", "10", "--k", "10", "--alpha", "0.3",
             "--eps", "0.1", "--out", out],
        )
        assert res.exit_code == 1
        assert "error:" in res.output


class TestBenchCommands:
    def write_config(self, tmp, **overrides):
        cfg = dict(
            tester="2d", trials=3, seed=5, eps=0.4, alpha=0.05,
            instance={"kind": "uniform", "dims": [8, 5]},
        )
        cfg.update(overrides)
        path = tmp / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_bench_writes_csv_and_summary(self, runner, files):
        cfg = self.write_config(files["tmp"])
        out = str(files["tmp"] / "trials.csv")
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", out])
        assert res.exit_code == 0
        summary = json.loads(res.output)
        assert summary["trials"] == 3
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert rows[0][0] == "trial"

    def test_bench_jobs_override_keeps_output(self, runner, files):
        cfg = self.write_config(files["tmp"])
        out1 = files["tmp"] / "a.csv"
        out2 = files["tmp"] / "b.csv"
        r1 = runner.invoke(main, ["bench", "--config", cfg, "--out", str(out1)])
        r2 = runner.invoke(main, ["bench", "--config", cfg, "--out", str(out2), "--jobs", "2"])
        assert r1.exit_code == r2.exit_code == 0
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_bad_jobs_exits_one(self, runner, files, jobs):
        cfg = self.write_config(files["tmp"])
        out = str(files["tmp"] / "x.csv")
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", out, "--jobs", jobs])
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_bench_bad_config_exits_one(self, runner, files):
        cfg = self.write_config(files["tmp"], mystery_knob=1)
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", str(files["tmp"] / "x.csv")])
        assert res.exit_code == 1
        assert "error:" in res.output

    @pytest.mark.parametrize("command", [["bench"], ["sweep-alpha", "--alphas", "0.1"]])
    def test_negative_seed_in_config_exits_one_naming_it(self, runner, files, command):
        cfg = self.write_config(files["tmp"], seed=-5)
        out = files["tmp"] / "x.csv"
        res = runner.invoke(main, [*command, "--config", cfg, "--out", str(out)])
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert res.exit_code == 1
        assert "error: seed must be a non-negative integer, got -5" in res.output
        assert not out.exists()

    def test_bench_estimator_block_exits_one(self, runner, files):
        cfg = self.write_config(files["tmp"], estimator={"norm_sample_mult": 8.0})
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", str(files["tmp"] / "x.csv")])
        assert res.exit_code == 1
        assert "error: unknown config keys: ['estimator']" in res.output

    @pytest.mark.parametrize(
        "overrides",
        [
            {"instance": "uniform"},
            {"instance": {"kind": "uniform"}},
            {"instance": {"kind": "hard2d", "n": 20, "m": 4}},
            {"tester": "learn", "delta": 0},
            {"tester": "learn", "delta": 1.0},
        ],
    )
    def test_bench_bad_instance_or_delta_exits_one(self, runner, files, overrides):
        cfg = self.write_config(files["tmp"], **overrides)
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", str(files["tmp"] / "x.csv")])
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert res.exit_code == 1
        assert "error:" in res.output

    @pytest.mark.parametrize(
        "overrides",
        [
            {"prediction": "psychic"},
            {"prediction": {"path": "p.json"}},
            {"prediction": "natural", "instance": {"kind": "file", "path": "p.json"}},
            {"prediction": "natural", "instance": {"kind": "correlated", "size": 4}},
            {"prediction": "natural", "instance": {"kind": "product_random", "dims": [4, 3]}},
            {"profile": "exotic"},
            {"eps": 7},
            {"alpha": 1.5},
            {"alpha": "approx"},
            {"instance": {"kind": "uniform", "dims": [8, 5], "dimz": [3]}},
            {"instance": {"kind": "hard2d", "n": 64, "m": 16, "k": 6, "alpha": 0.3, "eps": 0.005,
                          "require_valid": False}},
            {"instance": {"kind": "hard2d", "n": 64, "m": 16, "k": 6, "alpha": 0.3, "eps": 0.1}},
            {"instance": {"kind": "hard2d", "n": 64.5, "m": 16, "k": 6, "alpha": 0.3, "eps": 0.005}},
        ],
    )
    def test_bench_bad_value_exits_one_before_any_trial(self, runner, files, overrides):
        cfg = self.write_config(files["tmp"], **overrides)
        out = files["tmp"] / "x.csv"
        res = runner.invoke(main, ["bench", "--config", cfg, "--out", str(out)])
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert res.exit_code == 1
        assert "error:" in res.output
        assert not out.exists()

    def test_sweep_alpha(self, runner, files):
        cfg = self.write_config(files["tmp"], trials=2)
        out = str(files["tmp"] / "sweep.csv")
        res = runner.invoke(
            main, ["sweep-alpha", "--config", cfg, "--alphas", "0.3,0.1", "--out", out]
        )
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert [r["alpha"] for r in rows] == [0.3, 0.1]
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["alpha", "mean_samples", "accept_rate", "reject_rate", "inaccurate_rate"]
        assert len(got) == 3

    def test_sweep_alpha_empty_levels_exit_one(self, runner, files):
        cfg = self.write_config(files["tmp"], trials=1)
        res = runner.invoke(
            main, ["sweep-alpha", "--config", cfg, "--alphas", ",", "--out", str(files["tmp"] / "s.csv")]
        )
        assert res.exit_code == 1


class TestCommandsGoThroughTheBenchRunner:
    """test2d, test3d, testd and learn choose and size their tester in bench._run_tester."""

    @pytest.mark.parametrize(
        "command, name, dist, extra",
        [
            ("test2d", "aug_independence_2d", "uniform", []),
            ("test2d", "aug_independence_2d", "uniform", ["--delta", "0.05"]),
            ("test3d", "aug_independence_3d", "uniform3d", []),
            ("testd", "aug_independence_d", "uniform3d", []),
        ],
    )
    def test_a_patched_bench_entry_point_decides_the_command(
        self, runner, files, monkeypatch, command, name, dist, extra
    ):
        seen = []

        def fake(sampler, pred, cfg, rng):
            seen.append((cfg.eps, cfg.alpha, cfg.profile, rng.stream))
            return Verdict(Outcome.INACCURATE, ["fake"], SampleAccount())

        monkeypatch.setattr(bench, name, fake)
        res = runner.invoke(
            main,
            [command, "--dist", files[dist], "--pred", files[dist], "--alpha", "0.05", "--eps", "0.4",
             "--seed", "4", "--profile", "theory", *extra],
        )
        assert res.exit_code == 3
        payload = json.loads(res.output)
        assert payload["stage"] == "fake"  # the last stage of the deciding run
        assert seen[0] == (0.4, 0.05, "theory", (0,) if extra else ())
        assert len(seen) == (4 if extra else 1)  # a unanimous vote of 7 stops after 4

    @pytest.mark.parametrize("extra, delta", [([], 0.1), (["--delta", "0.05"], 0.05)])
    def test_learn_reaches_the_patched_learning_tester(self, runner, files, monkeypatch, extra, delta):
        seen = []

        def fake(sampler, eps, d, rng):
            seen.append((sampler.dims, eps, d, rng.seed, rng.stream))
            return Verdict(Outcome.REJECT, ["fake"], SampleAccount())

        monkeypatch.setattr(bench, "test_independence_by_learning", fake)
        res = runner.invoke(
            main, ["learn", "--dist", files["uniform3d"], "--eps", "0.35", "--seed", "6", "--axes", "0,2", *extra]
        )
        assert res.exit_code == 2
        assert json.loads(res.output)["stage"] == "fake"
        assert seen == [((4, 2), 0.35, delta, 6, ())]

    def test_the_cli_imports_no_tester_entry_point(self):
        names = set(vars(cli))
        entry_points = {"aug_independence_2d", "aug_independence_3d", "aug_independence_d"}
        assert not names & (entry_points | {"test_independence_by_learning", "_run_at_delta", "JointSampler"})
