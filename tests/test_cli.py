"""End-to-end tests of the command-line interface via click's test runner."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from augtest.cli import main
from augtest.domain import JointDistribution, save_distribution


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
    save_distribution(JointDistribution(JointDistribution.uniform((100, 4)).domain, pm), paths["point"])
    wrong = np.zeros(400)
    wrong[-1] = 1.0
    paths["wrong_point"] = str(tmp_path / "wrong_point.json")
    save_distribution(JointDistribution(JointDistribution.uniform((100, 4)).domain, wrong), paths["wrong_point"])

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


class TestLearnCommand:
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
        out1 = str(files["tmp"] / "a.csv")
        out2 = str(files["tmp"] / "b.csv")
        r1 = runner.invoke(main, ["bench", "--config", cfg, "--out", out1])
        r2 = runner.invoke(main, ["bench", "--config", cfg, "--out", out2, "--jobs", "2"])
        assert r1.exit_code == r2.exit_code == 0
        assert open(out1).read() == open(out2).read()

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
