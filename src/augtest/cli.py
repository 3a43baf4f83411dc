"""Command-line interface.

Verdict-producing commands exit 0 on accept, 2 on reject, 3 on
inaccurate-information; any usage or input error exits 1.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .bench import ExperimentConfig, _run_tester, emit_report, emit_sweep, run_trials, sweep_alpha
from .domain import Rng, distribution_to_json, load_distribution, marginal
from .hard_instances import gen_hard_2d, poissonized_counts, validity_check
from .testers import BASE_DELTA, Outcome, TesterConfig, Verdict

_EXIT_CODES = {Outcome.ACCEPT: 0, Outcome.REJECT: 2, Outcome.INACCURATE: 3}


def _fail(msg: str) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _finish(verdict: Verdict, seed: int) -> None:
    click.echo(json.dumps(verdict.to_json(seed=seed)))
    sys.exit(_EXIT_CODES[verdict.outcome])


def _test(tester, dist_path, pred_path, alpha, eps, delta, seed, profile) -> None:
    dist = load_distribution(dist_path)
    pred = load_distribution(pred_path)
    cfg = TesterConfig(eps=eps, alpha=alpha, profile=profile)
    _finish(_run_tester(tester, dist, pred, cfg, delta, Rng(seed)), seed)


def _tester_options(fn):
    for opt in reversed(
        [
            click.option("--dist", "dist_path", required=True, type=click.Path(exists=True)),
            click.option("--pred", "pred_path", required=True, type=click.Path(exists=True)),
            click.option("--alpha", required=True, type=float, help="claimed tv accuracy of --pred"),
            click.option("--eps", required=True, type=float, help="farness proximity"),
            click.option("--delta", type=float, default=None, help="target failure prob; < 0.1 amplifies"),
            click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True),
            click.option(
                "--profile",
                type=click.Choice(["theory", "practical"]),
                default="practical",
                show_default=True,
            ),
        ]
    ):
        fn = opt(fn)
    return fn


class _Group(click.Group):
    """A click group whose usage and input errors exit 1: click's own code 2 is the reject verdict's."""

    def make_context(self, *args, **kwargs):
        return _errors_exit_one(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _errors_exit_one(super().invoke, ctx)


def _errors_exit_one(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    # Bad input to any command; DomainError and json.JSONDecodeError are ValueErrors.
    except (OSError, TypeError, ValueError) as exc:
        _fail(str(exc))


@click.group(cls=_Group)
def main() -> None:
    """Prediction-assisted independence testing of discrete distributions."""


@main.command("test2d")
@_tester_options
def test2d(dist_path, pred_path, alpha, eps, delta, seed, profile):
    """Test a two-axis distribution for independence."""
    _test("2d", dist_path, pred_path, alpha, eps, delta, seed, profile)


@main.command("test3d")
@_tester_options
def test3d(dist_path, pred_path, alpha, eps, delta, seed, profile):
    """Test a three-axis distribution for independence."""
    _test("3d", dist_path, pred_path, alpha, eps, delta, seed, profile)


@main.command("testd")
@_tester_options
def testd(dist_path, pred_path, alpha, eps, delta, seed, profile):
    """Test a distribution of any arity for full independence."""
    _test("d", dist_path, pred_path, alpha, eps, delta, seed, profile)


@main.command("learn")
@click.option("--dist", "dist_path", required=True, type=click.Path(exists=True))
@click.option("--eps", required=True, type=float)
@click.option("--delta", type=float, default=BASE_DELTA, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--axes", default=None, help="comma-separated axis subset, e.g. 0,2")
def learn(dist_path, eps, delta, seed, axes):
    """Learning-based independence test (no prediction needed)."""
    dist = load_distribution(dist_path)
    if axes is not None:
        subset = [int(a) for a in axes.split(",") if a != ""]
        dist = marginal(dist, subset)
    _finish(_run_tester("learn", dist, None, TesterConfig(eps=eps, alpha=0.0), delta, Rng(seed)), seed)


@main.command("gen-hard")
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--alpha", required=True, type=float)
@click.option("--eps", required=True, type=float)
@click.option("--force-x", type=click.IntRange(0, 1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--eps-meas", type=float, default=None, help="expert override for the sign magnitude")
@click.option("--alpha-meas", type=float, default=None, help="expert override for the heavy-row rate")
def gen_hard(n, m, k, alpha, eps, force_x, seed, out, eps_meas, alpha_meas):
    """Generate one hidden-bit hard instance with its validity report."""
    rng = Rng(seed)
    inst = gen_hard_2d(
        n, m, k, alpha, eps, rng.split(0),
        force_x=force_x, eps_meas=eps_meas, alpha_meas=alpha_meas,
    )
    counts = poissonized_counts(inst, rng.split(1))
    report = validity_check(inst, counts)
    payload = {
        "instance": distribution_to_json(inst.p),
        "meta": inst.meta(seed=seed),
        "validity": report.as_dict(),
    }
    with open(out, "w") as fh:
        json.dump(payload, fh)
    click.echo(json.dumps({"valid": report.valid, "x": inst.x, "out": out}))


@main.command("bench")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option(
    "--jobs",
    type=int,
    default=None,
    help="overrides the config's jobs: this process runs one share of the trials and forked"
    " workers run the others, jobs - 1 of them, capped by the trial count and the usable cores;"
    " the workers are forked once, serve every later run and exit with this process",
)
def bench(config_path, out_path, jobs):
    """Run a trial batch from a JSON config; write the per-trial CSV."""
    cfg = ExperimentConfig.from_file(config_path)
    if jobs is not None:
        cfg = replace(cfg, jobs=jobs)  # re-runs the config's validation
    summary = emit_report(run_trials(cfg), out_path)
    click.echo(json.dumps(summary))


@main.command("sweep-alpha")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--alphas", required=True, help="comma-separated claimed-accuracy levels")
@click.option("--out", "out_path", required=True, type=click.Path())
def sweep_alpha_cmd(config_path, alphas, out_path):
    """Rerun one config across claimed-accuracy levels; write the sweep CSV."""
    cfg = ExperimentConfig.from_file(config_path)
    levels = [float(a) for a in alphas.split(",") if a != ""]
    if not levels:
        _fail("no alpha levels given")
    rows = sweep_alpha(cfg, levels)
    emit_sweep(rows, out_path)
    click.echo(json.dumps(rows))


if __name__ == "__main__":
    main()
