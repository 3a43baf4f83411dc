"""Span tracing of augtest's module boundaries, installed from outside the package.

A Tracer replaces module attributes that augtest looks up at call time (and
Rng.__init__) with timed wrappers, and restores them on exit. Each call
records a span (id, parent id, trial id, name, start, end) in memory; the
layer of a span is the prefix of its name. Counts are taken at the same
boundaries from the call's arguments and results. The wrappers only time and
count: they pass every argument through unchanged, so no RNG stream moves.

Nothing is patched by importing this module.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from augtest import bench, domain, estimators, flattening, hard_instances, testers
from augtest.estimators import closeness_params, repetitions
from augtest.testers import TesterHooks

LAYERS = ("domain", "flattening", "estimators", "testers", "hard_instances", "bench")
STAGES = ("poisson_cap", "norm_gate", "joint_norm", "closeness", "learning")
# SampleAccount stage -> TrialRecord column
SAMPLE_FIELDS = {
    "flattening": "samples_flatten",
    "norm": "samples_norm",
    "closeness": "samples_closeness",
    "learning": "samples_learning",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if metric.startswith("testers.decided.") or metric.endswith("_share"):
        return "share"
    if metric.startswith("testers.samples.") or metric.endswith((".samples", ".lambda")):
        return "samples"
    if metric.endswith("_cells"):
        return "cells"
    if metric == "domain.draw_rows":
        return "rows"
    if metric in ("bench.jobs_speedup", "hard_instances.draws_per_valid"):
        return "ratio"
    return "count"


@contextmanager
def patched(targets):
    """Sets each (owner, attribute, value) for the duration, then restores the originals."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def hook_targets(hooks: TesterHooks) -> list[tuple]:
    """Patches that make the tester entry points bench calls run with the given hooks."""
    return [
        (bench, name, functools.partial(getattr(bench, name), hooks=hooks))
        for name in ("aug_independence_2d", "aug_independence_3d", "aug_independence_d")
    ]


class Tracer:
    """Records spans and counts while installed with `with tracer.installed():`."""

    def __init__(self, base_hooks: TesterHooks | None = None):
        self.base_hooks = base_hooks or TesterHooks()
        self.spans: list[tuple] = []  # (id, parent, trial, name, start, end)
        self.totals: Counter = Counter()
        self.trial = -1
        self._stack: list[int] = []
        self._threshold: float | None = None  # set while a closeness call runs
        self._pending: np.ndarray | None = None  # X of the repetition under way
        self.votes_measured = False

    # -- span recording ------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Times fn as span `name`; after(args, kwargs, result) adds counts."""

        def traced(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.trial, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _bound(self, fn, args, kwargs) -> dict:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    # -- boundary counts -----------------------------------------------------

    def _trial(self, fn):
        span = self.wrap("bench.trial", fn)

        def trial(*args, **kwargs):
            self.trial += 1  # the trial's position in the run, across chunks
            return span(*args, **kwargs)

        return trial

    def _norm(self, fn):
        def norm(*args, **kwargs):
            a = self._bound(fn, args, kwargs)
            before = getattr(a["account"], a["stage"]) if a["account"] is not None else 0
            result = fn(*args, **kwargs)
            t = self.totals
            t["norm.calls"] += 1
            t["norm.reps"] += repetitions(a["delta"], a["cfg"])
            if a["account"] is not None:
                t["norm.samples"] += getattr(a["account"], a["stage"]) - before
            return result

        return self.wrap("estimators.norm", norm)

    def _closeness(self, fn):
        def closeness(*args, **kwargs):
            a = self._bound(fn, args, kwargs)
            before = a["account"].closeness if a["account"] is not None else 0
            lam, self._threshold = closeness_params(a["M"], a["b"], a["eps"], a["cfg"])
            try:
                accepted = fn(*args, **kwargs)
            finally:
                self._threshold = self._pending = None
            reps = repetitions(a["delta"], a["cfg"])
            t = self.totals
            t["closeness.calls"] += 1
            t["closeness.reps"] += reps
            t["closeness.lambda"] += lam
            t["closeness.b_clamped"] += a["b"] > 1.0
            t["flat_cells"] += a["M"]
            t["poisson_cells"] += 2 * reps * a["M"]
            if a["account"] is not None:
                t["closeness.samples"] += a["account"].closeness - before
            return accepted

        return self.wrap("estimators.closeness", closeness)

    def _count_votes(self, fn):
        """Wraps the count kernel closeness_test draws X, Y, X, Y, ... from.

        closeness_test does not return its reject votes; each (X, Y) pair is
        one repetition, and it votes reject when
        Z = sum (X_i - Y_i)^2 - X_i - Y_i exceeds the call's threshold.
        """

        def counts(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._threshold is not None:
                if self._pending is None:
                    self._pending = result
                else:
                    x, self._pending = self._pending, None
                    d = x.astype(np.float64) - result
                    z = float(np.dot(d, d) - x.sum() - result.sum())
                    self.totals["closeness.reject_votes"] += z > self._threshold
            return result

        return counts

    def _learn(self, fn):
        def after(args, kwargs, result):
            a = self._bound(fn, args, kwargs)
            self.totals["learn.calls"] += 1
            self.totals["learn.samples"] += a["t"] * getattr(a["sampler"], "cost", 1)

        return self.wrap("estimators.learn", fn, after)

    def _view(self, fn):
        def after(args, kwargs, view):
            self.totals["dense_law_cells"] += 0 if view.probs is None else view.probs.size

        return self.wrap("flattening.view", fn, after)

    def _draw(self, fn):
        def after(args, kwargs, rows):
            self.totals["draw_rows"] += len(rows)

        return self.wrap("domain.draw", fn, after)

    def _tester(self, name, fn, hooks):
        return self.wrap(name, functools.partial(fn, hooks=hooks) if hooks else fn)

    # -- installation --------------------------------------------------------

    def targets(self) -> list[tuple]:
        base = self.base_hooks
        hooks = TesterHooks(
            poisson=self.wrap("domain.poisson", base.poisson),
            norm=self._norm(base.norm),
            closeness=self._closeness(base.closeness),
        )
        marginal = self.wrap("domain.marginal", domain.marginal)
        out = [
            (bench, "run_single_trial", self._trial(bench.run_single_trial)),
            (bench, "emit_report", self.wrap("bench.csv", bench.emit_report)),
            (bench, "tv_distance", self.wrap("domain.tv", bench.tv_distance)),
            (bench, "gen_valid_hard_2d", self.wrap("hard_instances.gen_valid", bench.gen_valid_hard_2d)),
            (hard_instances, "gen_hard_2d", self.wrap("hard_instances.gen", hard_instances.gen_hard_2d)),
            (domain, "draw_samples", self._draw(domain.draw_samples)),
            (domain.Rng, "__init__", self.wrap("domain.rng", domain.Rng.__init__)),
            (domain, "marginal", marginal),
            (flattening, "marginal", marginal),
            (testers, "marginal", marginal),
            (testers, "merge_axes", self.wrap("domain.merge_axes", testers.merge_axes)),
            (testers, "merge_index", self.wrap("domain.merge_index", testers.merge_index)),
            (testers, "build_axis_flattening", self.wrap("flattening.build", testers.build_axis_flattening)),
            (testers, "learn_empirical", self._learn(testers.learn_empirical)),
            (testers, "empirical_tv_to_product", self.wrap("estimators.empirical_tv", testers.empirical_tv_to_product)),
            (testers, "test_independence_by_learning", self.wrap("testers.learning", testers.test_independence_by_learning)),
        ]
        out += [
            (testers, view, self._view(getattr(testers, view)))
            for view in ("flattened_axis_view", "flattened_joint_view", "flattened_product_view")
        ]
        # The one private seam: without it reject_votes reads 0 and
        # votes_measured is False.
        self.votes_measured = hasattr(estimators, "_poissonized_counts")
        if self.votes_measured:
            counts = self._count_votes(estimators._poissonized_counts)
            out.append((estimators, "_poissonized_counts", counts))
        # The 2/3-axis entry points are reached from bench directly and from
        # the general-arity tester, which forwards its hooks argument.
        for name, span in (("aug_independence_2d", "testers.aug_2d"), ("aug_independence_3d", "testers.aug_3d")):
            out.append((bench, name, self._tester(span, getattr(bench, name), hooks)))
            out.append((testers, name, self._tester(span, getattr(testers, name), None)))
        out.append((bench, "aug_independence_d", self._tester("testers.aug_d", bench.aug_independence_d, hooks)))
        return out

    def installed(self):
        return patched(self.targets())

    # -- results -------------------------------------------------------------

    def trial_ms(self) -> list[float]:
        return [(end - start) * 1e3 for _, _, _, name, start, end in self.spans if name == "bench.trial"]

    def layer_self_ms(self) -> dict[str, float]:
        """Total self time per layer over every trial span, in ms (CSV writing excluded)."""
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _, _, name, start, end in self.spans:
            if name != "bench.csv":
                out[name.split(".")[0]] += (end - start - children[sid]) * 1e3
        return out

    def span_ms(self) -> Counter:
        out: Counter = Counter()
        for _, _, _, name, start, end in self.spans:
            out[name] += (end - start) * 1e3
        return out

    def per_layer_metrics(
        self, records, jobs_speedup: float, overhead_ms: float, time_scale: float = 1.0
    ) -> dict[str, float]:
        """Per-trial layer metrics of a traced run over `records`.

        Span times are multiplied by time_scale, the run's normalized over raw time.
        """
        n = len(records)
        t = self.totals
        calls = Counter(name for *_, name, _, _ in self.spans)
        ms = Counter({k: v * time_scale for k, v in self.span_ms().items()})
        self_ms = {k: v * time_scale for k, v in self.layer_self_ms().items()}
        valid = calls["hard_instances.gen_valid"]
        m = {
            "domain.rng_streams": calls["domain.rng"] / n,
            "domain.rng_ms": ms["domain.rng"] / n,
            "domain.marginal_calls": calls["domain.marginal"] / n,
            "domain.marginal_ms": ms["domain.marginal"] / n,
            "domain.draw_rows": t["draw_rows"] / n,
            "domain.draw_ms": ms["domain.draw"] / n,
            "flattening.flat_cells": t["flat_cells"] / n,
            "flattening.dense_law_cells": t["dense_law_cells"] / n,
            "flattening.view_ms": ms["flattening.view"] / n,
            "flattening.build_ms": ms["flattening.build"] / n,
            "estimators.norm.calls": t["norm.calls"] / n,
            "estimators.norm.reps": t["norm.reps"] / n,
            "estimators.norm.samples": t["norm.samples"] / n,
            "estimators.norm.ms": ms["estimators.norm"] / n,
            "estimators.closeness.calls": t["closeness.calls"] / n,
            "estimators.closeness.reps": t["closeness.reps"] / n,
            "estimators.closeness.lambda": t["closeness.lambda"] / max(1, t["closeness.calls"]),
            "estimators.closeness.samples": t["closeness.samples"] / n,
            "estimators.closeness.ms": ms["estimators.closeness"] / n,
            "estimators.closeness.reject_votes": t["closeness.reject_votes"] / n,
            "estimators.closeness.b_clamped_share": t["closeness.b_clamped"] / max(1, t["closeness.calls"]),
            "estimators.poisson_cells": t["poisson_cells"] / n,
            "estimators.learn.calls": t["learn.calls"] / n,
            "estimators.learn.samples": t["learn.samples"] / n,
            "estimators.learn.ms": ms["estimators.learn"] / n,
        }
        for stage, column in SAMPLE_FIELDS.items():
            m[f"testers.samples.{stage}"] = sum(getattr(r, column) for r in records) / n
        for stage in STAGES:
            m[f"testers.decided.{stage}"] = sum(r.stage == stage for r in records) / n
        m.update(
            {
                "hard_instances.gen_ms": ms["hard_instances.gen_valid"] / n,
                "hard_instances.draws_per_valid": calls["hard_instances.gen"] / valid if valid else 0.0,
                "bench.trial_ms": ms["bench.trial"] / n,
                "bench.harness_ms": self_ms["bench"] / n,
                "bench.csv_ms": ms["bench.csv"] / n,
                "bench.jobs_speedup": jobs_speedup,
                "bench.trace_overhead_ms": overhead_ms,
            }
        )
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = self_ms[layer] / n
        return m

    def write_spans(self, path: str) -> None:
        """Writes every span as a tab-separated line: id, parent, trial, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\ttrial\tname\tstart_s\tend_s\n")
            for sid, parent, trial, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{trial}\t{name}\t{start:.9f}\t{end:.9f}\n")
