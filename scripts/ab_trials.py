#!/usr/bin/env python3
"""Times one benchmark workload on two source trees in one process, chunk by chunk.

    python3 scripts/ab_trials.py SRC_A SRC_B WORKLOAD [--chunks N] [--seed S]

SRC_A and SRC_B are checkouts (directories holding src/augtest). A is
imported as `augtest`, B as its own package `augtest_b`, so both run in the
same process on the same box at the same moment: on a shared box separate
runs of one program moved 10-25 % between runs, which hides a change of
that size. The chunks are perfbench/workloads.py's, built by its
`make_config` from this checkout's perfbench (read only), and run in ABBA
order (A then B on even chunks, B then A on odd ones), one
`bench.run_single_trial` at a time, each timed by its thread's CPU time as
perfbench/harness.py's serial phase times it.

Prints each side's quartiles of CPU ms per trial, the ratio of the medians
B / A, and in how many chunks B's median trial beat A's (ties count for
neither side). A gain of a few per cent is read against that count, not one
median ratio alone: six runs of one pair of trees read B / A from 0.974 to
1.022. Exits 1 if any trial's `TrialRecord.row()` differs between the sides.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def package_dir(checkout: str) -> str:
    path = os.path.join(os.path.abspath(checkout), "src", "augtest")
    if not os.path.isfile(os.path.join(path, "__init__.py")):
        raise SystemExit(f"error: no src/augtest in {checkout}")
    return path


def load_as(name: str, path: str):
    """The package at path, imported under name with its submodules."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_chunk(bench, cfg) -> tuple[list[float], list[list]]:
    """CPU ms and CSV row of each trial of the chunk."""
    ms, rows = [], []
    for i in range(cfg.trials):
        cpu0 = time.thread_time()
        record = bench.run_single_trial(cfg, i)
        ms.append((time.thread_time() - cpu0) * 1e3)
        rows.append(record.row())
    return ms, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("workload")
    parser.add_argument("--chunks", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.chunks < 1:
        parser.error("--chunks must be at least 1")

    dir_a, dir_b = package_dir(args.src_a), package_dir(args.src_b)
    sys.path.insert(0, os.path.dirname(dir_a))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import augtest.bench
    from workloads import WORKLOADS, make_config

    if os.path.dirname(augtest.__file__) != dir_a:
        raise SystemExit(f"error: augtest was already imported from {os.path.dirname(augtest.__file__)}")
    load_as("augtest_b", dir_b)
    sides = {"A": augtest.bench, "B": importlib.import_module("augtest_b.bench")}
    workload = WORKLOADS[args.workload]
    configs = []
    for k in range(args.chunks):
        cfg = make_config(workload, args.seed, k)
        configs.append({"A": cfg, "B": sides["B"].ExperimentConfig.from_dict(asdict(cfg))})
    for side, bench in sides.items():  # warm-up: lazy imports and first allocations
        bench.run_single_trial(configs[0][side], 0)

    ms = {"A": [], "B": []}
    differing = b_wins = 0
    for k, cfgs in enumerate(configs):
        rows, chunk_median = {}, {}
        for side in ("AB" if k % 2 == 0 else "BA"):
            chunk_ms, rows[side] = timed_chunk(sides[side], cfgs[side])
            ms[side] += chunk_ms
            chunk_median[side] = statistics.median(chunk_ms)
        differing += sum(a != b for a, b in zip(rows["A"], rows["B"]))
        b_wins += chunk_median["B"] < chunk_median["A"]

    quartiles = {side: statistics.quantiles(v, n=4) for side, v in ms.items()}
    print(f"workload {args.workload}  seed {args.seed}  chunks {args.chunks}  trials {len(ms['A'])} per side")
    for side, checkout in (("A", dir_a), ("B", dir_b)):
        q1, med, q3 = quartiles[side]
        print(
            f"{side} {med:.4f} ms/trial  quartiles {q1:.4f} {q3:.4f}"
            f"  ({os.path.dirname(os.path.dirname(checkout))})"
        )
    print(f"B / A {quartiles['B'][1] / quartiles['A'][1]:.4f}")
    print(f"B faster in {b_wins} of {args.chunks} chunks")
    if differing:
        print(f"error: {differing} trial rows differ between A and B", file=sys.stderr)
        return 1
    print("rows identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
