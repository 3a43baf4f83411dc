"""Benchmark command: one workload, one seed, a fixed measuring time.

Run from the repository root, which holds augtest's sources under src/:

    python3 perfbench/run.py --workload closeness_2d --seed 1 --seconds 30 --trace 0

Workloads: closeness_2d, hidden_bit_2d, arity5_d (see workloads.py). The
command prints a table of every metric with its unit, then as its last line
one JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the traced per-layer metrics with
--trace 1. It exits 1 when a correctness gate fails and 2 when the augtest
sources are missing.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _print_table(result, harness, tracing) -> None:
    print(
        f"workload {result.workload}  seed {result.seed}  trials {result.trials}"
        f"  nproc {result.jobs}"
    )
    print(f"  speed factor {result.speed_factor:.4f}: times are raw times divided by it")
    for name, value in result.metrics.items():
        print(f"  {name:<26} {value:>16.6g} {harness.UNITS[name]}")
    group = min(harness.TAIL_GROUP, result.trials)
    print(
        f"  trial_ms_tail is p{result.tail_percentile:.4g}: median over groups of {group}"
        f" trials, {harness.TAIL_BEYOND} of each beyond it"
    )
    lo, hi = result.error_wilson95
    print(f"  error_rate {result.failed}/{result.trials}, Wilson 95% [{lo:.4f}, {hi:.4f}]")
    for gate, ok in result.gates.items():
        print(f"  gate {gate:<24} {'pass' if ok else 'FAIL'}")
    for err in result.errors[:3]:
        print(err, file=sys.stderr)
    for note in result.notes:
        print(f"  note: {note}")
    if result.layer_self_ms is not None:
        total = sum(result.layer_self_ms.values())
        print("  layer            self ms/trial   share")
        for layer, ms in result.layer_self_ms.items():
            print(f"  {layer:<16} {ms:>13.4f} {ms / total:>7.1%}")
        for name, value in result.per_layer.items():
            print(f"  {name:<36} {value:>14.6g} {tracing.unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "augtest", "__init__.py")):
        print(f"perfbench: augtest sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import augtest
    import harness
    import tracing

    if os.path.dirname(os.path.abspath(augtest.__file__)) != os.path.join(SRC, "augtest"):
        print(f"perfbench: augtest imported from {augtest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    import_s = time.perf_counter() - _START

    result = harness.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), import_s=import_s
    )
    _print_table(result, harness, tracing)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in (result.per_layer or {}).items()}
    else:
        metrics = {k: {"value": result.metrics[k], "unit": harness.UNITS[k]} for k in harness.REPORTED}
    line = {
        "correct": result.correct,
        "attempted": result.trials,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
