"""Fixed-seed bench CSVs, pinned by SHA-256.

A change that moves any draw, gate or sample count of these runs changes a
digest. Such a change must say why in CHANGES.md and record the new digests;
a refactor that keeps every verdict, sample count and stream keeps them all.

Each config also pins the CSV without its closeness sample columns
(samples_closeness and samples_total). That digest holds every verdict,
stage and the other stages' sample counts, so a change that only moves how
many closeness samples are drawn keeps it.
"""

import csv
import hashlib
import io

import pytest

from augtest.bench import ExperimentConfig, emit_report, run_trials

SEED = 7
TRIALS = 6

# name -> (config, SHA-256 of the emit_report CSV at seed 7, 6 trials,
#          SHA-256 of that CSV without CLOSENESS_COLUMNS)
GOLDEN = {
    # The three benchmark workloads.
    "closeness_2d": (
        dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
        "ae2908f1a52366f22e701405ff4ca387f1a39f5d568862ac3eeab47fb34cc6fc",
        "372ab0a62bd1a3b3b8803f06b2d43783fb06f1d5344144aac07de1b417029f4d",
    ),
    "hidden_bit_2d": (
        dict(
            tester="2d",
            eps=1 / 192,
            alpha="exact",
            alpha_margin=0.01,
            prediction="natural",
            instance={
                "kind": "hard2d",
                "n": 200,
                "m": 20,
                "k": 10,
                "alpha": 0.3,
                "eps": 1 / 192,
                "force_x": 1,
            },
        ),
        "620c87fe6a08343689af30f05842179d6cfe0d4822d198f583d8b1ab5cc5eb7c",
        "aac7cc9e4cef1cb25b7f60346f167e13adcfc885275fc14a4cad191220a3b12c",
    ),
    "arity5_d": (
        dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2, 2, 2, 2, 2]}),
        "6a53807032a3e4e1829fd2a33e11de42ef69a066d5e7babeef1a9a7b6169e4d9",
        "8f816c558321c62db66a39c4aa5902835c8ba4c30f384aad75728afa35d2fc76",
    ),
    # Ascending axes: the 2-axis tester runs on its axis-permuted view.
    "permuted_2d": (
        dict(
            tester="2d",
            eps=0.4,
            alpha=0.1,
            prediction="uniform",
            instance={"kind": "product_random", "dims": [10, 40]},
        ),
        "c8a40bfac4bb6006b0a95002d4fd4204a171eba21c05ac2b9b0eedb26759f347",
        "3e78803f82e4c1b269ea7f5b0e867ba28127aac3961a4f84dc4b323c3bbccf23",
    ),
    "product_3d": (
        dict(tester="3d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [4, 9, 6]}),
        "e98761b6661f44cfb84261b0ec9a396bc73fcd68e4b290d9f9235c3e89c71400",
        "9d75c72d7af5ff229a94e74727cc7d52c6f36f8bd5017adfa7e6ee166106820d",
    ),
    "grouped_d": (
        dict(tester="d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [3, 5, 2, 4]}),
        "2897ab50530c2417d58b2c747a3692a374850afde1e513edeeda1142231b3f0b",
        "20d0db19a3ef62bacbe5d4fc82268ee8f57bb1b8ca8bf9b95d3f0074d630058c",
    ),
    "learn": (
        dict(tester="learn", eps=0.4, instance={"kind": "correlated", "size": 4}),
        "2dcd1eb9f26ee59a5467444d251f635391e3bd1c7af3fe649f15e7c5f1a322ba",
        "1ba59f38da6cc7e6592e6dc1fb99d1deb30f7e54f49c372989f954866237ff10",
    ),
}


CLOSENESS_COLUMNS = ("samples_closeness", "samples_total")


def fixed_seed_csv(config: dict, path) -> bytes:
    cfg = ExperimentConfig.from_dict(dict(config, seed=SEED, trials=TRIALS))
    emit_report(run_trials(cfg), str(path))
    return path.read_bytes()


def without_columns(data: bytes, names) -> bytes:
    """The CSV rewritten by the csv module with the named columns dropped."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if name not in names]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_csv_is_unchanged(name, tmp_path):
    config, digest, _ = GOLDEN[name]
    assert sha256(fixed_seed_csv(config, tmp_path / f"{name}.csv")) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_verdicts_are_unchanged(name, tmp_path):
    config, _, verdict_digest = GOLDEN[name]
    data = fixed_seed_csv(config, tmp_path / f"{name}.csv")
    assert sha256(without_columns(data, CLOSENESS_COLUMNS)) == verdict_digest
