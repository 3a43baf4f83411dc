"""Fixed-seed bench CSVs, pinned by SHA-256.

A change that moves any draw, gate or sample count of these runs changes a
digest. Such a change must say why in CHANGES.md and record the new digests;
a refactor that keeps every verdict, sample count and stream keeps them all.
"""

import hashlib

import pytest

from augtest.bench import ExperimentConfig, emit_report, run_trials

SEED = 7
TRIALS = 6

# name -> (config, SHA-256 of the emit_report CSV at seed 7, 6 trials)
GOLDEN = {
    # The three benchmark workloads.
    "closeness_2d": (
        dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
        "6fa2db406f2bd66ef87603cd68b255c8ae775e531182b952a9c1caff5dae66f8",
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
        "64f545e121fedd4300789c29ce0aa0a782d11fc7069ca22e72d908b9537438d4",
    ),
    "arity5_d": (
        dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2, 2, 2, 2, 2]}),
        "66a1ffee56de1a2219183c864bf1b7500a58669dd992096347ce8eb355c0657b",
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
        "088743848cbe1543656992dd2d8ac52cf3f775dd77c46440b1684cd31ba733a0",
    ),
    "product_3d": (
        dict(tester="3d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [4, 9, 6]}),
        "4a38343ae8552a217ccd4bb5d5a350957463ef1f742b4663d8aefb8e9cd46348",
    ),
    "grouped_d": (
        dict(tester="d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [3, 5, 2, 4]}),
        "ceabfab63fffab8438fb14ee3095e489444aa8c81a1aba6c7e6b749b70588f98",
    ),
    "learn": (
        dict(tester="learn", eps=0.4, instance={"kind": "correlated", "size": 4}),
        "2dcd1eb9f26ee59a5467444d251f635391e3bd1c7af3fe649f15e7c5f1a322ba",
    ),
}


def csv_digest(config: dict, path) -> str:
    cfg = ExperimentConfig.from_dict(dict(config, seed=SEED, trials=TRIALS))
    emit_report(run_trials(cfg), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_csv_is_unchanged(name, tmp_path):
    config, digest = GOLDEN[name]
    assert csv_digest(config, tmp_path / f"{name}.csv") == digest
