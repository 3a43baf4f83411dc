"""Fixed-seed bench CSVs, pinned by SHA-256.

A change that moves any draw, gate or sample count of these runs changes a
digest. Such a change must say why in CHANGES.md and record the new digests;
a refactor that keeps every verdict, sample count and stream keeps them all.

Each config also pins the CSV without its closeness sample columns
(samples_closeness and samples_total). That digest holds every verdict,
stage and the other stages' sample counts, so a change that only moves how
many closeness samples are drawn keeps it.

A third digest pins only the trial, seed, outcome and stage columns. A
change that resizes a stage moves its sample columns, and so both digests
above, and this one shows that every verdict and deciding stage held.
"""

import csv
import hashlib
import io

import pytest

from augtest.bench import ExperimentConfig, emit_report, run_trials

SEED = 7
TRIALS = 6

# name -> (config, SHA-256 of the emit_report CSV at seed 7, 6 trials,
#          SHA-256 of that CSV without CLOSENESS_COLUMNS,
#          SHA-256 of that CSV with only OUTCOME_COLUMNS)
GOLDEN = {
    # The three benchmark workloads.
    "closeness_2d": (
        dict(tester="2d", eps=0.4, alpha=0.1, instance={"kind": "uniform", "dims": [100, 20]}),
        "96742045cddc3feffbc2d6c65712d4acd8f8a956aa645159b0f688508cd7d95f",
        "73c1cd2cc02336f2a317e8c148857d469d55ee296cac26074029b2079967c125",
        "1af2bfbad86983e91fd9fef7d93194274a89f93a52871e66b2d765d26b6e28f9",
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
        "639bfe40d37bcd4014165428cc0a171d4381d4a88302d30be14d7b7c53354e09",
        "f6445df5f711f17c821757857b942c7d46e138c03dc6effd44cf44ec0e049300",
        "bb7342ebe65cb55d425cf63f352e11e6e0bbee606d417de1a93e4a01be3755c1",
    ),
    "arity5_d": (
        dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2, 2, 2, 2, 2]}),
        "af483cec510e341bd2c649caa00fb1fbc1417a9884ff87b093dcd0b3006bd284",
        "1a4b7dba6fd0cb3085752c5c9d122c3a32cba89f29be64d72de6851f90c9bbc6",
        "b58b44712866352880fa801e2007986b4c223e6c8bb30d2af5b814a33c08edbd",
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
        "a9bd147f671c0717d72367b0dec94e9841cec741796fbabc65c7928cfe59b59a",
        "8b8ad8d3dc7536231b0942d1d9e53f7fe572fa04f940ef509b62fd43c6b73373",
        "1af2bfbad86983e91fd9fef7d93194274a89f93a52871e66b2d765d26b6e28f9",
    ),
    "product_3d": (
        dict(tester="3d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [4, 9, 6]}),
        "5b62b8e7ed91e6ec7637c71b60ddcbeebd562fab49c954e52dd4162833840ce0",
        "bd1a37c3440428f9ef1a12e9dafc45a48796c53fef54326d815a8aaefec61e96",
        "1af2bfbad86983e91fd9fef7d93194274a89f93a52871e66b2d765d26b6e28f9",
    ),
    "grouped_d": (
        dict(tester="d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [3, 5, 2, 4]}),
        "4d88004bf434368eb38989f1c20d6e2cbb208bd7c8c81e383874467578780bfd",
        "016b22a31973f5a206d0ca0effb53994d61dbe192c366e56435bce55355be258",
        "b58b44712866352880fa801e2007986b4c223e6c8bb30d2af5b814a33c08edbd",
    ),
    "learn": (
        dict(tester="learn", eps=0.4, instance={"kind": "correlated", "size": 4}),
        "a2c35bce51e55b3037e631c782c859baf6bc34b27b825c6f599aa24a4f6ba81e",
        "ac0801e7ad4f77d39661b7614949ee22e5714906645691e214e1ee9afea0faf9",
        "c7d041174e492a6e8eaa4b8d4e023e74839127b422f9264ff4f59aa68ef30c1c",
    ),
}


CLOSENESS_COLUMNS = ("samples_closeness", "samples_total")
OUTCOME_COLUMNS = ("trial", "seed", "outcome", "stage")


def fixed_seed_csv(config: dict, path) -> bytes:
    cfg = ExperimentConfig.from_dict(dict(config, seed=SEED, trials=TRIALS))
    emit_report(run_trials(cfg), str(path))
    return path.read_bytes()


def select_columns(data: bytes, keeps) -> bytes:
    """The CSV rewritten by the csv module with the columns whose name keeps(name) holds."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if keeps(name)]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_csv_is_unchanged(name, tmp_path):
    config, digest, _, _ = GOLDEN[name]
    assert sha256(fixed_seed_csv(config, tmp_path / f"{name}.csv")) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_verdicts_are_unchanged(name, tmp_path):
    config, _, verdict_digest, _ = GOLDEN[name]
    data = fixed_seed_csv(config, tmp_path / f"{name}.csv")
    assert sha256(select_columns(data, lambda column: column not in CLOSENESS_COLUMNS)) == verdict_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_outcomes_are_unchanged(name, tmp_path):
    config, _, _, outcome_digest = GOLDEN[name]
    data = fixed_seed_csv(config, tmp_path / f"{name}.csv")
    assert sha256(select_columns(data, lambda column: column in OUTCOME_COLUMNS)) == outcome_digest
