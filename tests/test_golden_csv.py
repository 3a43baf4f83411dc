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
        "6deab0d4005a5623414f6d8d8dd98c150a7eb7636df23b8060ce009b8fa656b5",
        "6e012c4cdb62a83d8bf1f34b84033e40f064a89a08e592cf50c624eb706c6c96",
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
        "2c1830c9095f16f9c5eb609f9bfdd7b3655b11723e31550114e1c54ab233d99d",
        "81bca006f7d27150be5f99be486b38dde1a96d06f4ebf999b01a62fd8b5a25d3",
    ),
    "arity5_d": (
        dict(tester="d", eps=0.1, alpha=0.05, instance={"kind": "uniform", "dims": [2, 2, 2, 2, 2]}),
        "a0336429a32abc06a01cec592b80ece5d1462343aca82debf67594253eab98df",
        "b816ab1b7c7dcc16b52ebfdc5519e9444dc21aaab05ffec9b5259dd0d1d7cd28",
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
        "d231fc6cf4069a13e969d88cea775d54e7bd67f5048fc319f815f29928b69c18",
        "eb93ae4062ea8604b9c5ceefd99cebf6089b46170f2832dcbf4b1ca13a751943",
    ),
    "product_3d": (
        dict(tester="3d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [4, 9, 6]}),
        "4221c2d03276d924333eba7f23e0fdd519dbd3549dab320c9d60a423b2330a19",
        "d11a1befa55ce3d1c344dc6d7d8f489881e6e72ca76b87d8e6cda35eb8f28a1f",
    ),
    "grouped_d": (
        dict(tester="d", eps=0.4, alpha=0.1, instance={"kind": "product_random", "dims": [3, 5, 2, 4]}),
        "af7a70e0f8e95eb7073f5c9735eed540cb188ac66606b429b18f8213af4df62c",
        "7069754d19abca1d44585d7894a6483dbf4875311aefcf2785159ad47fce50cb",
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
