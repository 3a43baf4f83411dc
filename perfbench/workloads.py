"""The benchmark's three workloads: a trial config, the known truth, and why each is here.

Every workload runs Monte-Carlo trials of one tester configuration through
`augtest.bench`, in chunks of `chunk` trials: chunk k is the config with
seed `seed * CHUNK_SEEDS + k`, whose trial i draws its instance and its
samples from Rng(that seed, (i,)). Chunks let the parallel phase be timed
piecewise, between calibrations, while running exactly the same trials.
"""

from __future__ import annotations

from dataclasses import dataclass

from augtest.bench import ExperimentConfig
from augtest.domain import JointDistribution, JointSampler, Rng
from augtest.hard_instances import gen_valid_hard_2d
from augtest.testers import Outcome, Verdict, test_independence_by_learning

CHUNK_SEEDS = 1 << 20
# Stream of the learning reference; trials use the streams (0,), (1,), ...
LEARNING_STREAM = 2**31 - 1
# The confidence the base testers are stated at.
LEARNING_DELTA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ExperimentConfig fields other than seed, trials and jobs
    truth: Outcome  # the only verdict the three-outcome contract allows
    chunk: int  # trials per chunk, about 2 s at jobs=1 on the reference box
    why: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="closeness_2d",
            config=dict(
                tester="2d",
                eps=0.4,
                alpha=0.1,
                instance={"kind": "uniform", "dims": [100, 20]},
            ),
            truth=Outcome.ACCEPT,
            chunk=20,
            why=(
                "kernel-bound: uniform (100,20) with an exact prediction spends most of each "
                "trial drawing Poisson counts for closeness; its accepts guard completeness"
            ),
        ),
        Workload(
            name="hidden_bit_2d",
            config=dict(
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
            truth=Outcome.REJECT,
            chunk=14,
            why=(
                "far side: a fresh hidden-bit x=1 instance per trial at tiny eps must be "
                "rejected, so a cheaper closeness that loses power shows as failed trials"
            ),
        ),
        Workload(
            name="arity5_d",
            config=dict(
                tester="d",
                eps=0.1,
                alpha=0.05,
                instance={"kind": "uniform", "dims": [2, 2, 2, 2, 2]},
            ),
            truth=Outcome.ACCEPT,
            chunk=100,
            why=(
                "overhead-bound: the (2,)*5 cube runs a grouped 3-axis pipeline plus learning "
                "per block, building hundreds of Rng streams per trial; kernels matter little"
            ),
        ),
    ]
}


def make_config(workload: Workload, seed: int, chunk: int = 0) -> ExperimentConfig:
    """The config of one chunk of the workload at the given benchmark seed."""
    return ExperimentConfig.from_dict(
        dict(workload.config, seed=seed * CHUNK_SEEDS + chunk, trials=workload.chunk)
    )


def reference_distribution(workload: Workload, seed: int) -> JointDistribution:
    """The distribution trial 0 of a config with this seed tests, built from the public API."""
    inst = workload.config["instance"]
    if inst["kind"] == "uniform":
        return JointDistribution.uniform(inst["dims"])
    hard, _, _ = gen_valid_hard_2d(
        inst["n"],
        inst["m"],
        inst["k"],
        inst["alpha"],
        inst["eps"],
        Rng(seed, (0,)).split(0),
        force_x=inst["force_x"],
    )
    return hard.p


def learning_reference(workload: Workload, seed: int) -> Verdict:
    """The prediction-free learning tester on trial 0's instance at the workload's eps.

    `seed` is a config seed, as in make_config(...).seed.

    Its detail["t"] is the sample count the augmented tester is compared to.
    """
    dist = reference_distribution(workload, seed)
    return test_independence_by_learning(
        JointSampler(dist), workload.config["eps"], LEARNING_DELTA, Rng(seed, (LEARNING_STREAM,))
    )
