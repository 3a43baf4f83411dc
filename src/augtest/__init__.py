"""Prediction-assisted independence testing of discrete distributions."""

from .domain import (
    DomainError,
    JointDistribution,
    JointSampler,
    Rng,
    SampleAccount,
    distribution_from_json,
    distribution_to_json,
    draw_samples,
    l2_norm_sq,
    load_distribution,
    marginal,
    merge_axes,
    merge_index,
    poisson,
    save_distribution,
    split_axis,
    tv_distance,
    tv_to_own_product,
)
from .flattening import (
    AxisFlattening,
    ProductFlattening,
    build_axis_flattening,
    flatten_distribution_explicit,
    flattened_axis_view,
    flattened_joint_view,
)
from .estimators import (
    EstimatorConfig,
    closeness_params,
    closeness_test,
    estimate_l2_squared,
    learn_empirical,
    repetitions,
)
from .testers import (
    Outcome,
    TesterConfig,
    TesterHooks,
    Verdict,
    amplify,
    aug_independence_2d,
    aug_independence_3d,
    aug_independence_d,
    partition_coordinates,
    test_independence_by_learning,
)
from .hard_instances import (
    HardInstance,
    ValidityReport,
    embed_hard_to_d,
    gen_hard_2d,
    gen_valid_hard_2d,
    poissonized_counts,
    validity_check,
)
from .bench import (
    ExperimentConfig,
    TrialRecord,
    emit_report,
    emit_sweep,
    run_trials,
    summarize,
    sweep_alpha,
    wilson_interval,
)

__version__ = "0.1.0"
