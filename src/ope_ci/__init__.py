"""Confidence intervals for off-policy evaluation with model-generated
trajectories: per-initial-state conformal bands, a cross-fitted doubly-robust
population estimator, comparison baselines, simulators, and a coverage-study
harness."""

from .baselines import (
    FittedQSpec,
    aug_is_baseline,
    dm_baseline,
    dr_baseline,
    fit_q,
    is_baseline,
    stepwise_dr_values,
)
from .cpgen import (
    CpGenResult,
    EpsConfig,
    GridSpec,
    ScorePair,
    ScorePairs,
    WeightedScoreDistribution,
    conformal_band,
    cp_gen_detailed,
    weighted_distribution,
)
from .drppi import (
    DrPpiConfig,
    HalfEstimate,
    cross_fit_variance,
    dr_ppi_estimates,
    half_estimate,
    interval_from_estimate,
)
from .envs import (
    FiniteMdp,
    InventoryEnv,
    InventoryParams,
    Simulator,
    inventory_policy_pair,
    inventory_step,
    monte_carlo_value,
    oracle_value,
    small_finite_mdp,
)
from .errors import (
    DatasetTooSmall,
    DegenerateWeights,
    EmptyBand,
    InsufficientSamples,
    NoTrainingPairs,
    OpeCiError,
    SingularDesign,
    UnboundedBand,
    ZeroBehaviorProbability,
)
from .harness import (
    CoverageReport,
    EnvSpec,
    MethodResult,
    StudyConfig,
    TrialDetails,
    config_digest,
    derive_seed,
    emit_results,
    ground_truth_value,
    make_env_spec,
    run_coverage_study,
)
from .mdp import (
    ConfidenceInterval,
    RolloutBatch,
    TrajectoryDataset,
    read_jsonl_dataset,
    write_jsonl_dataset,
)
from .models import (
    GaussianRegressionModel,
    OracleModel,
    RewardOffsetModel,
)
from .policies import SoftmaxOrderUpToPolicy, TabularPolicy
from .reweighting import (
    ClipPolicy,
    CorrectionKind,
    bootstrap_interval,
    clip_ratio,
    clt_interval,
    is_returns,
    normal_quantile,
    pdis_returns,
    wis_returns,
)

__version__ = "0.1.0"
