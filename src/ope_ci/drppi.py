"""Cross-fitted doubly-robust population-value intervals (the `drppi`
estimator): model-based value plus a reweighted correction on held-out
trajectories, with a plug-in variance and a normal-quantile interval."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetTooSmall
from .mdp import ConfidenceInterval, TrajectoryDataset
from .reweighting import (
    ClipPolicy,
    CorrectionKind,
    normal_quantile,
    reweighted_returns,
)


@dataclass(frozen=True)
class DrPpiConfig:
    n_model_rollouts: int = 1000
    pairs_per_trajectory: int = 8
    correction: CorrectionKind = CorrectionKind.PDIS
    clip: ClipPolicy = field(default_factory=ClipPolicy)
    cross_fit: bool = True

    def __post_init__(self) -> None:
        if self.n_model_rollouts < 2:
            raise ValueError("n_model_rollouts must be at least 2")
        if self.pairs_per_trajectory < 1:
            raise ValueError("pairs_per_trajectory must be at least 1")


@dataclass(frozen=True)
class HalfEstimate:
    value: float
    var_model: float
    var_correction: float
    n_half: int

    def __post_init__(self) -> None:
        if self.var_model < 0 or self.var_correction < 0:
            raise ValueError("variances must be nonnegative")


def half_estimate(
    model,
    correction_data: TrajectoryDataset,
    behavior,
    target,
    cfg: DrPpiConfig,
    rng: np.random.Generator,
    d0_sampler=None,
) -> HalfEstimate:
    """Model-based value plus the reweighted correction on held-out data.

    The model must have been fitted on data disjoint from
    ``correction_data``.  ``d0_sampler(rng, n) -> (n, d) array`` draws
    initial states for the model-value rollouts; when omitted, initial
    states are bootstrap-resampled from the correction data.
    """
    rng_model, rng_pairs = rng.spawn(2)
    horizon = correction_data.horizon
    discount = correction_data.discount
    n_half = len(correction_data)

    sampler = d0_sampler or correction_data.sample_initial_states
    starts = sampler(rng_model, cfg.n_model_rollouts)
    model_returns = model.rollout_batch(
        target, starts, horizon, rng_model
    ).returns(discount)

    corrected = reweighted_returns(
        correction_data, target, behavior, cfg.correction, cfg.clip
    )
    pair_starts = np.repeat(
        correction_data.initial_states(), cfg.pairs_per_trajectory, axis=0
    )
    pair_returns = model.rollout_batch(
        target, pair_starts, horizon, rng_pairs
    ).returns(discount)
    pair_means = pair_returns.reshape(n_half, cfg.pairs_per_trajectory).mean(axis=1)
    terms = corrected - pair_means

    return HalfEstimate(
        value=float(model_returns.mean() + terms.mean()),
        var_model=float(model_returns.var(ddof=1)),
        var_correction=float(terms.var(ddof=1)) if n_half > 1 else 0.0,
        n_half=n_half,
    )


def cross_fit_variance(
    var_model_1: float,
    var_correction_1: float,
    n_half_1: int,
    var_model_2: float,
    var_correction_2: float,
    n_half_2: int,
    n_model_rollouts: int,
) -> float:
    """Plug-in variance of the averaged cross-fit estimate."""
    return 0.25 * (
        var_model_1 / n_model_rollouts
        + var_correction_1 / n_half_1
        + var_model_2 / n_model_rollouts
        + var_correction_2 / n_half_2
    )


def dr_ppi_estimate(
    dataset: TrajectoryDataset,
    behavior,
    target,
    cfg: DrPpiConfig,
    model_factory,
    rng: np.random.Generator,
    d0_sampler=None,
) -> tuple[float, float]:
    """Point estimate and plug-in variance.

    Cross-fitting fits one model per half and corrects it on the other
    half; without cross-fitting a single model is fitted and corrected on
    the full dataset.
    """
    if len(dataset) < 4:
        raise DatasetTooSmall("the estimator needs at least 4 trajectories")
    if cfg.cross_fit:
        first, second = dataset.split_half()
        rng_a, rng_b = rng.spawn(2)
        model_1 = model_factory().fit(first)
        half_1 = half_estimate(model_1, second, behavior, target, cfg, rng_a, d0_sampler)
        model_2 = model_factory().fit(second)
        half_2 = half_estimate(model_2, first, behavior, target, cfg, rng_b, d0_sampler)
        value = (half_1.value + half_2.value) / 2.0
        variance = cross_fit_variance(
            half_1.var_model, half_1.var_correction, half_1.n_half,
            half_2.var_model, half_2.var_correction, half_2.n_half,
            cfg.n_model_rollouts,
        )
        return value, variance
    model = model_factory().fit(dataset)
    half = half_estimate(model, dataset, behavior, target, cfg, rng, d0_sampler)
    variance = (
        half.var_model / cfg.n_model_rollouts + half.var_correction / half.n_half
    )
    return half.value, variance


def interval_from_estimate(value: float, variance: float, alpha: float) -> ConfidenceInterval:
    """value +/- z_{1-alpha/2} * sqrt(variance)."""
    half_width = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(variance)
    return ConfidenceInterval(
        value - half_width, value + half_width, 1.0 - alpha, point=value
    )
