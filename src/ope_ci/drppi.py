"""Doubly-robust population-value intervals (the `drppi` estimator): one
fold loop, cross-fitted or single-fit, of model value plus a held-out
reweighted correction, with the shared plug-in variance and normal interval.
Its settings are the study's ``StudyConfig``: ``n_model_rollouts``,
``pairs_per_trajectory``, ``crossfit`` and ``clip_policy()``."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DatasetTooSmall
from .mdp import ConfidenceInterval, TrajectoryDataset
from .reweighting import _normal_interval, _plug_in_variance, reweighted_returns

if TYPE_CHECKING:
    from .harness import StudyConfig


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
    cfg: StudyConfig,
    rng: np.random.Generator,
    d0_sampler=None,
    *,
    corrections,
) -> list[HalfEstimate]:
    """Model-based value plus the reweighted correction on held-out data,
    one ``HalfEstimate`` per kind in ``corrections``, all on the same model
    rollouts and one step-ratio table.

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

    pair_starts = np.repeat(
        correction_data.initial_states(), cfg.pairs_per_trajectory, axis=0
    )
    pair_returns = model.rollout_batch(
        target, pair_starts, horizon, rng_pairs
    ).returns(discount)
    pair_means = pair_returns.reshape(n_half, cfg.pairs_per_trajectory).mean(axis=1)

    halves = []
    for returns in reweighted_returns(correction_data, target, behavior, corrections,
                                      cfg.clip_policy()):
        terms = returns - pair_means
        halves.append(HalfEstimate(
            value=float(model_returns.mean() + terms.mean()),
            var_model=float(model_returns.var(ddof=1)),
            var_correction=float(terms.var(ddof=1)) if n_half > 1 else 0.0,
            n_half=n_half,
        ))
    return halves


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
    return _plug_in_variance([
        (0.5, var_model_1, n_model_rollouts), (0.5, var_correction_1, n_half_1),
        (0.5, var_model_2, n_model_rollouts), (0.5, var_correction_2, n_half_2),
    ])


def dr_ppi_estimates(
    dataset, behavior, target, cfg, model_factory, rng, d0_sampler, corrections
) -> list[tuple[float, float]]:
    """Point estimate and plug-in variance of each kind in ``corrections``,
    from one fold loop whose model fits and rollouts they share.

    Cross-fitting fits one model per half and corrects it on the other
    half; without cross-fitting a single model is fitted and corrected on
    the full dataset.
    """
    if len(dataset) < 4:
        raise DatasetTooSmall("the estimator needs at least 4 trajectories")
    folds = [((dataset, dataset), rng)]
    if cfg.crossfit:
        first, second = dataset.split_half()
        folds = zip([(first, second), (second, first)], rng.spawn(2))
    per_fold = [
        half_estimate(model_factory().fit(fit), held_out, behavior, target, cfg, r,
                      d0_sampler, corrections=corrections)
        for (fit, held_out), r in folds
    ]
    estimates = []
    for halves in zip(*per_fold):  # the halves of one correction kind
        # the sum starts from the first value, so a lone -0.0 keeps its sign
        value = sum((h.value for h in halves[1:]), halves[0].value) / len(halves)
        estimates.append((value, _plug_in_variance(
            (1.0 / len(halves), var, n) for h in halves
            for var, n in ((h.var_model, cfg.n_model_rollouts), (h.var_correction, h.n_half))
        )))
    return estimates


def interval_from_estimate(value: float, variance: float, alpha: float) -> ConfidenceInterval:
    """value +/- z_{1-alpha/2} * sqrt(variance)."""
    return _normal_interval(value, math.sqrt(variance), alpha)
