"""Comparison estimators: reweighted-return intervals with CLT or bootstrap
bounds, their augmented variant that pools synthetic rollouts, a direct
model-rollout method, and a stepwise doubly-robust baseline built on
fitted-Q evaluation solved as one least-squares problem."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ConfidenceInterval, RolloutBatch, TrajectoryDataset
from .models import polynomial_features, solve_least_squares
from .policies import _BLOCK_CELLS, _row_blocks
from .reweighting import (
    ClipPolicy,
    CorrectionKind,
    bootstrap_interval,
    clipped_prefixes,
    clt_interval,
    is_returns,
    reweighted_returns,
)


def _interval(values, alpha, bound, rng, n_boot):
    if bound == "clt":
        return clt_interval(values, alpha)
    if bound == "bootstrap":
        if rng is None:
            raise ValueError("bootstrap bounds need a generator")
        return bootstrap_interval(values, alpha, n_boot, rng)
    raise ValueError(f"unknown bound {bound!r}; use 'clt' or 'bootstrap'")


def is_baseline(
    dataset: TrajectoryDataset,
    behavior,
    target,
    alpha: float,
    kind: CorrectionKind = CorrectionKind.IS,
    bound: str = "clt",
    clip: ClipPolicy = ClipPolicy(),
    rng: np.random.Generator | None = None,
    n_boot: int = 2000,
) -> ConfidenceInterval:
    values = reweighted_returns(dataset, target, behavior, [kind], clip)[0]
    return _interval(values, alpha, bound, rng, n_boot)


def aug_is_baseline(
    dataset: TrajectoryDataset,
    model,
    behavior,
    target,
    n_synth: int,
    alpha: float,
    bound: str = "clt",
    clip: ClipPolicy = ClipPolicy(),
    rng: np.random.Generator | None = None,
    d0_sampler=None,
    n_boot: int = 2000,
) -> ConfidenceInterval:
    """Pools the reweighted real returns with raw returns of synthetic
    rollouts generated under the target policy (each with unit weight)."""
    if n_synth < 0:
        raise ValueError(f"n_synth must be at least 0, got {n_synth}")
    if n_synth == 0:
        return is_baseline(
            dataset, behavior, target, alpha, bound=bound, clip=clip, rng=rng, n_boot=n_boot
        )
    if rng is None:
        raise ValueError("synthetic generation needs a generator")
    rng_synth, rng_bound = rng.spawn(2)
    starts = (d0_sampler or dataset.sample_initial_states)(rng_synth, n_synth)
    synth = model.rollout_batch(target, starts, dataset.horizon, rng_synth).returns(
        dataset.discount
    )
    real = is_returns(dataset, target, behavior, clip)
    pooled = np.concatenate([real, synth])
    return _interval(pooled, alpha, bound, rng_bound, n_boot)


def dm_baseline(
    model,
    target,
    d0_sampler,
    n_rollouts: int,
    alpha: float,
    rng: np.random.Generator,
    horizon: int,
    discount: float = 1.0,
    n_boot: int = 2000,
) -> ConfidenceInterval:
    """Bootstrap interval over model-rollout returns under the target policy."""
    rng_roll, rng_boot = rng.spawn(2)
    starts = d0_sampler(rng_roll, n_rollouts)
    returns = model.rollout_batch(target, starts, horizon, rng_roll).returns(discount)
    return bootstrap_interval(returns, alpha, n_boot, rng_boot)


# ---------------------------------------------------------------------------
# Fitted-Q machinery for the doubly-robust baseline.


@dataclass(frozen=True)
class FittedQSpec:
    degree: int = 2
    sweeps: int | None = None  # defaults to the dataset horizon


def _expected_features(states: np.ndarray, policy, degree: int) -> np.ndarray:
    """Rows E_{a ~ policy} phi(s, a) over actions 0..A-1.  phi is at most
    quadratic in a, so a row is phi(s, E a) with its a^2 column (the last,
    at degree 2) set to E a^2.  The moments walk each ``_row_blocks`` action
    table one column at a time in action order, so blocked rows equal those
    of one table bit for bit."""
    states = np.asarray(states, dtype=float)
    mean, square = np.zeros(len(states)), np.zeros(len(states))
    for rows in _row_blocks(len(states)):
        for a, column in enumerate(policy.action_probs(states[rows]).T):
            mean[rows] += column * a
            square[rows] += column * (a * a)
    feats = polynomial_features(states, mean, degree)
    if degree == 2:
        feats[:, -1] = square
    return feats


class PolynomialQ:
    """Action-value function linear in polynomial features of (state, action)."""

    def __init__(self, coef: np.ndarray, degree: int):
        self.coef = np.asarray(coef, dtype=float)
        self.degree = degree

    def q_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return polynomial_features(states, actions, self.degree) @ self.coef

    def expected_q(self, states: np.ndarray, policy) -> np.ndarray:
        """E_{a ~ policy} Q(s, a) over actions 0..A-1."""
        return _expected_features(states, policy, self.degree) @ self.coef


def fit_q(
    dataset: TrajectoryDataset,
    target,
    spec: FittedQSpec = FittedQSpec(),
    synthetic: RolloutBatch | None = None,
) -> PolynomialQ:
    """Least-squares fitted-Q evaluation with ``spec.sweeps`` backward sweeps.

    Each sweep regresses r + gamma * E_{a' ~ target} Q(s', a') (zero beyond
    each trajectory's last step) onto the features X = phi(s, a).  Q is
    linear in phi, so that target is r + gamma * Phi c, where row i of Phi
    is E_{a' ~ target} phi(s'_i, a') (zero on terminal rows; the features of
    the action moments, see ``_expected_features``) and c the previous
    coefficients.  Every sweep regresses onto the same X, and the solve is
    linear in its right-hand side (on the ``lstsq`` branch and on the ridge
    branch alike, and X alone picks the branch).  So one least-squares solve
    of X [a | B] = [r, gamma Phi] gives every sweep as c <- a + B c, run from
    c = 0.  Synthetic rollouts, when given, join the regression data only.
    The M rows of [X | r | gamma Phi] are built from blocks of trajectories
    of at most ``_BLOCK_CELLS`` cells.  Each block's R factor is folded by
    one QR into the R factor of the rows before it, and R's top p rows are
    solved with the rank tolerance of M rows; so beyond the synthetic batch
    itself, memory does not grow with the number of synthetic rollouts.
    """
    p = polynomial_features(dataset.batch.states[0, :1], 0, spec.degree).shape[1]
    width = 2 * p + 1  # the columns of [X | r | gamma Phi]
    R, M = np.zeros((0, width)), 0
    for batch in (dataset.batch,) if synthetic is None else (dataset.batch, synthetic):
        for b in _row_blocks(batch.size, _BLOCK_CELLS // width // batch.states.shape[1]):
            states, actions, rewards, next_states, terminal = RolloutBatch(
                batch.states[b], batch.actions[b], batch.rewards[b], batch.lengths[b]
            ).flatten()
            expected = np.zeros((len(states), p))
            expected[~terminal] = _expected_features(next_states[~terminal], target, spec.degree)
            X = polynomial_features(states, actions, spec.degree)
            block = np.column_stack([X, rewards, dataset.discount * expected])
            block = np.linalg.qr(block, mode="r")  # raw rows stacked under R: ~10x less accurate
            R, M = np.linalg.qr(np.vstack([R, block]), mode="r"), M + len(states)
    solved = solve_least_squares(R[:p, :p], R[:p, p:], rows=M)
    offset, step = solved[:, 0], solved[:, 1:]
    coef = np.zeros(p)
    for _ in range(spec.sweeps if spec.sweeps is not None else dataset.horizon):
        coef = offset + step @ coef
    return PolynomialQ(coef, spec.degree)


def stepwise_dr_values(
    dataset: TrajectoryDataset,
    target,
    behavior,
    q,
    clip: ClipPolicy = ClipPolicy(),
) -> np.ndarray:
    """Per-trajectory stepwise doubly-robust values.

    sum_t gamma^(t-1) [ rho_{1:t} (r_t - Q(s_t, a_t)) + rho_{1:t-1} E_pi Q(s_t, .) ]
    with rho_{1:0} = 1 and every prefix product clipped at sqrt(n).
    """
    prefixes, rewards, gammas, mask = clipped_prefixes(dataset, target, behavior, clip)
    n, T = mask.shape
    prev = np.column_stack([np.ones(n), prefixes[:, :-1]])

    b = dataset.batch
    flat_states = b.states[:, :T][mask]
    q_sa = np.zeros((n, T))
    q_sa[mask] = q.q_values(flat_states, b.actions[:, :T][mask])
    eq = np.zeros((n, T))
    eq[mask] = q.expected_q(flat_states, target)

    terms = gammas * (prefixes * (rewards - q_sa) + prev * eq) * mask
    return terms.sum(axis=1)


def dr_baseline(
    dataset: TrajectoryDataset,
    behavior,
    target,
    alpha: float,
    q_spec: FittedQSpec | None = None,
    q=None,
    augment: tuple | None = None,
    clip: ClipPolicy = ClipPolicy(),
    rng: np.random.Generator | None = None,
) -> ConfidenceInterval:
    """CLT interval over stepwise doubly-robust per-trajectory values.

    Pass ``q`` to supply an action-value function directly; otherwise one is
    fitted from the dataset per ``q_spec``.  ``augment=(model, n_synth)``
    adds synthetic target-policy rollouts to the Q-fitting data only, with
    initial states bootstrap-resampled from the dataset.
    """
    if q is None:
        synthetic = None
        if augment is not None:
            model, n_synth = augment
            if n_synth < 0:
                raise ValueError(f"n_synth must be at least 0, got {n_synth}")
            if n_synth > 0:
                if rng is None:
                    raise ValueError("augmentation needs a generator")
                starts = dataset.sample_initial_states(rng, n_synth)
                synthetic = model.rollout_batch(target, starts, dataset.horizon, rng)
        q = fit_q(dataset, target, q_spec or FittedQSpec(), synthetic)
    values = stepwise_dr_values(dataset, target, behavior, q, clip)
    return clt_interval(values, alpha)
