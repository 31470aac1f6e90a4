"""Pluggable generative dynamics models: fit from a trajectory dataset, then
roll out a batch of trajectories from requested initial states under a policy.

A fitted model is immutable in practice and safe to share; rollouts with
independent generator streams may run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularDesign
from .mdp import RolloutBatch, TrajectoryDataset, _roll_out


def polynomial_features(states: np.ndarray, actions, degree: int) -> np.ndarray:
    """Feature map [1, z_i, (z_i z_j for i <= j when degree == 2)] of the
    inputs z = [s, float(a)], from ``(N, d)`` states and ``(N,)`` actions (or
    one action for every row); the library's one ``(s, a)`` layout."""
    states = np.asarray(states, dtype=float)
    q = states.shape[1] + 1  # the inputs z = [s, a]
    out = np.empty((len(states), 1 + q + (q * (q + 1) // 2 if degree == 2 else 0)))
    out[:, 0], out[:, 1:q], out[:, q] = 1.0, states, actions
    if degree == 2:
        pairs = [(i, j) for i in range(1, q + 1) for j in range(i, q + 1)]
        for k, (i, j) in enumerate(pairs, start=q + 1):
            np.multiply(out[:, i], out[:, j], out=out[:, k])
    return out


_RIDGE = 1e-6  # weight of the identity in the rank-deficient fallback


def solve_least_squares(X: np.ndarray, Y: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Least-squares coefficients of Y on X, ridged when X is rank-deficient.
    X and Y may be the top p rows of the R factor of [design | targets], with
    ``rows`` the design's row count M (default ``X.shape[0]``): the rank
    tolerance is eps * max(M, p), numpy's default for the design itself."""
    if X.shape[0] == 0:
        raise SingularDesign("no rows available for the regression")
    rcond = np.finfo(float).eps * max(X.shape[0] if rows is None else rows, X.shape[1])
    coef, _, rank, _ = np.linalg.lstsq(X, Y, rcond=rcond)
    if rank < X.shape[1]:
        # Rank-deficient design: fall back to a lightly ridged solve.
        gram = X.T @ X + _RIDGE * np.eye(X.shape[1])
        coef = np.linalg.solve(gram, X.T @ Y)
    return coef


class Model:
    """Batch rollouts of a model's step protocol (``mdp._steps``), defined
    apart from ``Simulator.rollout_batch`` so that the tracer times them apart."""

    def rollout_batch(self, policy, initial_states, horizon, rng) -> RolloutBatch:
        return _roll_out(self, policy, initial_states, horizon, rng)


@dataclass
class GaussianRegressionModel(Model):
    """Polynomial-feature regressor for next state and reward with Gaussian
    residual noise; the residual scale per output dimension is fitted from
    the training residuals.

    ``state_box`` optionally clamps generated states to a coordinate box.
    """

    degree: int = 2
    state_box: tuple[np.ndarray, np.ndarray] | None = None
    _state_coef: np.ndarray | None = field(default=None, repr=False)
    _reward_coef: np.ndarray | None = field(default=None, repr=False)
    _state_scale: np.ndarray | None = field(default=None, repr=False)
    _reward_scale: float | None = field(default=None, repr=False)
    _state_dim: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.degree not in (1, 2):
            raise ValueError("feature degree must be 1 or 2")

    @property
    def fitted(self) -> bool:
        return self._state_coef is not None

    def fit(self, dataset: TrajectoryDataset) -> "GaussianRegressionModel":
        """Least-squares fit of next-state and reward maps over all transitions.

        Consecutive transitions within each trajectory supply the dynamics
        rows, so trajectories of length one contribute to the reward fit only.
        The features are row-wise, so the dynamics design is the reward
        design's rows that have a successor.
        """
        states, actions, yr, next_states, terminal = dataset.batch.flatten()
        if terminal.all():
            raise SingularDesign("no consecutive transitions to fit dynamics from")

        Xr = polynomial_features(states, actions, self.degree)
        Xs, Ys = Xr[~terminal], next_states[~terminal]
        state_coef = solve_least_squares(Xs, Ys)
        reward_coef = solve_least_squares(Xr, yr)

        self._state_coef = state_coef
        self._reward_coef = reward_coef
        self._state_scale = (Ys - Xs @ state_coef).std(axis=0)
        self._reward_scale = float((yr - Xr @ reward_coef).std())
        self._state_dim = Ys.shape[1]
        return self

    def _start_states(self, initial_states) -> np.ndarray:
        if not self.fitted:
            raise SingularDesign("model must be fitted before rolling out")
        return np.asarray(initial_states, dtype=float).reshape(-1, self._state_dim)

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator):
        """Mean maps plus Gaussian noise: the reward noise is drawn first,
        then the state noise; next states are clipped to ``state_box``."""
        n = states.shape[0]
        feats = polynomial_features(states, actions, self.degree)
        rewards = feats @ self._reward_coef + rng.standard_normal(n) * self._reward_scale
        x = feats @ self._state_coef + rng.standard_normal(
            (n, self._state_dim)
        ) * self._state_scale
        if self.state_box is not None:
            np.clip(x, self.state_box[0], self.state_box[1], out=x)
        return x, rewards


@dataclass
class OracleModel(Model):
    """Ground-truth environment wrapped as a generative model (zero model
    error ablation); fitting is a no-op."""

    env: object

    step_batch = property(lambda self: self.env.step_batch)
    is_absorbing = property(lambda self: self.env.is_absorbing)
    _start_states = property(lambda self: self.env._start_states)

    def fit(self, dataset: TrajectoryDataset | None = None) -> "OracleModel":
        return self


@dataclass
class RewardOffsetModel(Model):
    """Decorator adding a constant per-step reward offset to a base model.

    Used to study how estimators behave when the generative model is biased.
    """

    base: object
    reward_offset: float

    is_absorbing = property(lambda self: getattr(self.base, "is_absorbing", None))
    _start_states = property(lambda self: self.base._start_states)

    def fit(self, dataset: TrajectoryDataset | None = None) -> "RewardOffsetModel":
        self.base.fit(dataset)
        return self

    def step_batch(self, states, actions, rng):
        x, rewards = self.base.step_batch(states, actions, rng)
        return x, rewards + self.reward_offset
