"""Stochastic policies as action-probability tables.

A policy is anything with ``action_probs(states) -> (N, A)``: given an
``(N, d)`` state array, row i holds the probabilities of actions 0..A-1 at
``states[i]`` and sums to 1.  Everything the library does with a policy is
an operation on that table: ``policy_probs`` gathers the probability of
given actions and ``policy_sample`` draws actions by inverse CDF.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SoftmaxOrderUpToPolicy:
    """Discrete ordering policy over quantities 0..capacity.

    Action probabilities decay exponentially with the distance between the
    action and the order needed to restock up to ``order_up_to``:
    prob(a | x) proportional to exp(-|a - max(0, order_up_to - x)| / temperature).
    """

    order_up_to: float
    temperature: float
    capacity: int = 10

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        stock = np.asarray(states, dtype=float)[:, 0]
        actions = np.arange(self.capacity + 1, dtype=float)
        wanted = np.maximum(0.0, self.order_up_to - stock)
        logits = -np.abs(actions[None, :] - wanted[:, None]) / self.temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        return weights / weights.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class TabularPolicy:
    """Action table for integer-coded states; row s holds prob(a | s).  States
    are truncated to integers, as a fitted model rolls out continuous ones."""

    table: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2:
            raise ValueError("table must be a (states, actions) matrix")
        if (arr < 0).any():
            raise ValueError("action probabilities must be nonnegative")
        if np.abs(arr.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("each row must sum to 1 within 1e-9")
        object.__setattr__(self, "_arr", arr)

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        return self._arr[np.asarray(states, dtype=float)[:, 0].astype(int)]


def policy_probs(policy, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Vector of prob(action | state); 0 for an action outside 0..A-1."""
    rows = policy.action_probs(states)
    actions = np.asarray(actions, dtype=np.int64)
    valid = (actions >= 0) & (actions < rows.shape[1])
    out = np.zeros(len(actions))
    out[valid] = rows[np.flatnonzero(valid), actions[valid]]
    return out


def policy_sample(policy, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per state by inverse CDF, from one ``rng.random(N)`` draw."""
    cdf = np.cumsum(policy.action_probs(states), axis=1)
    u = rng.random(cdf.shape[0])
    return (cdf < u[:, None]).sum(axis=1).astype(np.int64)
