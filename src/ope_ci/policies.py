"""Stochastic policies as action-probability tables.

A policy is anything with ``action_probs(states) -> (N, A)``: given an
``(N, d)`` state array, row i holds the probabilities of actions 0..A-1 at
``states[i]`` and sums to 1.  Everything the library does with a policy is
an operation on that table: ``policy_probs`` gathers the probability of
given actions and ``policy_sample`` draws actions by inverse CDF.  A table
may come back in either memory order; ``SoftmaxOrderUpToPolicy`` returns the
transposed view of an action-major array, whose columns are contiguous.
"""
from __future__ import annotations

import math
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")
        if not math.isfinite(self.order_up_to):
            raise ValueError("order_up_to must be finite")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")

    def action_probs(self, states: np.ndarray) -> np.ndarray:
        stock = np.asarray(states, dtype=float)[:, 0]
        wanted = np.maximum(0.0, self.order_up_to - stock)
        # Action-major (A, N) logits, built in place: -|a - wanted| / temperature.
        weights = np.arange(self.capacity + 1, dtype=float)[:, None] - wanted
        np.abs(weights, out=weights)
        weights /= -self.temperature
        weights -= weights.max(axis=0)
        np.exp(weights, out=weights)
        # Each total adds in action order: numpy sums a lone (A, 1) column pairwise.
        weights /= weights.sum(axis=0) if weights.shape[1] > 1 else weights.cumsum(axis=0)[-1]
        return weights.T


@dataclass(frozen=True)
class TabularPolicy:
    """Action table for integer-coded states; row s holds prob(a | s).  States
    are truncated to integers, as a fitted model rolls out continuous ones,
    and a code outside 0..S-1 is a ``ValueError``."""

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
        x = np.asarray(states, dtype=float)[:, 0]
        codes = x.astype(int)
        outside = (codes < 0) | (codes >= len(self._arr))
        if outside.any():
            i = np.flatnonzero(outside)[0]
            raise ValueError(
                f"state {x[i]:g} has code {codes[i]}, outside 0..{len(self._arr) - 1}"
            )
        return self._arr[codes]


def policy_probs(policy, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Vector of prob(action | state); 0 for an action outside 0..A-1.  The
    table is built and gathered in ``_row_blocks``, so no table holds more
    than ``_TABLE_ROWS`` rows, and the gathered values equal the one table's
    bit for bit."""
    actions = np.asarray(actions, dtype=np.int64)
    out = np.zeros(len(actions))
    for rows in _row_blocks(len(actions)):
        table = policy.action_probs(states[rows])
        taken = actions[rows]
        valid = (taken >= 0) & (taken < table.shape[1])
        out[rows][valid] = table[np.flatnonzero(valid), taken[valid]]
    return out


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of the ``(N, K)`` table ``probs``, the count of CDF entries
    below ``u``, at most K-1: a row whose CDF ends below ``u`` (it sums to 1
    only up to rounding) draws its last action.  The CDF is walked one column
    at a time, adding in the order of ``cumsum(axis=1)``, so any memory order
    gives the same draws."""
    cdf = np.zeros(len(u))
    index = np.zeros(len(u), dtype=np.int64)
    for column in probs.T:
        cdf += column
        index += cdf < u
    return np.minimum(index, probs.shape[1] - 1, out=index)


# Most rows of one action table: 8,192 rows of 11 actions (the inventory
# policies) take 720 KB, which fits in L2, where an unblocked 100k-row table
# took 8.8 MB.
_TABLE_ROWS = 8192
# Most cells of one block of any other chunked loop (bootstrap indices,
# distance rows): a float64 temporary of 65,536 cells takes 512 KB, which
# fits in L2.
_BLOCK_CELLS = 1 << 16


def _row_blocks(n: int, most: int = _TABLE_ROWS) -> list[slice]:
    """The fewest blocks of at most ``max(1, most)`` of ``n`` rows, with sizes
    that differ by one at most; zero rows give one empty block.  Each row of
    a table depends on its own state alone, so tables built block by block
    equal the one table of all rows bit for bit."""
    blocks = max(1, -(-n // max(1, most)))
    return [slice(i * n // blocks, (i + 1) * n // blocks) for i in range(blocks)]


def policy_sample(
    policy, states: np.ndarray, rng: np.random.Generator, drawn_probs=None
) -> np.ndarray:
    """One action per state by inverse CDF, from one ``rng.random(N)`` draw;
    the table is built and walked in ``_row_blocks``, with the one table's
    draws.  An ``(N,)`` float array ``drawn_probs`` receives each drawn
    action's probability, gathered from the same tables."""
    u = rng.random(len(states))
    actions = np.empty(len(states), dtype=np.int64)
    for rows in _row_blocks(len(states)):
        table = policy.action_probs(states[rows])
        actions[rows] = _inverse_cdf(table, u[rows])
        if drawn_probs is not None:
            drawn_probs[rows] = table[np.arange(rows.stop - rows.start), actions[rows]]
        del table  # before the next block's table, which then reuses its cached memory
    return actions
