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
        # Each column adds its A entries in the order of numpy's row sum of
        # the (N, A) table, so every probability matches the row layout's.
        weights /= _pairwise_column_sums(weights)
        return weights.T


def _scratch_rows(n: int) -> int:
    """Scratch rows, beside the output row, that `_pairwise_sum` needs for n rows."""
    if n < 16:
        return 0 if n < 8 else 2
    if n <= 128:
        return 3
    half = n // 2 - n // 2 % 8
    return max(_scratch_rows(half), 1 + _scratch_rows(n - half))


def _pairwise_sum(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write into ``out`` the sum down axis 0 of the ``(n, m)`` array ``rows``,
    in numpy's pairwise order for an n-element reduction: in sequence below 8
    rows; up to 128 rows, 8 running partials over the leading multiple of 8
    rows, added as ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)), then the rest in
    sequence; above 128, the two halves split at a multiple of 8.  ``scratch``
    holds `_scratch_rows(n)` rows of width m."""
    n = len(rows)
    if n < 8:
        np.copyto(out, rows[0])
        for row in rows[1:]:
            out += row
    elif n <= 128:
        blocked = n - n % 8

        def partial(k, buf):  # r_k: rows k, k+8, ... below `blocked`, in sequence
            if blocked == 8:
                return rows[k]
            np.add(rows[k], rows[k + 8], out=buf)
            for row in rows[k + 16:blocked:8]:
                buf += row
            return buf

        def pair(j, dest, spare):  # dest = r_j + r_{j+1}
            np.add(partial(j, dest), partial(j + 1, spare), out=dest)

        s0, s1 = scratch[0], scratch[1]
        s2 = scratch[2] if blocked > 8 else None
        pair(0, out, s0)
        pair(2, s0, s1)
        out += s0
        pair(4, s0, s1)
        pair(6, s1, s2)
        s0 += s1
        out += s0
        for row in rows[blocked:]:
            out += row
    else:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(rows[:half], out, scratch)
        _pairwise_sum(rows[half:], scratch[0], scratch[1:])
        out += scratch[0]


def _pairwise_column_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of the ``(A, N)`` array ``rows``, bit for bit those of
    ``rows.T.sum(axis=1)`` on a C-ordered copy (a sum of negative zeros
    aside, which numpy makes +0.0), without the copy.  Scratch is
    at most two rows of N: a sum that needs more runs over column blocks."""
    n = rows.shape[1]
    registers = _scratch_rows(len(rows))
    width = max(1, n if registers <= 2 else 2 * n // registers)
    scratch = np.empty((registers, width))
    out = np.empty(n)
    for start in range(0, n, width):
        stop = min(start + width, n)
        _pairwise_sum(rows[:, start:stop], out[start:stop], scratch[:, : stop - start])
    return out


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
    """Vector of prob(action | state); 0 for an action outside 0..A-1."""
    rows = policy.action_probs(states)
    actions = np.asarray(actions, dtype=np.int64)
    valid = (actions >= 0) & (actions < rows.shape[1])
    out = np.zeros(len(actions))
    out[valid] = rows[np.flatnonzero(valid), actions[valid]]
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


def policy_sample(policy, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per state by inverse CDF, from one ``rng.random(N)`` draw."""
    probs = policy.action_probs(states)
    return _inverse_cdf(probs, rng.random(probs.shape[0]))
