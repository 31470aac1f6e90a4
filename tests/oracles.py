"""Independent oracles the tests check library results against.

Everything here is deliberately written from scratch with a different
construction than the library paths it verifies: a recursive walk over every
path (and a per-state loop) instead of the library's array backward
induction, order statistics instead of grid inversion, a sorted-CDF weighted
quantile, brute-force nearest neighbors, and the stdlib-independent scipy
quantile.  Policies are read one (state, action) at a time through ``prob``.
The per-sweep fitted-Q iteration is the library's former straightforward
path, kept as the reference its precomputed action blocks must match bit for
bit.  Likewise the per-trajectory returns, likelihood ratios, ratio table and
regression rows walk one trajectory's ``Row`` of arrays, read off
``dataset.batch`` up to its length, step by step, as the library walked
per-step trajectory objects before its estimators read the padded batch
arrays, and the columnar paths must match them bit for bit.  The three rollout loops are the ones each
simulator and the Gaussian model ran before they shared one time loop; its
batches and generator state must match theirs bit for bit.  The dense
epsilon-ball weights build every (query, pair) matrix at once, as the
library did before it ran queries in chunks; the chunked weights must match
them to rounding, because the ball sums are a row-wise reduction rather than
a matrix-vector product.  The softmax policy table and the policy draw are
the row-layout ones the library used before it built the table action-major
and walked the CDF one column at a time; tables, draws and generator state
must match them bit for bit.  Fitted Q's expected features are the
features of the action moments E a, E a^2 taken from one action table of
all rows, as the library took them before it built the table in blocks of
rows, and must match bit for bit; the per-action sum of features, which the
library used before it took moments, must match them to rounding.  The
fitted-Q regression rows come from one flatten of every trajectory, as the
library took them before it flattened blocks of trajectories.  The bootstrap means
come from one ``(n_boot, n)`` index draw, as the library drew them before it
resampled in blocks of rows; means and generator state must match them bit
for bit.  The gathered policy probabilities likewise come from one action
table of all rows.  The median pairwise distance is taken over the upper
triangle of the full distance matrix, picked with ``triu_indices``, as the
library took it before it wrote the triangle from blocks of rows; the
medians must match bit for bit.  The polynomial features are stacked from a
list of columns, as the library built them before it wrote one preallocated
array, and must match bit for bit.  The block median distance writes the
triangle from blocks of rows with masks and ``abs`` for every width, as the
library did before it read one coordinate's distances off contiguous slices
of the sorted values; the medians must match bit for bit.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from ope_ci.baselines import FittedQSpec
from ope_ci.cpgen import _MASS_TOL, WeightedScoreDistribution
from ope_ci.envs import FiniteMdp
from ope_ci.errors import ZeroBehaviorProbability
from ope_ci.mdp import RolloutBatch
from ope_ci.models import polynomial_features, solve_least_squares
from ope_ci.policies import policy_probs, policy_sample


def prob(policy, state, action) -> float:
    """prob(action | state) for one state tuple; 0 outside 0..A-1."""
    return float(policy_probs(policy, np.array([state], dtype=float), np.array([action]))[0])


class Row(NamedTuple):
    """One trajectory's steps: states (L, d), integer actions (L,) and
    rewards (L,)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


def batch_rows(batch: RolloutBatch) -> list[Row]:
    """Each row of a padded batch cut to its own length."""
    return [
        Row(batch.states[i, :L], batch.actions[i, :L], batch.rewards[i, :L])
        for i, L in enumerate(batch.lengths.tolist())
    ]


def trajectory_return(row: Row, discount: float) -> float:
    """Discounted return over the trajectory's own length."""
    if not 0.0 < discount <= 1.0:
        raise ValueError("discount must lie in (0, 1]")
    total = 0.0
    gamma_t = 1.0
    for reward in row.rewards:
        total += gamma_t * float(reward)
        gamma_t *= discount
    return total


def likelihood_ratio(row: Row, target, behavior) -> float:
    """Product over steps of target/behavior action probabilities.

    Raises ZeroBehaviorProbability on an exactly-zero behavior denominator.
    """
    ratio = 1.0
    for state, action in zip(row.states, row.actions):
        denom = prob(behavior, state, action)
        if denom == 0.0:
            raise ZeroBehaviorProbability(
                f"behavior probability is zero at state {tuple(state)}, action {action}"
            )
        ratio *= prob(target, state, action) / denom
    return ratio


def per_trajectory_ratio_table(dataset, target, behavior):
    """(ratios (n, T), rewards (n, T), lengths (n,)) filled one trajectory
    at a time, T the longest trajectory's length."""
    rows = batch_rows(dataset.batch)
    n = len(rows)
    T = max(len(r.actions) for r in rows)
    lengths = np.array([len(r.actions) for r in rows], dtype=np.int64)
    flat_states = np.empty((int(lengths.sum()), dataset.state_dim))
    flat_actions: list = []
    rewards = np.zeros((n, T))
    pos = 0
    for i, row in enumerate(rows):
        L = len(row.actions)
        flat_states[pos : pos + L] = row.states
        flat_actions.extend(int(a) for a in row.actions)
        rewards[i, :L] = row.rewards
        pos += L
    p_behavior = policy_probs(behavior, flat_states, np.asarray(flat_actions))
    flat_ratios = policy_probs(target, flat_states, np.asarray(flat_actions)) / p_behavior
    ratios = np.ones((n, T))
    pos = 0
    for i, L in enumerate(lengths):
        ratios[i, :L] = flat_ratios[pos : pos + L]
        pos += L
    return ratios, rewards, lengths


def per_trajectory_fit_rows(dataset):
    """(Zr, yr, Zs, Ys) of the Gaussian model fit: [s, a] inputs and rewards
    over every step, and the inputs of consecutive steps with their next
    states."""
    reward_inputs, rewards = [], []
    dyn_inputs, next_states = [], []
    for row in batch_rows(dataset.batch):
        states = row.states
        z = np.column_stack([states, row.actions.astype(float)[:, None]])
        reward_inputs.append(z)
        rewards.append(row.rewards)
        if len(row.actions) > 1:
            dyn_inputs.append(z[:-1])
            next_states.append(states[1:])
    return (
        np.concatenate(reward_inputs),
        np.concatenate(rewards),
        np.concatenate(dyn_inputs),
        np.concatenate(next_states),
    )


def transition_rows(dataset, extra=None):
    """Dataset steps, then those of ``extra``, from one
    ``RolloutBatch.flatten`` of each batch."""
    rows = dataset.batch.flatten()
    if extra is None:
        return rows
    return tuple(np.concatenate(pair) for pair in zip(rows, extra.flatten()))


def per_trajectory_transition_rows(dataset, extra=None):
    """(states, actions, rewards, next_states, terminal) of fitted Q: every
    step of the dataset, then of ``extra``; next states are zero on each
    trajectory's last step."""
    rows = batch_rows(dataset.batch) + ([] if extra is None else batch_rows(extra))
    states, actions, rewards, next_states, terminal = [], [], [], [], []
    for row in rows:
        s = row.states
        states.append(s)
        actions.append(row.actions)
        rewards.append(row.rewards)
        next_states.append(np.vstack([s[1:], np.zeros((1, s.shape[1]))]))
        term = np.zeros(len(row.actions), dtype=bool)
        term[-1] = True
        terminal.append(term)
    return tuple(
        np.concatenate(part)
        for part in (states, actions, rewards, next_states, terminal)
    )


def normal_quantile_oracle(p: float) -> float:
    return float(ndtri(p))


def enumerate_trajectories(
    mdp: FiniteMdp, policy, initial_state=None
) -> list[tuple[Row, float]]:
    """All trajectories with their exact path probabilities.

    Probabilities are conditional on the initial state when one is given,
    otherwise they include the initial-state draw.  Zero-probability branches
    are pruned.
    """
    out: list[tuple[Row, float]] = []

    def walk(s: int, t: int, p: float, prefix: list):
        if t == mdp.horizon or s in mdp.absorbing:
            states = np.array([[float(step[0])] for step in prefix]).reshape(-1, 1)
            actions = np.array([step[1] for step in prefix], dtype=np.int64)
            rewards = np.array([step[2] for step in prefix], dtype=float)
            out.append((Row(states, actions, rewards), p))
            return
        for a in range(mdp.action_count):
            pa = prob(policy, (float(s),), a)
            if pa == 0.0:
                continue
            for nxt in range(mdp.state_count):
                pt = mdp.transition_probs[s, a, nxt]
                if pt == 0.0:
                    continue
                prefix.append((s, a, float(mdp.rewards[s, a, nxt])))
                walk(nxt, t + 1, p * pa * pt, prefix)
                prefix.pop()

    if initial_state is not None:
        walk(int(initial_state[0]), 0, 1.0, [])
    else:
        for s0 in range(mdp.state_count):
            if mdp.initial_dist[s0] > 0.0:
                walk(s0, 0, float(mdp.initial_dist[s0]), [])
    return out


def path_walk_value(
    mdp: FiniteMdp, policy, discount: float, initial_state=None
) -> float:
    """Exact policy value by a recursive walk over every path (no
    memoization), the library's former ``oracle_value``."""

    def expected_from(s: int, t: int) -> float:
        if t == mdp.horizon or s in mdp.absorbing:
            return 0.0
        total = 0.0
        for a in range(mdp.action_count):
            pa = prob(policy, (float(s),), a)
            if pa == 0.0:
                continue
            for nxt in range(mdp.state_count):
                pt = mdp.transition_probs[s, a, nxt]
                if pt == 0.0:
                    continue
                total += pa * pt * (
                    mdp.rewards[s, a, nxt] + discount * expected_from(nxt, t + 1)
                )
        return total

    if initial_state is not None:
        return expected_from(int(initial_state[0]), 0)
    return float(
        sum(
            mdp.initial_dist[s] * expected_from(s, 0)
            for s in range(mdp.state_count)
            if mdp.initial_dist[s] > 0.0
        )
    )


def dp_policy_value(mdp: FiniteMdp, policy, discount: float) -> float:
    """Backward-induction value, one state and action at a time."""
    values = np.zeros(mdp.state_count)
    for _ in range(mdp.horizon):
        nxt = np.zeros(mdp.state_count)
        for s in range(mdp.state_count):
            if s in mdp.absorbing:
                continue
            total = 0.0
            for a in range(mdp.action_count):
                pa = prob(policy, (float(s),), a)
                cont = mdp.rewards[s, a] + discount * values
                total += pa * float(mdp.transition_probs[s, a] @ cont)
            nxt[s] = total
        values = nxt
    return float(mdp.initial_dist @ values)


def weighted_quantile(dist: WeightedScoreDistribution, beta: float) -> float:
    """Smallest score v with CDF(v) >= beta; +inf when the finite mass below
    the level is insufficient (the query's tail mass sits at +inf)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    order = np.argsort(dist.scores, kind="stable")
    cum = np.cumsum(dist.weights[order])
    idx = np.searchsorted(cum, beta - _MASS_TOL, side="left")
    if idx >= cum.size:
        return math.inf
    return float(dist.scores[order][idx])


def split_conformal_band(scores: np.ndarray, alpha: float) -> tuple[float, float]:
    """Classical two-sided split-conformal band from order statistics.

    With n calibration scores and mass 1/(n+1) at +infinity, the beta
    quantile is the ceil(beta * (n + 1))-th smallest score.  Callers must
    pick (n, alpha) so both endpoints stay finite.
    """
    scores = np.sort(np.asarray(scores, dtype=float))
    n = scores.size

    def order_stat(beta: float) -> float:
        rank = math.ceil(beta * (n + 1) - 1e-9)
        if rank > n:
            return math.inf
        return float(scores[rank - 1])

    return order_stat(alpha / 2.0), order_stat(1.0 - alpha / 2.0)


def nearest_k_mean(
    query_state,
    query_score,
    pairs,
    eps_state: float,
    eps_score: float,
    k: int,
) -> float:
    """Brute-force nearest-k mean under the radius-scaled max distance."""
    q = np.asarray(query_state, dtype=float)
    scored = []
    for pair in pairs:
        d_s = float(np.linalg.norm(np.asarray(pair.initial_state) - q))
        d_r = abs(pair.score - query_score)
        scored.append((max(d_s / eps_state, d_r / eps_score), pair.pair_ratio))
    scored.sort(key=lambda item: item[0])
    top = scored[: min(k, len(scored))]
    return float(np.mean([ratio for _, ratio in top]))


def dense_eps_ball_weights(
    query_states: np.ndarray,
    query_scores: np.ndarray,
    train_states: np.ndarray,
    train_scores: np.ndarray,
    train_ratios: np.ndarray,
    eps_state: float,
    eps_score: float,
    k_nearest: int,
) -> np.ndarray:
    """Mean pair ratio over the ball around each query; nearest-k fallback."""
    d_state = np.sqrt(
        ((query_states[:, None, :] - train_states[None, :, :]) ** 2).sum(-1)
    )
    d_score = np.abs(query_scores[:, None] - train_scores[None, :])
    inside = (d_state <= eps_state) & (d_score <= eps_score)
    counts = inside.sum(axis=1)
    sums = inside @ train_ratios
    out = np.empty(query_states.shape[0])
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled]
    if (~filled).any():
        k = min(k_nearest, train_ratios.shape[0])
        scaled = np.maximum(d_state[~filled] / eps_state, d_score[~filled] / eps_score)
        nearest = np.argpartition(scaled, k - 1, axis=1)[:, :k]
        out[~filled] = train_ratios[nearest].mean(axis=1)
    return out


def exact_pair_weights(
    mdp: FiniteMdp, behavior, target, discount: float
) -> tuple[dict, dict]:
    """Exactly enumerated shift weights for (initial state, score) atoms.

    Enumerates every (real, generated) trajectory pair under the behavior
    policy with an oracle generative model, so the generated leg has the
    same law as the real one.  Returns the weight lookup and the per-state
    atom sets of achievable score values.
    """
    weights: dict[tuple[int, float], float] = {}
    atoms: dict[int, list[float]] = {}
    for s0 in range(mdp.state_count):
        if s0 in mdp.absorbing:
            continue
        trajs = enumerate_trajectories(mdp, behavior, initial_state=(float(s0),))
        info = [
            (trajectory_return(t, discount), likelihood_ratio(t, target, behavior), p)
            for t, p in trajs
        ]
        grouped: dict[float, tuple[float, float]] = {}
        for return_1, ratio_1, prob_1 in info:
            for return_2, ratio_2, prob_2 in info:
                key = round(return_1 - return_2, 9)
                num, den = grouped.get(key, (0.0, 0.0))
                grouped[key] = (
                    num + prob_1 * prob_2 * ratio_1 * ratio_2,
                    den + prob_1 * prob_2,
                )
        atoms[s0] = sorted(grouped)
        for key, (num, den) in grouped.items():
            weights[(s0, key)] = num / den
    return weights, atoms


class ZeroQ:
    """Identically-zero action-value function (reduces stepwise DR to PDIS)."""

    def q_values(self, states, actions):
        return np.zeros(len(actions))

    def expected_q(self, states, policy):
        return np.zeros(np.asarray(states).shape[0])


class PerSweepQ:
    """Polynomial action-value function whose expectation rebuilds the
    policy's probabilities and per-action features on every call."""

    def __init__(self, coef: np.ndarray, degree: int):
        self.coef = np.asarray(coef, dtype=float)
        self.degree = degree

    def q_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return polynomial_features(states, actions, self.degree) @ self.coef

    def expected_q(self, states: np.ndarray, policy) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        total = np.zeros(states.shape[0])
        for action in range(policy.action_probs(states[:1]).shape[1]):
            acts = np.full(states.shape[0], action)
            total += policy_probs(policy, states, acts) * self.q_values(states, acts)
        return total


def per_sweep_fit_q(
    dataset, target, spec: FittedQSpec = FittedQSpec(), synthetic=None
) -> PerSweepQ:
    """Fitted-Q iteration that evaluates E_{a' ~ target} Q(s', a') from
    scratch on every sweep."""
    states, actions, rewards, next_states, terminal = transition_rows(
        dataset, synthetic
    )
    feats = polynomial_features(states, actions, spec.degree)
    sweeps = spec.sweeps if spec.sweeps is not None else dataset.horizon
    q = PerSweepQ(np.zeros(feats.shape[1]), spec.degree)
    cont = ~terminal
    for _ in range(sweeps):
        targets = rewards.copy()
        if cont.any():
            targets[cont] += dataset.discount * q.expected_q(next_states[cont], target)
        q = PerSweepQ(solve_least_squares(feats, targets), spec.degree)
    return q


def row_softmax_action_probs(policy, states: np.ndarray) -> np.ndarray:
    """``SoftmaxOrderUpToPolicy.action_probs`` built row by row as an
    ``(N, A)`` table, with row reductions."""
    stock = np.asarray(states, dtype=float)[:, 0]
    actions = np.arange(policy.capacity + 1, dtype=float)
    wanted = np.maximum(0.0, policy.order_up_to - stock)
    logits = -np.abs(actions[None, :] - wanted[:, None]) / policy.temperature
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def cumsum_policy_sample(policy, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per state by inverse CDF, from one ``rng.random(N)`` draw."""
    cdf = np.cumsum(policy.action_probs(states), axis=1)
    u = rng.random(cdf.shape[0])
    return (cdf < u[:, None]).sum(axis=1).astype(np.int64)


def one_table_expected_features(states: np.ndarray, policy, degree: int) -> np.ndarray:
    """Rows sum_a prob(a | s) * phi(s, a) from one action table of all rows."""
    probs = policy.action_probs(states)
    return sum(
        probs[:, a, None] * polynomial_features(states, a, degree)
        for a in range(probs.shape[1])
    )


def one_table_moment_features(states: np.ndarray, policy, degree: int) -> np.ndarray:
    """Rows phi(s, E a) with the a^2 column (the last, at degree 2) set to
    E a^2, the moments walked over one action table of all rows in action
    order."""
    probs = policy.action_probs(states)
    mean, square = np.zeros(len(states)), np.zeros(len(states))
    for a in range(probs.shape[1]):
        mean += probs[:, a] * a
        square += probs[:, a] * (a * a)
    feats = polynomial_features(states, mean, degree)
    if degree == 2:
        feats[:, -1] = square
    return feats


def column_stack_polynomial_features(states: np.ndarray, actions, degree: int) -> np.ndarray:
    """Features [1, z_i, (z_i z_j for i <= j at degree 2)] of z = [s, a],
    stacked column by column from a list."""
    states = np.asarray(states, dtype=float)
    z = np.column_stack([states, np.broadcast_to(actions, len(states))])
    cols = [np.ones(z.shape[0]), *z.T]
    if degree == 2:
        for i in range(z.shape[1]):
            for j in range(i, z.shape[1]):
                cols.append(z[:, i] * z[:, j])
    return np.column_stack(cols)


def one_table_policy_probs(policy, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """prob(action | state) gathered from one action table of all rows; 0 for
    an action outside 0..A-1."""
    rows = policy.action_probs(states)
    actions = np.asarray(actions, dtype=np.int64)
    valid = (actions >= 0) & (actions < rows.shape[1])
    out = np.zeros(len(actions))
    out[valid] = rows[np.flatnonzero(valid), actions[valid]]
    return out


def triangle_median_distance(values: np.ndarray) -> float:
    """Median over i < j of the distance between rows i and j of ``values``,
    read off the full matrix with ``triu_indices``; sets above 512 rows are
    subsampled as the library does."""
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 512:
        keep = np.unique(np.linspace(0, n - 1, 512).astype(int))
        values = values[keep]
        n = values.shape[0]
    if values.ndim == 1:
        diffs = np.abs(values[:, None] - values[None, :])
    else:
        diffs = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(-1))
    return float(np.median(diffs[np.triu_indices(n, k=1)]))


def block_median_distance(values: np.ndarray, block_cells: int = 1 << 16) -> float:
    """Median over i < j of the distance between rows i and j of ``values``,
    written in row order from blocks of at most ``block_cells`` values; sets
    above 512 rows are subsampled as the library does."""
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 512:
        values = values[np.linspace(0, n - 1, 512).astype(int)]
        n = 512
    upper = np.empty(n * (n - 1) // 2)
    done = 0
    rows_per_block = max(1, block_cells // values.size)
    for top in range(0, n - 1, rows_per_block):
        stop = min(top + rows_per_block, n - 1)
        diffs = values[top + 1 :][None] - values[top:stop][:, None]
        if values.ndim == 1:
            np.abs(diffs, out=diffs)
        else:
            diffs = np.sqrt((diffs**2).sum(-1))
        block = diffs[np.arange(top + 1, n)[None, :] > np.arange(top, stop)[:, None]]
        upper[done : done + block.size] = block
        done += block.size
    return float(np.median(upper))


def one_call_bootstrap_means(samples, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Means of ``n_boot`` resamples of ``samples`` from one index draw."""
    samples = np.asarray(samples, dtype=float)
    return samples[rng.integers(0, samples.size, size=(n_boot, samples.size))].mean(axis=1)


def inventory_rollout(env, policy, initial_states, horizon, rng) -> RolloutBatch:
    """Inventory rollouts on 1-D stock arrays: per step the action draw, then
    the demand draw."""
    p = env.params
    x = np.asarray(initial_states, dtype=float).reshape(-1, 1)[:, 0].copy()
    n = x.shape[0]
    states = np.empty((n, horizon, 1))
    actions = np.empty((n, horizon), dtype=np.int64)
    rewards = np.empty((n, horizon))
    for t in range(horizon):
        a = policy_sample(policy, x[:, None], rng)
        states[:, t, 0] = x
        actions[:, t] = a
        stocked = np.minimum(float(p.capacity), x + a)
        demand = rng.normal(p.demand_mean, p.demand_sd, size=x.shape)
        x_next = np.maximum(0.0, stocked - demand)
        sold = np.maximum(0.0, stocked - x_next)
        rewards[:, t] = p.reward_scale * (
            -p.fixed_order_cost * (a > 0)
            - p.holding_cost * x
            - p.unit_cost * (stocked - x)
            + p.unit_price * sold
        )
        x = x_next
    return RolloutBatch(states, actions, rewards, np.full(n, horizon, dtype=np.int64))


def finite_rollout(mdp: FiniteMdp, policy, initial_states, horizon, rng) -> RolloutBatch:
    """Finite-MDP rollouts on integer states, writing only the live rows; a
    row that has ended still takes its action and transition draws."""
    s = np.asarray(initial_states, dtype=float).reshape(-1, 1)[:, 0].astype(int)
    n = s.shape[0]
    states = np.zeros((n, horizon, 1))
    actions = np.zeros((n, horizon), dtype=np.int64)
    rewards = np.zeros((n, horizon))
    lengths = np.zeros(n, dtype=np.int64)
    absorbing = np.zeros(mdp.state_count, dtype=bool)
    for idx in mdp.absorbing:
        absorbing[idx] = True
    active = ~absorbing[s]
    cum_P = np.cumsum(mdp.transition_probs, axis=2)
    for t in range(horizon):
        if not active.any():
            break
        a = policy_sample(policy, s.astype(float)[:, None], rng)
        u = rng.random(n)
        nxt = (cum_P[s, a] < u[:, None]).sum(axis=1)
        r = mdp.rewards[s, a, nxt]
        states[active, t, 0] = s[active]
        actions[active, t] = a[active]
        rewards[active, t] = r[active]
        lengths[active] = t + 1
        s = np.where(active, nxt, s)
        active = active & ~absorbing[s]
    return RolloutBatch(states, actions, rewards, lengths)


def gaussian_model_rollout(model, policy, initial_states, horizon, rng) -> RolloutBatch:
    """Rollouts of a fitted ``GaussianRegressionModel``: per step the action
    draw, the reward noise, then the state noise, clipped to its box."""
    d = model._state_dim
    x = np.asarray(initial_states, dtype=float).reshape(-1, d).copy()
    n = x.shape[0]
    states = np.empty((n, horizon, d))
    actions = np.empty((n, horizon), dtype=np.int64)
    rewards = np.empty((n, horizon))
    for t in range(horizon):
        a = policy_sample(policy, x, rng)
        feats = polynomial_features(x, a, model.degree)
        states[:, t] = x
        actions[:, t] = a
        rewards[:, t] = (
            feats @ model._reward_coef + rng.standard_normal(n) * model._reward_scale
        )
        x = feats @ model._state_coef + rng.standard_normal((n, d)) * model._state_scale
        if model.state_box is not None:
            np.clip(x, model.state_box[0], model.state_box[1], out=x)
    return RolloutBatch(states, actions, rewards, np.full(n, horizon, dtype=np.int64))
