"""Ground-truth simulators: a continuous inventory-control environment and a
small finite MDP whose policy values ``oracle_value`` computes exactly, by
backward induction, for tests and studies.

Environments are immutable specifications.  Sampling takes an explicit
generator; concurrent callers must derive independent streams themselves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamples
from .mdp import RolloutBatch, State, TrajectoryDataset, _roll_out, _steps
from .policies import SoftmaxOrderUpToPolicy, TabularPolicy, _inverse_cdf, _row_blocks


@dataclass(frozen=True)
class InventoryParams:
    capacity: int = 10
    fixed_order_cost: float = 1.0
    unit_cost: float = 2.0
    holding_cost: float = 2.0
    unit_price: float = 4.0
    demand_mean: float = 5.0
    demand_sd: float = 1.0
    horizon: int = 20
    reward_scale: float = 100.0

    def __post_init__(self) -> None:
        if self.capacity < 1 or self.horizon < 1 or self.demand_sd <= 0:
            raise ValueError("capacity, horizon and demand_sd must be positive")


def _inventory_dynamics(stock, actions, demand, params: InventoryParams):
    """``inventory_step`` on arrays (or scalars) of stock, orders and demand."""
    stocked = np.minimum(float(params.capacity), stock + actions)
    x_next = np.maximum(0.0, stocked - demand)
    sold = np.maximum(0.0, stocked - x_next)
    reward = params.reward_scale * (
        -params.fixed_order_cost * (actions > 0)
        - params.holding_cost * stock
        - params.unit_cost * (stocked - stock)
        + params.unit_price * sold
    )
    return x_next, reward


def inventory_step(
    x: float, a: int, demand_draw: float, params: InventoryParams
) -> tuple[float, float]:
    """One day of inventory dynamics.

    The stock after ordering is min(capacity, x + a); the next state is that
    stock minus the demand draw, floored at zero.  The reward nets the fixed
    order cost, holding cost on the opening stock, purchase cost, and revenue
    on units actually sold, all scaled by ``reward_scale``.
    """
    if x < 0:
        raise ValueError("stock level must be nonnegative")
    x_next, reward = _inventory_dynamics(x, a, demand_draw, params)
    return float(x_next), float(reward)


class Simulator:
    """Sampling shared by the environments.  An environment provides
    ``horizon``, ``state_dim``, ``sample_initial_states(rng, n) -> (n, d)``
    and ``step_batch(states, actions, rng) -> (next_states, rewards)``, one
    step of every row from ``(N, d)`` states and ``(N,)`` integer actions,
    drawing its own dynamics noise.  It may also provide absorbing states as
    ``is_absorbing(states) -> (N,)`` booleans: a rollout ends on reaching
    one, and a rollout that starts in one has length 0."""

    is_absorbing = None

    def _start_states(self, initial_states) -> np.ndarray:
        """``initial_states`` as ``(N, d)`` float rollout starts: the one
        preparation behind ``rollout_batch`` and ``monte_carlo_value``."""
        return np.asarray(initial_states, dtype=float).reshape(-1, self.state_dim)

    def rollout_batch(self, policy, initial_states, horizon, rng) -> RolloutBatch:
        return _roll_out(self, policy, initial_states, horizon, rng)

    def sample_dataset(
        self, policy, n: int, rng: np.random.Generator, discount: float = 1.0
    ) -> TrajectoryDataset:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        batch = self.rollout_batch(
            policy, self.sample_initial_states(rng, n), self.horizon, rng
        )
        return TrajectoryDataset(batch, discount, self.horizon)


@dataclass(frozen=True)
class InventoryEnv(Simulator):
    params: InventoryParams = field(default_factory=InventoryParams)

    @property
    def state_dim(self) -> int:
        return 1

    @property
    def horizon(self) -> int:
        return self.params.horizon

    @property
    def state_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(1), np.array([float(self.params.capacity)])

    def sample_initial_states(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, float(self.params.capacity), size=(n, 1))

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator):
        p = self.params
        demand = rng.normal(p.demand_mean, p.demand_sd, size=(len(states), 1))
        reward = np.empty(len(states))
        for rows in _row_blocks(len(states)):  # elementwise: the whole arrays' bits
            demand[rows, 0], reward[rows] = _inventory_dynamics(
                states[rows, 0], actions[rows], demand[rows, 0], p)
        return demand, reward  # each block's next states overwrote its demand


@dataclass(frozen=True, eq=False)
class FiniteMdp(Simulator):
    """Tabular MDP with exact policy values (horizon <= 4).

    ``transition_probs[s, a]`` is a distribution over next states and
    ``rewards[s, a, s']`` the reward for landing in s'.  States are exposed
    as integer-coded 1-tuples so the rest of the library sees the same state
    representation as the continuous environments.
    """

    transition_probs: np.ndarray
    rewards: np.ndarray
    initial_dist: np.ndarray
    horizon: int
    absorbing: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        P = np.asarray(self.transition_probs, dtype=float)
        R = np.asarray(self.rewards, dtype=float)
        d0 = np.asarray(self.initial_dist, dtype=float)
        if P.ndim != 3 or P.shape[0] != P.shape[2] or R.shape != P.shape:
            raise ValueError("transition_probs and rewards must both be (S, A, S)")
        if not (np.isfinite(P).all() and np.isfinite(R).all() and np.isfinite(d0).all()):
            raise ValueError("transition_probs, rewards and initial_dist must be finite")
        if np.abs(P.sum(axis=2) - 1.0).max() > 1e-12:
            raise ValueError("every transition distribution must sum to 1 within 1e-12")
        if (P < 0).any() or (d0 < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(d0.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1 within 1e-12")
        if not 1 <= self.horizon <= 4:
            raise ValueError("finite MDP horizon must lie in 1..4")
        if any(d0[s] > 0 for s in self.absorbing):
            raise ValueError("initial distribution must avoid absorbing states")
        object.__setattr__(self, "transition_probs", P)
        object.__setattr__(self, "rewards", R)
        object.__setattr__(self, "initial_dist", d0)

    @property
    def state_count(self) -> int:
        return self.transition_probs.shape[0]

    @property
    def action_count(self) -> int:
        return self.transition_probs.shape[1]

    @property
    def state_dim(self) -> int:
        return 1

    @property
    def state_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(1), np.array([float(self.state_count - 1)])

    def sample_initial_states(self, rng: np.random.Generator, n: int) -> np.ndarray:
        table = np.broadcast_to(self.initial_dist, (n, self.state_count))
        draws = _inverse_cdf(table, rng.random(n))
        return draws.astype(float)[:, None]

    def _start_states(self, initial_states) -> np.ndarray:
        """Rollout starts truncate to integer state codes."""
        return super()._start_states(initial_states).astype(int).astype(float)

    def is_absorbing(self, states: np.ndarray) -> np.ndarray:
        return np.isin(states[:, 0], tuple(self.absorbing))

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator):
        s = states[:, 0].astype(int)
        u = rng.random(s.shape[0])
        nxt = _inverse_cdf(self.transition_probs[s, actions], u)
        return nxt.astype(float)[:, None], self.rewards[s, actions, nxt]


def oracle_value(
    mdp: FiniteMdp,
    policy,
    discount: float,
    initial_state: State | None = None,
) -> float:
    """Exact policy value by backward induction: from V = 0, each of the
    ``horizon`` steps sets V(s) = live(s) sum_a pi(a|s) sum_s' P (R + discount V(s')),
    with live(s) = 0 on absorbing states."""
    S = mdp.state_count
    pi = policy.action_probs(np.arange(S, dtype=float)[:, None])
    live = np.ones(S)
    live[sorted(mdp.absorbing)] = 0.0
    values = np.zeros(S)
    for _ in range(mdp.horizon):
        q = (mdp.transition_probs * (mdp.rewards + discount * values)).sum(axis=2)
        values = live * (pi * q).sum(axis=1)
    if initial_state is None:
        return float(mdp.initial_dist @ values)
    s0 = int(initial_state[0])
    if not 0 <= s0 < S:
        raise ValueError(f"initial state {s0} lies outside 0..{S - 1}")
    return float(values[s0])


def monte_carlo_value(
    env,
    policy,
    n_rollouts: int,
    rng: np.random.Generator,
    discount: float = 1.0,
    initial_state: State | None = None,
) -> tuple[float, float]:
    """Sample mean and standard error of returns over independent rollouts.

    The rollouts are the ones ``env.rollout_batch`` would record from the same
    generator state, but no batch is kept: each step's discounted rewards are
    added in place into one running return per rollout, so about one step of
    arrays is held, not rollouts times horizon.  The terms are added in
    time order rather than in the pairwise order of ``RolloutBatch.returns``,
    so each return agrees with that routine's within horizon·ε of the sum of
    its terms' magnitudes."""
    if n_rollouts < 2:
        raise InsufficientSamples("monte_carlo_value needs at least 2 rollouts")
    if initial_state is None:
        starts = env.sample_initial_states(rng, n_rollouts)
    else:
        starts = np.tile(np.asarray(initial_state, dtype=float), (n_rollouts, 1))
    gammas = discount ** np.arange(env.horizon)
    returns = np.zeros(n_rollouts)
    steps = _steps(env, policy, env._start_states(starts), env.horizon, rng)
    del starts  # the first states, which the driver drops after the first step
    for t, x, a, r, live in steps:
        np.add(returns, r * gammas[t], out=returns, where=live)
        del x, a, r, live  # before the driver computes the next step
    mean = float(returns.mean())
    se = float(returns.std(ddof=1) / np.sqrt(n_rollouts))
    return mean, se


# ---------------------------------------------------------------------------
# Canonical fixtures used by the CLI, the coverage harness, and the tests.


def inventory_policy_pair(
    capacity: int = 10,
) -> tuple[SoftmaxOrderUpToPolicy, SoftmaxOrderUpToPolicy]:
    """Default (behavior, target) ordering policies with overlapping support.

    The behavior policy restocks toward 6 units with a loose temperature; the
    target restocks toward the same level with a sharper temperature, so every
    action keeps positive probability under both while the action distribution
    genuinely shifts.  Per-step probability ratios stay bounded enough that
    20-step products remain usable by importance-sampling corrections.
    """
    behavior = SoftmaxOrderUpToPolicy(order_up_to=6.0, temperature=1.5, capacity=capacity)
    target = SoftmaxOrderUpToPolicy(order_up_to=6.0, temperature=1.2, capacity=capacity)
    return behavior, target


def small_finite_mdp() -> tuple[FiniteMdp, TabularPolicy, TabularPolicy]:
    """Three-state, two-action, horizon-3 oracle fixture with mild policy shift."""
    P = np.array(
        [
            [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]],
            [[0.3, 0.5, 0.2], [0.2, 0.2, 0.6]],
            [[0.4, 0.4, 0.2], [0.25, 0.25, 0.5]],
        ]
    )
    base = np.array([[1.0, 0.0], [0.5, 1.5], [-0.5, 2.0]])
    bonus = np.array([0.0, 0.5, 1.0])
    R = base[:, :, None] + bonus[None, None, :]
    d0 = np.array([0.5, 0.3, 0.2])
    mdp = FiniteMdp(P, R, d0, horizon=3)
    behavior = TabularPolicy(((0.6, 0.4), (0.5, 0.5), (0.7, 0.3)))
    target = TabularPolicy(((0.4, 0.6), (0.3, 0.7), (0.5, 0.5)))
    return mdp, behavior, target
