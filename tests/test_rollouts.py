"""The shared rollout loop against the per-environment loops it replaced, bit
for bit: every batch array with its dtype, and the generator state after the
rollout, so that the random stream is consumed in the same order.  The Monte
Carlo value, which folds the same loop's steps into running returns, against
the returns of the recorded batch."""
import math

import numpy as np
import pytest

from ope_ci.envs import (
    FiniteMdp,
    InventoryEnv,
    inventory_policy_pair,
    monte_carlo_value,
    small_finite_mdp,
)
from ope_ci.models import GaussianRegressionModel
from ope_ci.policies import TabularPolicy

from oracles import finite_rollout, gaussian_model_rollout, inventory_rollout
from test_columnar import short_lived_mdp

EPS = np.finfo(float).eps


def absorbing_mdp():
    """Four states; state 3 is absorbing and every other state reaches it
    with probability 0.2 to 0.5 a step, so rows end at every length.  Its
    own transitions lead away from it, which an ended row must not show."""
    P = np.array(
        [
            [[0.5, 0.2, 0.1, 0.2], [0.1, 0.4, 0.2, 0.3]],
            [[0.2, 0.3, 0.2, 0.3], [0.3, 0.1, 0.2, 0.4]],
            [[0.1, 0.2, 0.2, 0.5], [0.4, 0.2, 0.2, 0.2]],
            [[0.3, 0.3, 0.3, 0.1], [0.25, 0.25, 0.25, 0.25]],
        ]
    )
    R = np.arange(32, dtype=float).reshape(4, 2, 4) / 3.0
    mdp = FiniteMdp(P, R, np.array([0.4, 0.3, 0.3, 0.0]), horizon=4, absorbing=frozenset({3}))
    policy = TabularPolicy(((0.6, 0.4), (0.5, 0.5), (0.7, 0.3), (0.5, 0.5)))
    return mdp, policy


def assert_same_rollout(run, reference, *args, seed=17):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = run(*args, rng_got), reference(*args, rng_want)
    for name in ("states", "actions", "rewards", "lengths"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.flags.c_contiguous, name
        assert np.array_equal(g, w), name
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


def test_inventory():
    env = InventoryEnv()
    behavior, _ = inventory_policy_pair()
    starts = env.sample_initial_states(np.random.default_rng(3), 40)
    batch = assert_same_rollout(
        env.rollout_batch, lambda *a: inventory_rollout(env, *a),
        behavior, starts, env.horizon,
    )
    assert batch.lengths.tolist() == [env.horizon] * 40


def test_finite_fixture():
    mdp, behavior, _ = small_finite_mdp()
    starts = mdp.sample_initial_states(np.random.default_rng(4), 200)
    assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), behavior, starts, mdp.horizon
    )


def test_finite_absorbing_rows_end_at_every_length():
    mdp, policy = absorbing_mdp()
    starts = np.repeat([0.0, 1.0, 2.0, 3.0], 50)[:, None]
    batch = assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), policy, starts, mdp.horizon
    )
    assert set(batch.lengths.tolist()) == {0, 1, 2, 3, 4}
    assert (batch.lengths[150:] == 0).all()


def test_finite_loop_ends_once_every_row_is_absorbed():
    """Every row is absorbed within two steps of a horizon of 4."""
    mdp, policy, _ = short_lived_mdp()
    starts = np.array([0.0, 1.0, 2.0] * 20)[:, None]
    batch = assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), policy, starts, mdp.horizon
    )
    assert set(batch.lengths.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("env_name", ["inventory", "finite"])
@pytest.mark.parametrize("boxed", [True, False])
def test_gaussian_model(env_name, boxed):
    if env_name == "inventory":
        env = InventoryEnv()
        behavior, _ = inventory_policy_pair()
    else:
        env, behavior, _ = small_finite_mdp()
    data = env.sample_dataset(behavior, 60, np.random.default_rng(5))
    model = GaussianRegressionModel(state_box=env.state_box if boxed else None).fit(data)
    starts = env.sample_initial_states(np.random.default_rng(6), 40)
    if env_name == "finite" and not boxed:
        # An unboxed model leaves the finite MDP's states, and the tabular
        # policy refuses the codes it reaches instead of reading a wrong row.
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            model.rollout_batch(behavior, starts, env.horizon, np.random.default_rng(17))
        return
    batch = assert_same_rollout(
        model.rollout_batch, lambda *a: gaussian_model_rollout(model, *a),
        behavior, starts, env.horizon,
    )
    lo, hi = env.state_box
    assert ((batch.states >= lo) & (batch.states <= hi)).all() == boxed


def assert_fold_matches_batch(env, policy, n, discount, initial_state=None, seed=23):
    """``monte_carlo_value`` against the returns ``rollout_batch`` records from
    the same generator state.  Each folded return adds the batch return's
    terms in time order, within horizon·ε of the sum of their magnitudes;
    each of the two means adds its own rounding of at most
    (⌈log2 n⌉ + 16)·ε of the mean magnitude under numpy's pairwise sum."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    mean, se = monte_carlo_value(env, policy, n, rng_got, discount, initial_state)
    if initial_state is None:
        starts = env.sample_initial_states(rng_want, n)
    else:
        starts = np.tile(np.asarray(initial_state, dtype=float), (n, 1))
    batch = env.rollout_batch(policy, starts, env.horizon, rng_want)
    returns = batch.returns(discount)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    terms = np.where(batch.step_mask(), batch.rewards, 0.0) * discount ** np.arange(env.horizon)
    magnitude = np.abs(terms).sum(axis=1).mean()
    ulps = env.horizon + 2 * (math.ceil(math.log2(n)) + 16)
    assert abs(mean - returns.mean()) <= ulps * EPS * magnitude
    assert se == pytest.approx(returns.std(ddof=1) / math.sqrt(n), rel=1e-9)
    return mean, se


@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("initial_state", [None, (4.5,)])
def test_monte_carlo_fold_matches_batch_on_inventory(discount, initial_state):
    _, target = inventory_policy_pair()
    assert_fold_matches_batch(InventoryEnv(), target, 3000, discount, initial_state)


@pytest.mark.parametrize("initial_state", [None, (1.7,), (2.2,)])
def test_monte_carlo_fold_matches_batch_on_absorbing_mdp(initial_state):
    mdp, policy = absorbing_mdp()
    assert_fold_matches_batch(mdp, policy, 3000, 0.9, initial_state)


def test_monte_carlo_starts_truncate_to_state_codes():
    """A start of 3.4 is the absorbing state 3: every rollout has length 0."""
    mdp, policy = absorbing_mdp()
    assert assert_fold_matches_batch(mdp, policy, 50, 0.9, (3.4,)) == (0.0, 0.0)
