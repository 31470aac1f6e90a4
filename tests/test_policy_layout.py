"""The action-major softmax table and the column-walk draw against the
row-layout table and the ``cumsum`` draw they replaced, bit for bit: every
probability, every drawn action and the generator state after the draw."""
import numpy as np
import pytest

from ope_ci.envs import small_finite_mdp
from ope_ci.policies import (
    SoftmaxOrderUpToPolicy,
    TabularPolicy,
    _pairwise_column_sums,
    policy_sample,
)

from oracles import cumsum_policy_sample, row_softmax_action_probs


def stock_grid(capacity, order_up_to, rng):
    """Integer and half-integer stock, stock above ``order_up_to`` (so the
    wanted order is clipped at 0), negative stock as an unboxed model rolls
    out, and continuous draws over all of those."""
    steps = np.arange(-2 * capacity - 4, 4 * capacity + 8) / 2.0
    around = order_up_to + np.array([-1e-12, 0.0, 1e-12, 0.5, 3.0])
    spread = rng.uniform(-capacity, 2 * capacity + order_up_to, size=500)
    return np.concatenate([steps, around, spread])[:, None]


def assert_same_draws(policy, states, seed):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = policy_sample(policy, states, rng_got)
    want = cumsum_policy_sample(policy, states, rng_want)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# numpy's pairwise row sum adds below 8 actions in sequence, from 8 in 8
# running partials (single entries below 16), and above 128 in two halves.
@pytest.mark.parametrize("capacity", [1, 5, 10, 20, 7, 8, 15, 16, 23, 128, 256])
@pytest.mark.parametrize("temperature", [0.05, 0.7, 1.5, 4.0, 50.0])
def test_softmax_matches_row_layout(capacity, temperature):
    rng = np.random.default_rng(capacity * 1000 + int(temperature * 100))
    for order_up_to in (0.0, capacity / 2 + 0.25, float(capacity), capacity + 3.0):
        policy = SoftmaxOrderUpToPolicy(order_up_to, temperature, capacity)
        states = stock_grid(capacity, order_up_to, rng)
        got = policy.action_probs(states)
        want = row_softmax_action_probs(policy, states)
        assert got.shape == want.shape == (len(states), capacity + 1)
        assert np.array_equal(got, want)
        assert_same_draws(policy, states, seed=capacity + 7)


@pytest.mark.parametrize("rows", [1, 7, 100_003])
def test_softmax_matches_row_layout_at_batch_sizes(rows):
    """Sizes that leave a remainder after every vector width."""
    policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
    states = np.random.default_rng(rows).uniform(-3.0, 14.0, size=(rows, 1))
    assert np.array_equal(policy.action_probs(states), row_softmax_action_probs(policy, states))
    assert_same_draws(policy, states, seed=rows)


def test_tabular_draws_match_cumsum():
    mdp, behavior, target = small_finite_mdp()
    rng = np.random.default_rng(11)
    states = rng.uniform(0.0, mdp.state_count, size=(2000, 1))
    assert_same_draws(behavior, states, seed=3)
    assert_same_draws(target, states, seed=4)
    wide = TabularPolicy((tuple(np.full(17, 1 / 17)), tuple(np.linspace(1, 17, 17) / 153)))
    assert_same_draws(wide, rng.uniform(0.0, 2.0, size=(500, 1)), seed=5)


@pytest.mark.parametrize("columns", [1, 7, 1001, 100_003])
def test_pairwise_column_sums_match_numpy_row_sums(columns):
    """Every branch of numpy's addition order, the recursive halves and the
    column blocks they need, against ``sum(axis=1)`` on the C-ordered copy.
    At 100_003 columns, A stops at 33 to keep the arrays small."""
    rng = np.random.default_rng(columns)
    for actions in range(1, 34 if columns > 10_000 else 301):
        rows = rng.standard_normal((actions, columns))
        want = np.ascontiguousarray(rows.T).sum(axis=1)
        assert np.array_equal(_pairwise_column_sums(rows), want), actions
