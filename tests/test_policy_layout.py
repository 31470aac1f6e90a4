"""The action-major softmax table and the column-walk draw against the
row-layout table and the ``cumsum`` draw.  The table's column sum adds its A
positive weights in another order than the row layout's row sum; each sum is
within (A−1)·u of the exact one, u = ε/2 being the unit roundoff (Higham 1993,
*The accuracy of floating point summation*), so with the division's rounding
the probabilities agree within A·ε.  The drawn actions and the generator state
after the draw equal the ``cumsum`` draw's on the same table, bit for bit."""
import math

import numpy as np
import pytest

from ope_ci.envs import small_finite_mdp
from ope_ci.policies import (
    _TABLE_ROWS,
    _row_blocks,
    SoftmaxOrderUpToPolicy,
    TabularPolicy,
    policy_probs,
    policy_sample,
)

from oracles import cumsum_policy_sample, one_table_policy_probs, row_softmax_action_probs

EPS = np.finfo(float).eps


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


def assert_close_to_row_layout(policy, states):
    """Every probability within A·ε of the row layout's, A = capacity + 1."""
    got = policy.action_probs(states)
    want = row_softmax_action_probs(policy, states)
    assert got.shape == want.shape == (len(states), policy.capacity + 1)
    np.testing.assert_allclose(got, want, rtol=(policy.capacity + 1) * EPS, atol=0)


# The capacities cover numpy's summation blocks: in sequence below 8 terms,
# 8 running partials from 8, and two halves above 128.
@pytest.mark.parametrize("capacity", [1, 5, 10, 20, 7, 8, 15, 16, 23, 128, 256])
@pytest.mark.parametrize("temperature", [0.05, 0.7, 1.5, 4.0, 50.0])
def test_softmax_matches_row_layout(capacity, temperature):
    rng = np.random.default_rng(capacity * 1000 + int(temperature * 100))
    for order_up_to in (0.0, capacity / 2 + 0.25, float(capacity), capacity + 3.0):
        policy = SoftmaxOrderUpToPolicy(order_up_to, temperature, capacity)
        states = stock_grid(capacity, order_up_to, rng)
        assert_close_to_row_layout(policy, states)
        assert_same_draws(policy, states, seed=capacity + 7)


@pytest.mark.parametrize("rows", [1, 7, 8192, 8193, 100_003])
def test_softmax_matches_row_layout_at_batch_sizes(rows):
    """Sizes that leave a remainder after every vector width, and one table
    block of ``policy_sample`` and one row more."""
    policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
    states = np.random.default_rng(rows).uniform(-3.0, 14.0, size=(rows, 1))
    assert_close_to_row_layout(policy, states)
    assert_same_draws(policy, states, seed=rows)


class BlockRecorder:
    """A policy that records the tables it hands out."""

    def __init__(self, policy):
        self.policy, self.tables = policy, []

    def action_probs(self, states):
        self.tables.append(self.policy.action_probs(states))
        return self.tables[-1]


@pytest.mark.parametrize("rows", [1, 2, 8192, 8193, 16_385, 24_577, 100_003])
def test_blocked_tables_equal_one_table(rows):
    """``policy_sample`` builds its table in blocks of at most ``_TABLE_ROWS``
    rows, which together equal the one table of all rows bit for bit.  A
    one-row block would not: numpy sums its one column in pairwise order."""
    policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
    states = np.random.default_rng(rows).uniform(-3.0, 14.0, size=(rows, 1))
    recorder = BlockRecorder(policy)
    got = policy_sample(recorder, states, np.random.default_rng(rows))
    assert max(len(table) for table in recorder.tables) <= _TABLE_ROWS
    assert len(recorder.tables) == -(-rows // _TABLE_ROWS)
    assert np.array_equal(np.concatenate(recorder.tables), policy.action_probs(states))
    assert np.array_equal(got, cumsum_policy_sample(policy, states, np.random.default_rng(rows)))


@pytest.mark.parametrize("rows", [k * _TABLE_ROWS + d for k in (1, 2, 3) for d in (-1, 1)])
def test_blocked_probs_equal_one_table_gather(rows):
    """``policy_probs`` builds and gathers its table in blocks of at most
    ``_TABLE_ROWS`` rows; the probabilities, 0 for actions outside 0..A-1
    included, equal those gathered from the one table of all rows bit for
    bit."""
    policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
    rng = np.random.default_rng(rows)
    states = rng.uniform(-3.0, 14.0, size=(rows, 1))
    actions = rng.integers(-2, 14, size=rows)
    recorder = BlockRecorder(policy)
    got = policy_probs(recorder, states, actions)
    assert max(len(table) for table in recorder.tables) <= _TABLE_ROWS
    assert len(recorder.tables) == -(-rows // _TABLE_ROWS)
    assert np.array_equal(got, one_table_policy_probs(policy, states, actions))
    assert (got == 0.0).any() and (got > 0.0).any()


@pytest.mark.parametrize("most", [0, 1, 2, 7, _TABLE_ROWS])
def test_row_blocks_split_evenly(most):
    """The fewest blocks of at most ``max(1, most)`` rows, in order and with
    sizes that differ by one at most; zero rows give one empty block."""
    for n in range(65):
        blocks = _row_blocks(n, most)
        sizes = [len(range(n)[block]) for block in blocks]
        assert [i for block in blocks for i in range(n)[block]] == list(range(n))
        assert max(sizes) <= max(1, most)
        assert max(sizes) - min(sizes) <= 1
        assert len(blocks) == max(1, math.ceil(n / max(1, most)))


def test_tabular_draws_match_cumsum():
    mdp, behavior, target = small_finite_mdp()
    rng = np.random.default_rng(11)
    states = rng.uniform(0.0, mdp.state_count, size=(2000, 1))
    assert_same_draws(behavior, states, seed=3)
    assert_same_draws(target, states, seed=4)
    wide = TabularPolicy((tuple(np.full(17, 1 / 17)), tuple(np.linspace(1, 17, 17) / 153)))
    assert_same_draws(wide, rng.uniform(0.0, 2.0, size=(500, 1)), seed=5)
