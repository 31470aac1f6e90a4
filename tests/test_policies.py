import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ope_ci.policies import (
    SoftmaxOrderUpToPolicy,
    TabularPolicy,
    policy_probs,
    policy_sample,
)


class FixedUniforms:
    """Stands in for a generator: ``random(n)`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == len(self.values)
        return self.values.copy()


def softmax_prob(policy, stock, action):
    """prob(action | stock) straight from the class docstring's formula."""
    wanted = max(0.0, policy.order_up_to - stock)
    weights = [
        math.exp(-abs(a - wanted) / policy.temperature)
        for a in range(policy.capacity + 1)
    ]
    return weights[action] / sum(weights)


class TestSoftmaxOrderUpTo:
    @given(st.floats(0.0, 10.0))
    def test_pmf_sums_to_one(self, stock):
        policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
        rows = policy.action_probs(np.array([[stock]]))
        assert rows.shape == (1, 11)
        assert abs(rows.sum() - 1.0) <= 1e-9

    def test_batch_prob_matches_scalar(self, rng):
        policy = SoftmaxOrderUpToPolicy(6.0, 1.2, 10)
        states = rng.uniform(0, 10, size=(50, 1))
        actions = rng.integers(0, 11, size=50)
        batch = policy_probs(policy, states, actions)
        for i in range(50):
            assert batch[i] == pytest.approx(
                softmax_prob(policy, states[i, 0], int(actions[i])), rel=1e-12
            )

    def test_sampling_respects_mode(self, rng):
        policy = SoftmaxOrderUpToPolicy(6.0, 0.3, 10)
        draws = policy_sample(policy, np.zeros((4000, 1)), rng)
        values, counts = np.unique(draws, return_counts=True)
        assert values[counts.argmax()] == 6  # order up to 6 from empty stock

    def test_out_of_range_action_zero_prob(self):
        policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
        assert policy_probs(policy, np.zeros((2, 1)), np.array([11, -1])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("capacity", [1, 7, 8, 10, 15, 16, 128, 256])
    def test_one_row_table_equals_its_row_of_a_larger_table(self, capacity):
        """numpy adds the one column of an (A, 1) array pairwise and the rows
        of an (A, N >= 2) array in order; each normalizer must add in order."""
        policy = SoftmaxOrderUpToPolicy(0.6 * capacity, 1.3, capacity)
        states = np.random.default_rng(capacity).uniform(0, capacity, size=(200, 1))
        table = policy.action_probs(states)
        for i in range(len(states)):
            assert policy.action_probs(states[i:i + 1]).tobytes() == table[i:i + 1].tobytes()

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxOrderUpToPolicy(6.0, 0.0, 10)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0])
    def test_non_finite_temperature_rejected(self, temperature):
        """A NaN temperature would build an all-NaN table that always draws 0."""
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            SoftmaxOrderUpToPolicy(6.0, temperature, 10)

    @pytest.mark.parametrize("order_up_to", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_order_up_to_rejected(self, order_up_to):
        with pytest.raises(ValueError, match="order_up_to must be finite"):
            SoftmaxOrderUpToPolicy(order_up_to, 1.5, 10)


class TestTabularPolicy:
    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            TabularPolicy(((0.5, 0.4),))

    def test_batch_matches_scalar(self, rng):
        policy = TabularPolicy(((0.3, 0.7), (0.9, 0.1)))
        states = rng.integers(0, 2, size=(40, 1)).astype(float)
        actions = rng.integers(0, 2, size=40)
        batch = policy_probs(policy, states, actions)
        for i in range(40):
            assert batch[i] == policy.table[int(states[i, 0])][int(actions[i])]

    def test_continuous_states_truncate_to_rows(self):
        policy = TabularPolicy(((0.3, 0.7), (0.9, 0.1)))
        rows = policy.action_probs(np.array([[-0.5], [0.0], [0.99], [1.0], [1.7]]))
        assert rows.tolist() == [[0.3, 0.7], [0.3, 0.7], [0.3, 0.7], [0.9, 0.1], [0.9, 0.1]]

    @pytest.mark.parametrize("state", [-1.0, -3.5, 2.0, 2.5])
    def test_out_of_range_codes_rejected(self, state):
        """Codes -1 and below and S and above have no row to read."""
        policy = TabularPolicy(((0.3, 0.7), (0.9, 0.1)))
        states = np.array([[0.0], [state], [1.0]])
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            policy.action_probs(states)
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            policy_sample(policy, states, np.random.default_rng(0))

    def test_sample_frequencies(self, rng):
        policy = TabularPolicy(((0.25, 0.75),))
        draws = policy_sample(policy, np.zeros((20_000, 1)), rng)
        assert draws.mean() == pytest.approx(0.75, abs=0.02)

    def test_draw_above_row_total_takes_last_action(self):
        """A row may sum to 1 - 5e-10; a uniform above its CDF total draws the
        last action, never A."""
        policy = TabularPolicy(((0.5, 0.5 - 5e-10), (0.25, 0.75)))
        states = np.array([[0.0], [0.0], [0.0], [1.0]])
        u = [0.2, 0.75, 1 - 1e-10, 1 - 1e-10]
        assert policy_sample(policy, states, FixedUniforms(u)).tolist() == [0, 1, 1, 1]


class TestGenericHelpers:
    @pytest.mark.parametrize(
        "policy",
        [SoftmaxOrderUpToPolicy(6.0, 1.5, 10), TabularPolicy(((0.4, 0.6), (0.2, 0.8)))],
        ids=["softmax", "tabular"],
    )
    @pytest.mark.parametrize("action", [-1, 11])
    def test_out_of_range_actions_have_zero_prob(self, policy, action):
        states = np.array([[0.0], [1.0], [0.0]])
        probs = policy_probs(policy, states, np.array([0, action, 1]))
        assert probs[1] == 0.0
        assert probs[0] > 0.0 and probs[2] > 0.0

    def test_rows_are_distributions(self, rng):
        for policy in (
            SoftmaxOrderUpToPolicy(6.0, 1.5, 10),
            TabularPolicy(((0.4, 0.6), (0.2, 0.8))),
        ):
            rows = policy.action_probs(rng.integers(0, 2, size=(30, 1)).astype(float))
            assert (rows >= 0).all()
            assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12

    def test_sample_draws_are_fixed(self):
        # Draws and the generator state after them, recorded from the former
        # per-class samplers: the inverse-CDF draw consumes one rng.random(N).
        softmax = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
        rng = np.random.default_rng(5)
        draws = policy_sample(softmax, np.linspace(0.0, 10.0, 12)[:, None], rng)
        assert draws.dtype == np.int64
        assert draws.tolist() == [7, 6, 4, 3, 0, 1, 1, 0, 0, 9, 1, 0]
        assert rng.integers(0, 2**32) == 1212200381

        tabular = TabularPolicy(((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.05, 0.15, 0.8)))
        rng = np.random.default_rng(5)
        states = (np.arange(12) % 3).astype(float)[:, None] + 0.5
        draws = policy_sample(tabular, states, rng)
        assert draws.tolist() == [1, 2, 2, 0, 0, 2, 0, 0, 0, 2, 1, 2]
        assert rng.integers(0, 2**32) == 1212200381

    def test_policy_sample_gathers_from_its_own_tables(self):
        policy = SoftmaxOrderUpToPolicy(6.0, 1.5, 10)
        states = np.linspace(0.0, 10.0, 9)[:, None]
        probs = np.full(9, np.nan)
        draws = policy_sample(policy, states, np.random.default_rng(2), probs)
        want = policy_sample(policy, states, np.random.default_rng(2))
        assert draws.tolist() == want.tolist()
        assert probs.tobytes() == policy_probs(policy, states, draws).tobytes()
