import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ope_ci.envs import (
    FiniteMdp,
    InventoryEnv,
    InventoryParams,
    inventory_step,
    monte_carlo_value,
    oracle_value,
    small_finite_mdp,
)
from ope_ci.policies import SoftmaxOrderUpToPolicy, TabularPolicy, policy_sample

from oracles import dp_policy_value, enumerate_trajectories, path_walk_value, prob


class TestInventoryStep:
    def test_default_parameters_exact(self):
        p = InventoryParams()
        assert (
            p.capacity,
            p.fixed_order_cost,
            p.unit_cost,
            p.holding_cost,
            p.unit_price,
            p.demand_mean,
            p.demand_sd,
            p.horizon,
            p.reward_scale,
        ) == (10, 1.0, 2.0, 2.0, 4.0, 5.0, 1.0, 20, 100.0)

    def test_hand_derived_transition(self):
        x_next, _ = inventory_step(5.0, 3, 4.0, InventoryParams())
        assert x_next == 4.0

    def test_hand_derived_reward(self):
        # 100 * (-1 - 2*5 - 2*(8-5) + 4*(8-4)) = 100 * (-1 - 10 - 6 + 16) = -100
        _, reward = inventory_step(5.0, 3, 4.0, InventoryParams())
        assert reward == -100.0

    def test_empty_store_no_order(self):
        x_next, reward = inventory_step(0.0, 0, 7.0, InventoryParams())
        assert (x_next, reward) == (0.0, 0.0)

    def test_negative_stock_rejected(self):
        with pytest.raises(ValueError):
            inventory_step(-1.0, 0, 1.0, InventoryParams())

    @given(
        st.floats(0.0, 10.0),
        st.integers(0, 10),
        st.floats(0.0, 25.0),
    )
    def test_state_stays_in_box_for_nonnegative_demand(self, x, a, demand):
        x_next, _ = inventory_step(x, a, demand, InventoryParams())
        assert 0.0 <= x_next <= 10.0

    @given(
        st.floats(0.0, 10.0),
        st.integers(0, 10),
        st.floats(0.0, 20.0),
    )
    def test_reward_bounded_for_bounded_demand(self, x, a, demand):
        p = InventoryParams()
        _, reward = inventory_step(x, a, demand, p)
        # crude envelope: revenue at most price*capacity, costs at most
        # fixed + holding*capacity + unit*capacity, all scaled
        bound = p.reward_scale * (
            p.unit_price * p.capacity
            + p.fixed_order_cost
            + p.holding_cost * p.capacity
            + p.unit_cost * p.capacity
        )
        assert abs(reward) <= bound


class TestInventoryEnv:
    def test_trajectory_has_full_horizon(self, inventory_env, inventory_policies, rng):
        behavior, _ = inventory_policies
        ds = inventory_env.sample_dataset(behavior, 3, rng)
        assert ds.batch.lengths.tolist() == [inventory_env.horizon] * 3
        assert [len(traj) for traj in ds] == [inventory_env.horizon] * 3

    def test_same_seed_same_trajectory(self, inventory_env, inventory_policies):
        behavior, _ = inventory_policies
        d1 = inventory_env.sample_dataset(behavior, 2, np.random.default_rng(5))
        d2 = inventory_env.sample_dataset(behavior, 2, np.random.default_rng(5))
        assert list(d1) == list(d2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_trajectory_rejected(self, inventory_env, inventory_policies, n):
        # -1 surfaced as numpy's "negative dimensions are not allowed"
        behavior, _ = inventory_policies
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            inventory_env.sample_dataset(behavior, n, np.random.default_rng(0))

    def test_near_deterministic_demand_matches_hand_rollout(self, inventory_env):
        # sigma -> 0 with a single-action policy: dynamics reduce to the
        # deterministic recursion x' = max(0, min(N, x+a) - mu)
        params = InventoryParams(demand_sd=1e-12)
        env = InventoryEnv(params)
        policy = SoftmaxOrderUpToPolicy(order_up_to=6.0, temperature=1e-9, capacity=10)
        (traj,) = env.sample_dataset(policy, 1, np.random.default_rng(0))
        x = traj.initial_state[0]
        for tr in traj:
            a = int(round(max(0.0, 6.0 - x)))
            assert tr.action == a
            expected_next, expected_reward = inventory_step(x, a, 5.0, params)
            assert tr.reward == pytest.approx(expected_reward, abs=1e-6)
            x = expected_next

    def test_step_batch_matches_inventory_step(self):
        """Row by row and bit for bit, over stock, orders past capacity and
        demand above the stock."""
        params = InventoryParams()
        rng = np.random.default_rng(17)
        stock = rng.uniform(0.0, 10.0, size=1000)
        actions = rng.integers(0, 11, size=1000)
        x_next, rewards = InventoryEnv(params).step_batch(
            stock[:, None], actions, np.random.default_rng(18)
        )
        demand = np.random.default_rng(18).normal(params.demand_mean, params.demand_sd, 1000)
        stocked = np.minimum(params.capacity, stock + actions)
        assert (stock + actions > params.capacity).any() and (demand > stocked).any()
        want = np.array(
            [inventory_step(x, int(a), d, params) for x, a, d in zip(stock, actions, demand)]
        )
        got = np.column_stack([x_next[:, 0], rewards])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_initial_states_cover_the_box(self, inventory_env, rng):
        starts = inventory_env.sample_initial_states(rng, 500)
        assert starts.shape == (500, 1)
        assert starts.min() >= 0.0 and starts.max() <= 10.0


class TestFiniteMdp:
    def test_transition_rows_validated(self):
        P = np.array([[[0.5, 0.4]]])  # sums to 0.9
        with pytest.raises(ValueError):
            FiniteMdp(P, np.zeros((1, 1, 2)), np.array([1.0, 0.0]), horizon=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_reward_rejected(self, bad):
        # even on a transition of probability zero: exact values multiply
        # every cell, and 0 * inf is nan
        P = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        R = np.zeros((2, 1, 2))
        R[0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FiniteMdp(P, R, np.array([1.0, 0.0]), horizon=2)

    def test_deterministic_single_action_chain(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        R = np.ones((2, 1, 2))
        mdp = FiniteMdp(P, R, np.array([1.0, 0.0]), horizon=3)
        policy = TabularPolicy(((1.0,), (1.0,)))
        (traj,) = mdp.sample_dataset(policy, 1, np.random.default_rng(0))
        assert [int(t.state[0]) for t in traj] == [0, 1, 0]
        assert list(traj.rewards()) == [1.0, 1.0, 1.0]

    def test_absorbing_state_ends_trajectory(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 1] = 1.0
        mdp = FiniteMdp(
            P, np.zeros((2, 1, 2)), np.array([1.0, 0.0]), horizon=3,
            absorbing=frozenset({1}),
        )
        policy = TabularPolicy(((1.0,), (1.0,)))
        ds = mdp.sample_dataset(policy, 4, np.random.default_rng(0))
        assert ds.batch.lengths.tolist() == [1, 1, 1, 1]
        assert ds.returns().tolist() == [0.0] * 4

    def test_sampled_path_frequencies_match_enumeration(self, finite_fixture):
        # chi-square sanity on full-path frequencies at 1e5 samples
        mdp, behavior, _ = finite_fixture

        def signature(traj):
            # rewards disambiguate the final next state, which (s, a) alone
            # cannot
            return tuple(
                (int(t.state[0]), t.action, round(t.reward, 9))
                for t in traj.transitions
            )

        grouped: dict = {}
        for traj, prob in enumerate_trajectories(mdp, behavior):
            sig = signature(traj)
            grouped[sig] = grouped.get(sig, 0.0) + prob
        keys = {sig: i for i, sig in enumerate(grouped)}
        probs = np.array(list(grouped.values()))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

        n = 100_000
        batch = mdp.rollout_batch(
            behavior, mdp.sample_initial_states(np.random.default_rng(2), n),
            mdp.horizon, np.random.default_rng(3),
        )
        counts = np.zeros(len(keys))
        for i in range(n):
            counts[keys[signature(batch.trajectory(i))]] += 1
        expected = probs * n
        mask = expected >= 5
        chi2 = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        dof = int(mask.sum()) - 1
        # 99.99% chi-square quantile approximation (Wilson-Hilferty)
        z = 3.719
        bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
        assert chi2 < bound


class TestOracleValue:
    def test_degenerate_chain_value(self):
        P = np.ones((1, 1, 1))
        R = np.ones((1, 1, 1))
        mdp = FiniteMdp(P, R, np.array([1.0]), horizon=3)
        policy = TabularPolicy(((1.0,),))
        assert oracle_value(mdp, policy, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_matches_backward_induction_oracle(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        for policy in (behavior, target):
            for gamma in (0.9, 1.0):
                assert oracle_value(mdp, policy, gamma) == pytest.approx(
                    dp_policy_value(mdp, policy, gamma), abs=1e-10
                )

    def test_antisymmetric_rewards_cancel(self):
        # two mirror states, uniform policy, rewards antisymmetric under swap
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 0.5
        P[:, :, 1] = 0.5
        R = np.zeros((2, 2, 2))
        R[0, :, :] = 1.0
        R[1, :, :] = -1.0
        mdp = FiniteMdp(P, R, np.array([0.5, 0.5]), horizon=2)
        policy = TabularPolicy(((0.5, 0.5), (0.5, 0.5)))
        assert oracle_value(mdp, policy, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_enumeration_budget(self):
        # (S * A) ** horizon = 32 ** 4 paths, above the former 1e6 path budget
        S, A = 8, 4
        P = np.full((S, A, S), 1.0 / S)
        R = np.full((S, A, S), 2.0)
        mdp = FiniteMdp(P, R, np.full(S, 1.0 / S), horizon=4)
        policy = TabularPolicy(tuple((0.25,) * A for _ in range(S)))
        assert oracle_value(mdp, policy, 0.5) == pytest.approx(
            2.0 * (1 + 0.5 + 0.25 + 0.125), rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_matches_path_walk_on_fixture(self, finite_fixture, gamma):
        mdp, behavior, target = finite_fixture
        for policy in (behavior, target):
            assert oracle_value(mdp, policy, gamma) == pytest.approx(
                path_walk_value(mdp, policy, gamma), rel=1e-12
            )
            for s in range(mdp.state_count):
                assert oracle_value(mdp, policy, gamma, (float(s),)) == pytest.approx(
                    path_walk_value(mdp, policy, gamma, (float(s),)), rel=1e-12
                )

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_matches_path_walk_on_random_absorbing_mdps(self, gamma):
        rng = np.random.default_rng(7)
        for _ in range(20):
            S, A = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            P = rng.dirichlet(np.ones(S), size=(S, A))
            P[rng.random((S, A, S)) < 0.3] = 0.0  # prune some branches
            P[..., 0] += 1e-3
            P /= P.sum(axis=2, keepdims=True)
            R = rng.normal(size=(S, A, S))
            absorbing = frozenset({S - 1})
            d0 = np.append(rng.dirichlet(np.ones(S - 1)), 0.0)
            mdp = FiniteMdp(P, R, d0, int(rng.integers(1, 5)), absorbing)
            policy = TabularPolicy(tuple(map(tuple, rng.dirichlet(np.ones(A), size=S))))
            assert oracle_value(mdp, policy, gamma) == pytest.approx(
                path_walk_value(mdp, policy, gamma), rel=1e-12, abs=1e-14
            )
            for s in range(S):
                assert oracle_value(mdp, policy, gamma, (float(s),)) == pytest.approx(
                    path_walk_value(mdp, policy, gamma, (float(s),)), rel=1e-12, abs=1e-14
                )

    def test_initial_state_out_of_range_rejected(self, finite_fixture):
        mdp, _, target = finite_fixture
        for s in (-1.0, 3.0):
            with pytest.raises(ValueError, match="outside"):
                oracle_value(mdp, target, 1.0, (s,))


class TestMonteCarloValue:
    def test_deterministic_env_zero_se(self):
        P = np.ones((1, 1, 1))
        R = np.full((1, 1, 1), 2.0)
        mdp = FiniteMdp(P, R, np.array([1.0]), horizon=2)
        policy = TabularPolicy(((1.0,),))
        mean, se = monte_carlo_value(mdp, policy, 50, np.random.default_rng(0))
        assert mean == 4.0 and se == 0.0

    def test_within_4se_of_oracle(self, finite_fixture, rng):
        mdp, _, target = finite_fixture
        truth = oracle_value(mdp, target, 0.9)
        mean, se = monte_carlo_value(mdp, target, 40_000, rng, discount=0.9)
        assert abs(mean - truth) <= 4 * se

    def test_se_shrinks_like_root_n(self, finite_fixture):
        mdp, behavior, _ = finite_fixture
        ratios = []
        for seed in range(6):
            _, se_small = monte_carlo_value(
                mdp, behavior, 4000, np.random.default_rng(seed), discount=0.9
            )
            _, se_big = monte_carlo_value(
                mdp, behavior, 8000, np.random.default_rng(100 + seed), discount=0.9
            )
            ratios.append(se_big / se_small)
        assert 0.6 <= float(np.mean(ratios)) <= 0.82

    def test_fixed_initial_state_conditioning(self, finite_fixture, rng):
        mdp, _, target = finite_fixture
        truth = oracle_value(mdp, target, 0.9, initial_state=(1.0,))
        mean, se = monte_carlo_value(
            mdp, target, 30_000, rng, discount=0.9, initial_state=(1.0,)
        )
        assert abs(mean - truth) <= 4 * se


class TestDefaultPolicies:
    def test_probabilities_sum_to_one(self, inventory_policies):
        behavior, target = inventory_policies
        for policy in (behavior, target):
            for x in (0.0, 3.7, 6.0, 10.0):
                total = sum(prob(policy, (x,), a) for a in range(11))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_support_is_positive_everywhere_sampled(self, inventory_policies, rng):
        behavior, target = inventory_policies
        for _ in range(200):
            x = float(rng.uniform(0, 10))
            a = int(policy_sample(behavior, np.array([[x]]), rng)[0])
            assert prob(behavior, (x,), a) > 0
            assert prob(target, (x,), a) > 0

    def test_policies_genuinely_differ(self, inventory_env, inventory_policies):
        behavior, target = inventory_policies
        vb, seb = monte_carlo_value(
            inventory_env, behavior, 20_000, np.random.default_rng(1)
        )
        vt, set = monte_carlo_value(
            inventory_env, target, 20_000, np.random.default_rng(2)
        )
        assert vt - vb > 10 * math.hypot(seb, set)


def traced_peak_mb(fn) -> float:
    """Peak traced allocation of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_linear_in_rollouts(inventory_env, inventory_policies):
    """100k inventory rollouts peaked at 78 MB when the ground truth recorded
    the (rollouts, horizon) batch; the fold keeps a few (rollouts,) arrays."""
    _, target = inventory_policies
    peak = traced_peak_mb(
        lambda: monte_carlo_value(inventory_env, target, 100_000, np.random.default_rng(0))
    )
    assert peak < 16.0
