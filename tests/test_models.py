import numpy as np
import pytest

from ope_ci.cpgen import generation_score_pairs
from ope_ci.envs import FiniteMdp, InventoryEnv
from ope_ci.errors import SingularDesign
from ope_ci.mdp import RolloutBatch, TrajectoryDataset
from ope_ci.models import (
    GaussianRegressionModel,
    OracleModel,
    RewardOffsetModel,
    _RIDGE,
    polynomial_features,
    solve_least_squares,
)
from ope_ci.policies import TabularPolicy

from oracles import column_stack_polynomial_features


class ConstantPolicy:
    """Always plays the same action; prob mass 1 on it."""

    def __init__(self, action=0):
        self.action = action

    def action_probs(self, states):
        rows = np.zeros((len(states), self.action + 1))
        rows[:, self.action] = 1.0
        return rows


def affine_dataset(rng, n_traj=40, length=6, noise=0.0):
    """Trajectories generated by s' = A s + b a + c + eps, r = w.(s, a) + eps."""
    A = np.array([[0.8, 0.1], [0.0, 0.9]])
    b = np.array([0.5, -0.25])
    c = np.array([0.1, 0.2])
    w = np.array([1.0, -2.0, 0.5])
    states, actions, rewards = [], [], []
    for _ in range(n_traj):
        s = rng.normal(size=2)
        states.append([])
        actions.append([])
        rewards.append([])
        for _ in range(length):
            a = int(rng.integers(0, 3))
            r = float(w @ np.array([s[0], s[1], a]) + noise * rng.standard_normal())
            states[-1].append(s)
            actions[-1].append(a)
            rewards[-1].append(r)
            s = A @ s + b * a + c + noise * rng.standard_normal(2)
    batch = RolloutBatch.pad(states, actions, rewards)
    return TrajectoryDataset(batch, 1.0, length), (A, b, c, w)


class TestPolynomialFeatures:
    def test_degree_one_layout(self):
        feats = polynomial_features(np.array([[2.0]]), np.array([3]), 1)
        assert list(feats[0]) == [1.0, 2.0, 3.0]

    def test_degree_two_layout(self):
        feats = polynomial_features(np.array([[2.0]]), np.array([3]), 2)
        assert list(feats[0]) == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rows", [0, 1, 50])
    @pytest.mark.parametrize("action", ["array", "scalar"])
    def test_one_array_equals_column_stack(self, degree, d, rows, action):
        rng = np.random.default_rng(10 * degree + d)
        states = rng.normal(size=(rows, d))
        actions = rng.integers(0, 11, size=rows) if action == "array" else 3
        got = polynomial_features(states, actions, degree)
        want = column_stack_polynomial_features(states, actions, degree)
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert got.shape == want.shape and np.array_equal(got, want)


class TestSolveFromRFactor:
    """Given the design's row count M, ``solve_least_squares`` on the top p
    rows of the R factor of [X | Y] solves the problem of X itself, on the
    ``lstsq`` branch and on the ridge branch alike."""

    @staticmethod
    def r_factor(X, Y):
        p = X.shape[1]
        R = np.linalg.qr(np.column_stack([X, Y]), mode="r")
        return R[:p, :p], R[:p, p:]

    def test_inventory_design_matches_lstsq(self, inventory_env, inventory_policies):
        behavior, _ = inventory_policies
        data = inventory_env.sample_dataset(behavior, 200, np.random.default_rng(51), 1.0)
        states, actions, rewards, next_states, _ = data.batch.flatten()
        X = polynomial_features(states, actions, 2)
        Y = np.column_stack([rewards, next_states])
        R11, R12 = self.r_factor(X, Y)
        np.testing.assert_allclose(
            solve_least_squares(R11, R12, rows=len(X)),
            np.linalg.lstsq(X, Y, rcond=None)[0],
            rtol=1e-10, atol=0,
        )

    def test_rank_tolerance_counts_the_design_rows(self):
        """sigma_min / sigma_max = 1e-13 lies between eps * p and eps * M, so
        X is rank-deficient at numpy's tolerance and R11 alone is not."""
        rng = np.random.default_rng(52)
        M, p = 20_000, 6
        U = np.linalg.qr(rng.standard_normal((M, p)))[0]
        V = np.linalg.qr(rng.standard_normal((p, p)))[0]
        X = (U * np.geomspace(1e-2, 1e-15, p)) @ V.T
        Y = rng.standard_normal((M, 2))
        sigma = np.linalg.svd(X, compute_uv=False)
        eps = np.finfo(float).eps
        assert eps * p < sigma[-1] / sigma[0] < eps * M
        R11, R12 = self.r_factor(X, Y)
        ridge = np.linalg.solve(X.T @ X + _RIDGE * np.eye(p), X.T @ Y)
        np.testing.assert_allclose(solve_least_squares(X, Y), ridge, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            solve_least_squares(R11, R12, rows=M), ridge, rtol=1e-10, atol=0
        )
        # Without the row count R11 reads as full rank and takes lstsq.
        assert not np.allclose(solve_least_squares(R11, R12), ridge, rtol=1e-3)


class TestGaussianRegressionFit:
    def test_exact_recovery_of_affine_map(self, rng):
        dataset, (A, b, c, w) = affine_dataset(rng, noise=0.0)
        model = GaussianRegressionModel(degree=1).fit(dataset)
        # features are [1, s1, s2, a]; state coef rows follow that order
        expected_state = np.vstack([c, A.T, b[None, :]])
        assert np.allclose(model._state_coef, expected_state, atol=1e-8)
        assert np.allclose(model._reward_coef, [0.0, *w], atol=1e-8)
        assert model._state_scale.max() <= 1e-8
        assert model._reward_scale <= 1e-8

    def test_consistency_under_noise(self, rng):
        dataset, (A, b, c, w) = affine_dataset(rng, n_traj=400, length=25, noise=0.1)
        model = GaussianRegressionModel(degree=1).fit(dataset)
        expected_state = np.vstack([c, A.T, b[None, :]])
        assert np.abs(model._state_coef - expected_state).max() < 0.02
        assert np.abs(model._reward_coef - np.array([0.0, *w])).max() < 0.02
        assert np.abs(model._state_scale - 0.1).max() < 0.02

    def test_fewer_rows_than_features_engages_ridge(self, rng):
        dataset, _ = affine_dataset(rng, n_traj=1, length=3)
        model = GaussianRegressionModel(degree=2).fit(dataset)  # 15 features, 2 rows
        assert model.fitted  # ridge fallback rather than an exception

    def test_no_dynamics_rows_raises(self):
        dataset = TrajectoryDataset(RolloutBatch.pad([[[0.0]]], [[0]], [[1.0]]), 1.0, 1)
        with pytest.raises(SingularDesign):
            GaussianRegressionModel().fit(dataset)

    def test_unfitted_rollout_rejected(self, rng):
        model = GaussianRegressionModel()
        with pytest.raises(SingularDesign):
            model.rollout_batch(ConstantPolicy(), np.zeros((1, 2)), 3, rng)


class TestGaussianRegressionRollout:
    def test_initial_state_conditioning(self, rng):
        dataset, _ = affine_dataset(rng)
        model = GaussianRegressionModel(degree=1).fit(dataset)
        starts = np.array([[0.0, 0.0], [2.5, -1.0]])
        batch = model.rollout_batch(ConstantPolicy(), starts, 4, np.random.default_rng(0))
        assert np.array_equal(batch.states[:, 0], starts)

    def test_zero_residual_scale_is_deterministic_across_seeds(self, rng):
        dataset, _ = affine_dataset(rng, noise=0.0)
        model = GaussianRegressionModel(degree=1).fit(dataset)
        starts = np.ones((1, 2))
        b1 = model.rollout_batch(ConstantPolicy(1), starts, 5, np.random.default_rng(1))
        b2 = model.rollout_batch(ConstantPolicy(1), starts, 5, np.random.default_rng(2))
        assert np.allclose(b1.states, b2.states, rtol=0, atol=1e-12)
        assert np.allclose(b1.rewards, b2.rewards, rtol=0, atol=1e-12)

    def test_state_box_clamps_generated_states(self, rng):
        env = InventoryEnv()
        from ope_ci.envs import inventory_policy_pair

        behavior, _ = inventory_policy_pair()
        dataset = env.sample_dataset(behavior, 40, rng)
        model = GaussianRegressionModel(degree=2, state_box=env.state_box).fit(dataset)
        batch = model.rollout_batch(
            behavior, env.sample_initial_states(rng, 200), 20, rng
        )
        assert batch.states.min() >= 0.0
        assert batch.states.max() <= 10.0

    def test_one_step_error_shrinks_with_data(self):
        # predictive mean error should drop as the dataset grows
        errs = []
        for n_traj in (30, 300):
            fit_rng = np.random.default_rng(7)
            dataset, (A, b, c, _) = affine_dataset(fit_rng, n_traj=n_traj, noise=0.05)
            model = GaussianRegressionModel(degree=1).fit(dataset)
            probe = np.random.default_rng(8).normal(size=(256, 2))
            acts = np.random.default_rng(9).integers(0, 3, size=256)
            feats = polynomial_features(probe, acts, 1)
            predicted = feats @ model._state_coef
            truth = probe @ A.T + acts[:, None] * b[None, :] + c
            errs.append(float(np.abs(predicted - truth).mean()))
        assert errs[1] < 0.7 * errs[0]


class TestOracleModel:
    def test_rollout_matches_env_simulation(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        R = np.arange(4, dtype=float).reshape(2, 1, 2)
        mdp = FiniteMdp(P, R, np.array([1.0, 0.0]), horizon=3)
        policy = TabularPolicy(((1.0,), (1.0,)))
        model = OracleModel(mdp).fit(None)
        want = mdp.rollout_batch(policy, np.array([[0.0]]), 3, np.random.default_rng(4))
        got = model.rollout_batch(policy, np.array([[0.0]]), 3, np.random.default_rng(4))
        for name in ("states", "actions", "rewards", "lengths"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestRewardOffsetModel:
    def test_offset_added_per_step(self, rng):
        env = InventoryEnv()
        from ope_ci.envs import inventory_policy_pair

        behavior, _ = inventory_policy_pair()
        base = OracleModel(env)
        biased = RewardOffsetModel(base, 3.5)
        b1 = base.rollout_batch(behavior, np.full((4, 1), 5.0), 6, np.random.default_rng(2))
        b2 = biased.rollout_batch(behavior, np.full((4, 1), 5.0), 6, np.random.default_rng(2))
        assert np.allclose(b2.rewards - b1.rewards, 3.5)


class TestPairedGeneration:
    """Score pairs join each real trajectory to model rollouts from its own
    initial state, in (trajectory, rollout) order."""

    def test_counting_and_conditioning_contract(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        reals = mdp.sample_dataset(behavior, 3, rng)
        pairs = generation_score_pairs(
            OracleModel(mdp), behavior, behavior, reals, 2, rng
        )
        assert len(pairs) == 6
        for i, start in enumerate(reals.batch.states[:, 0]):
            for m in range(2):
                assert tuple(pairs.states[i * 2 + m]) == tuple(start)

    def test_fixed_seed_reproduces_pair_set(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        reals = mdp.sample_dataset(behavior, 3, np.random.default_rng(0))
        p1 = generation_score_pairs(
            OracleModel(mdp), behavior, target, reals, 3, np.random.default_rng(9)
        )
        p2 = generation_score_pairs(
            OracleModel(mdp), behavior, target, reals, 3, np.random.default_rng(9)
        )
        assert len(p1) == len(p2)
        for a, b in zip((p1.states, p1.scores, p1.ratios), (p2.states, p2.scores, p2.ratios)):
            assert np.array_equal(a, b)

    def test_oracle_model_identical_returns_on_flat_env(self, flat_reward_mdp, rng):
        # action-independent rewards: generated return equals real return
        mdp, behavior, _ = flat_reward_mdp
        reals = mdp.sample_dataset(behavior, 4, rng)
        pairs = generation_score_pairs(
            OracleModel(mdp), behavior, behavior, reals, 1, rng
        )
        assert pairs.scores.tolist() == [0.0] * 4
