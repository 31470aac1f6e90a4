import math
import tracemalloc

import numpy as np
import pytest

from ope_ci.baselines import (
    FittedQSpec,
    PolynomialQ,
    _expected_features,
    aug_is_baseline,
    dm_baseline,
    dr_baseline,
    fit_q,
    is_baseline,
    stepwise_dr_values,
)
from ope_ci.envs import inventory_policy_pair, oracle_value
from ope_ci.models import GaussianRegressionModel, OracleModel, RewardOffsetModel
from ope_ci.policies import TabularPolicy
from ope_ci.reweighting import (
    ClipPolicy,
    CorrectionKind,
    clt_interval,
    pdis_returns,
    step_ratio_table,
)

from oracles import (
    ZeroQ,
    one_table_expected_features,
    one_table_moment_features,
    per_sweep_fit_q,
    prob,
)


class TestIsBaseline:
    def test_identity_policy_equals_plain_return_interval(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        data = mdp.sample_dataset(behavior, 60, rng, 0.9)
        ci = is_baseline(data, behavior, behavior, 0.05)
        want = clt_interval(data.returns(), 0.05)
        assert ci == want

    def test_clt_coverage_on_finite_oracle(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        truth = oracle_value(mdp, target, 0.9)
        covered = 0
        trials = 500
        for seed in range(trials):
            data = mdp.sample_dataset(
                behavior, 500, np.random.default_rng(seed), 0.9
            )
            ci = is_baseline(data, behavior, target, 0.05, clip=ClipPolicy.off())
            covered += ci.contains(truth)
        assert covered / trials >= 0.92

    def test_bootstrap_bound_deterministic(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 40, np.random.default_rng(0), 0.9)
        c1 = is_baseline(data, behavior, target, 0.1, bound="bootstrap",
                         rng=np.random.default_rng(1))
        c2 = is_baseline(data, behavior, target, 0.1, bound="bootstrap",
                         rng=np.random.default_rng(1))
        assert c1 == c2


class TestAugIsBaseline:
    def test_zero_synth_identical_to_is(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 40, np.random.default_rng(2), 0.9)
        base = is_baseline(data, behavior, target, 0.1, bound="bootstrap",
                           rng=np.random.default_rng(7))
        augmented = aug_is_baseline(
            data, OracleModel(mdp), behavior, target, 0, 0.1, "bootstrap",
            rng=np.random.default_rng(7),
        )
        assert augmented == base

    @pytest.mark.parametrize("bound", ["clt", "bootstrap"])
    def test_default_starts_are_the_dataset_sampler(
        self, inventory_env, inventory_policies, bound
    ):
        behavior, target = inventory_policies
        data = inventory_env.sample_dataset(behavior, 40, np.random.default_rng(3))
        model = GaussianRegressionModel(state_box=inventory_env.state_box).fit(data)
        got, want = (
            aug_is_baseline(
                data, model, behavior, target, 100, 0.1, bound, n_boot=200,
                rng=np.random.default_rng(8), d0_sampler=d0,
            )
            for d0 in (None, data.sample_initial_states)
        )
        assert got == want

    def test_unbiased_model_keeps_nominal_coverage(self, finite_fixture):
        mdp, behavior, _ = finite_fixture
        truth = oracle_value(mdp, behavior, 0.9)
        covered = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            data = mdp.sample_dataset(behavior, 200, rng, 0.9)
            ci = aug_is_baseline(
                data, OracleModel(mdp), behavior, behavior, 400, 0.05,
                rng=rng, d0_sampler=mdp.sample_initial_states,
            )
            covered += ci.contains(truth)
        assert covered / trials >= 0.88

    def test_biased_model_drags_the_pooled_center(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        truth = oracle_value(mdp, behavior, 0.9)
        offset_per_step = 0.5
        biased = RewardOffsetModel(OracleModel(mdp), offset_per_step)
        data = mdp.sample_dataset(behavior, 50, rng, 0.9)
        ci = aug_is_baseline(
            data, biased, behavior, behavior, 50 * 20, 0.05,
            rng=rng, d0_sampler=mdp.sample_initial_states,
        )
        # the pooled mean sits near truth + offset-induced return shift
        shift = offset_per_step * sum(0.9**t for t in range(mdp.horizon))
        assert ci.point > truth + 0.5 * shift


class TestDmBaseline:
    def test_oracle_model_centers_near_truth(self, finite_fixture, rng):
        mdp, _, target = finite_fixture
        truth = oracle_value(mdp, target, 0.9)
        ci = dm_baseline(
            OracleModel(mdp), target, mdp.sample_initial_states, 2000,
            0.05, rng, mdp.horizon, 0.9,
        )
        assert ci.contains(truth)

    def test_deterministic_fixture_zero_width(self, flat_reward_mdp, rng):
        mdp, behavior, _ = flat_reward_mdp
        ci = dm_baseline(
            OracleModel(mdp), behavior, mdp.sample_initial_states, 500,
            0.05, rng, mdp.horizon, 1.0,
        )
        assert ci.lower == ci.upper == 2.0

    def test_biased_model_centers_off_truth(self, finite_fixture, rng):
        mdp, _, target = finite_fixture
        truth = oracle_value(mdp, target, 0.9)
        biased = RewardOffsetModel(OracleModel(mdp), 1.0)
        ci = dm_baseline(
            biased, target, mdp.sample_initial_states, 2000, 0.05, rng,
            mdp.horizon, 0.9,
        )
        assert not ci.contains(truth)
        assert ci.point > truth


class TestFittedQ:
    @pytest.mark.parametrize(
        "clip, n", [(ClipPolicy.on(), 50), (ClipPolicy(), 200)], ids=["on-n50", "auto-n200"]
    )
    def test_zero_q_reduces_stepwise_dr_to_pdis_bitwise(self, finite_fixture, rng, clip, n):
        mdp, behavior, _ = finite_fixture
        # far enough from the behavior policy that some prefixes pass sqrt(n)
        target = TabularPolicy(((0.02, 0.98),) * 3)
        data = mdp.sample_dataset(behavior, n, rng, 0.9)
        ratios, _, lengths = step_ratio_table(data, target, behavior)
        mask = np.arange(ratios.shape[1]) < lengths[:, None]
        assert (np.cumprod(ratios, axis=1)[mask] > clip.threshold(n)).any()
        dr_values = stepwise_dr_values(data, target, behavior, ZeroQ(), clip)
        assert np.array_equal(dr_values, pdis_returns(data, target, behavior, clip))

    def test_zero_q_baseline_identical_to_pdis_clt(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 50, rng, 0.9)
        ci_dr = dr_baseline(data, behavior, target, 0.05, q=ZeroQ())
        ci_pdis = is_baseline(data, behavior, target, 0.05, CorrectionKind.PDIS)
        assert ci_dr == ci_pdis

    def test_fit_q_recovers_rewards_on_flat_mdp(self, flat_reward_mdp, rng):
        # flat unit rewards, horizon 2, gamma 1: Q(terminal) = 1, else 2
        mdp, behavior, target = flat_reward_mdp
        data = mdp.sample_dataset(behavior, 60, rng, 1.0)
        q = fit_q(data, target, FittedQSpec(degree=1, sweeps=1))
        states = np.zeros((1, 1))
        acts = np.zeros(1)
        assert q.q_values(states, acts)[0] == pytest.approx(1.0, abs=1e-6)

    def test_exact_q_lowers_variance_below_pdis(self, finite_fixture):
        # with the backward-induction Q plugged in, per-trajectory stepwise
        # DR values should spread less than raw per-decision values
        mdp, behavior, target = finite_fixture
        gamma = 0.9

        q_table = np.zeros((mdp.horizon + 1, mdp.state_count, mdp.action_count))
        v_table = np.zeros((mdp.horizon + 1, mdp.state_count))
        for t in range(mdp.horizon - 1, -1, -1):
            for s in range(mdp.state_count):
                for a in range(mdp.action_count):
                    q_table[t, s, a] = float(
                        mdp.transition_probs[s, a]
                        @ (mdp.rewards[s, a] + gamma * v_table[t + 1])
                    )
                v_table[t, s] = sum(
                    prob(target, (float(s),), a) * q_table[t, s, a]
                    for a in range(mdp.action_count)
                )

        class TimeAveragedExactQ:
            """Stationary stand-in: averages the exact Q over timesteps."""

            def q_values(self, states, actions):
                idx = np.asarray(states, dtype=float).reshape(len(actions), -1)[:, 0]
                acts = np.asarray(actions, dtype=int)
                return q_table[:-1, idx.astype(int), acts].mean(axis=0)

            def expected_q(self, states, policy):
                idx = np.asarray(states, dtype=float).reshape(-1)
                out = np.zeros(idx.shape[0])
                for a in range(mdp.action_count):
                    probs = np.array(
                        [prob(policy, (float(s),), a) for s in idx.astype(int)]
                    )
                    out += probs * q_table[:-1, idx.astype(int), a].mean(axis=0)
                return out

        data = mdp.sample_dataset(behavior, 500, np.random.default_rng(3), gamma)
        clip = ClipPolicy.off()
        dr_vals = stepwise_dr_values(data, target, behavior, TimeAveragedExactQ(), clip)
        pdis_vals = pdis_returns(data, target, behavior, clip)
        assert dr_vals.var(ddof=1) < pdis_vals.var(ddof=1)

    def test_identity_policy_flat_env_values_constant(self, flat_reward_mdp, rng):
        # target = behavior on the flat fixture with the exact Q: every
        # per-trajectory DR value telescopes to the true value exactly
        mdp, behavior, _ = flat_reward_mdp

        class ExactFlatQ:
            # horizon 2, unit rewards: stationary average Q = 1.5
            def q_values(self, states, actions):
                return np.full(len(actions), 1.5)

            def expected_q(self, states, policy):
                return np.full(np.asarray(states).shape[0], 1.5)

        data = mdp.sample_dataset(behavior, 20, rng, 1.0)
        values = stepwise_dr_values(data, behavior, behavior, ExactFlatQ(), ClipPolicy.off())
        # rho = 1 throughout: v = [r1 - 1.5 + 1.5] + [r2 - 1.5 + 1.5] = 2
        assert np.allclose(values, 2.0)

    def test_augmentation_feeds_q_fit_only(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 40, np.random.default_rng(5), 0.9)
        plain = dr_baseline(data, behavior, target, 0.05,
                            rng=np.random.default_rng(6))
        biased_model = RewardOffsetModel(OracleModel(mdp), 5.0)
        augmented = dr_baseline(
            data, behavior, target, 0.05,
            augment=(biased_model, 400), rng=np.random.default_rng(6),
        )
        # a very biased Q-fit changes the interval, but both stay finite
        assert augmented != plain
        assert math.isfinite(augmented.lower) and math.isfinite(augmented.upper)

    def test_negative_synthetic_count_rejected(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 10, rng, 0.9)
        with pytest.raises(ValueError, match="n_synth must be at least 0, got -3"):
            dr_baseline(data, behavior, target, 0.05, augment=(OracleModel(mdp), -3), rng=rng)
        with pytest.raises(ValueError, match="n_synth must be at least 0, got -5"):
            aug_is_baseline(data, OracleModel(mdp), behavior, target, -5, 0.05, rng=rng)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("rows", [1, 8192, 8193, 20_001])
def test_blocked_expected_features_equal_one_table(rows, degree):
    """Fitted Q builds its expected features from action moments taken from
    the action table in blocks of at most ``_TABLE_ROWS`` rows; they equal
    those of one table bit for bit, and the per-action sum of features to
    rounding (the moment form drops sum_a prob(a | s) * 1 and
    sum_a prob(a | s) * s, which equal 1 and s only to rounding)."""
    _, target = inventory_policy_pair()
    states = np.random.default_rng(rows).uniform(-3.0, 14.0, size=(rows, 1))
    got = _expected_features(states, target, degree)
    assert np.array_equal(got, one_table_moment_features(states, target, degree))
    np.testing.assert_allclose(
        got, one_table_expected_features(states, target, degree), rtol=1e-13, atol=0
    )


def test_fit_q_memory_does_not_grow_with_synthetic_rollouts(inventory_env, inventory_policies):
    """fit_q folds fixed-size blocks of rows into an R factor, so its peak
    traced allocation above its inputs is the same at 4,000 and 16,000
    synthetic rollouts (the full-height design of 16,000 would take 15 MB)."""
    behavior, target = inventory_policies
    data = inventory_env.sample_dataset(behavior, 20, np.random.default_rng(41), 1.0)
    rng = np.random.default_rng(42)
    starts = data.initial_states()[rng.integers(0, len(data), size=16_000)]
    model = OracleModel(inventory_env)
    peaks = []
    for synthetic in (
        model.rollout_batch(target, starts[:4_000], data.horizon, rng),
        model.rollout_batch(target, starts, data.horizon, rng),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_q(data, target, FittedQSpec(), synthetic)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


CASES = [
    pytest.param((name, sweeps), id=name if sweeps is None else f"{name}-sweeps{sweeps}")
    for name in ("inventory", "inventory-synthetic", "finite")
    for sweeps in (None, 0, 1, 2)
]


class TestFittedQMatchesPerSweepOracle:
    """The closed form agrees with per-sweep fitted Q to rtol 1e-10 for
    every sweep count (None runs the dataset horizon)."""

    @pytest.fixture(params=CASES)
    def case(self, request, inventory_env, inventory_policies, finite_fixture):
        name, sweeps = request.param
        spec = FittedQSpec(sweeps=sweeps)
        if name == "finite":
            mdp, behavior, target = finite_fixture
            data = mdp.sample_dataset(behavior, 80, np.random.default_rng(21), 0.9)
            return name, data, behavior, target, None, spec
        behavior, target = inventory_policies
        data = inventory_env.sample_dataset(
            behavior, 40, np.random.default_rng(22), 1.0
        )
        n_synth = 100 if name == "inventory-synthetic" else 0
        return name, data, behavior, target, (OracleModel(inventory_env), n_synth), spec

    @staticmethod
    def synthetic_rollouts(data, target, augment, seed):
        # the same draws dr_baseline makes from its generator
        if augment is None or augment[1] == 0:
            return None
        model, n_synth = augment
        rng = np.random.default_rng(seed)
        starts = data.initial_states()[rng.integers(0, len(data), size=n_synth)]
        return model.rollout_batch(target, starts, data.horizon, rng)

    def test_fit_matches_oracle(self, case):
        name, data, _, target, augment, spec = case
        synthetic = self.synthetic_rollouts(data, target, augment, 23)
        q = fit_q(data, target, spec, synthetic)
        want = per_sweep_fit_q(data, target, spec, synthetic)
        if name != "finite":
            # The finite MDP's actions are 0/1, so a and a^2 are one column
            # and the ridge branch splits their coefficients arbitrarily.
            np.testing.assert_allclose(q.coef, want.coef, rtol=1e-10, atol=0)
        states, actions = data.batch.flatten()[:2]
        np.testing.assert_allclose(
            q.q_values(states, actions), want.q_values(states, actions),
            rtol=1e-10, atol=0,
        )

    def test_dr_interval_matches_oracle(self, case):
        _, data, behavior, target, augment, spec = case
        synthetic = self.synthetic_rollouts(data, target, augment, 23)
        want = dr_baseline(
            data, behavior, target, 0.05,
            q=per_sweep_fit_q(data, target, spec, synthetic),
        )
        got = dr_baseline(
            data, behavior, target, 0.05, q_spec=spec,
            augment=augment, rng=np.random.default_rng(23),
        )
        np.testing.assert_allclose(
            [got.lower, got.upper], [want.lower, want.upper], rtol=1e-10, atol=0
        )
