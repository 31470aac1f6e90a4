import math

import numpy as np
import pytest

from ope_ci.drppi import (
    HalfEstimate,
    cross_fit_variance,
    dr_ppi_estimates,
    half_estimate,
    interval_from_estimate,
)
from ope_ci.envs import monte_carlo_value, oracle_value
from ope_ci.errors import DatasetTooSmall
from ope_ci.harness import StudyConfig
from ope_ci.models import GaussianRegressionModel, OracleModel
from ope_ci.reweighting import CorrectionKind, normal_quantile

from oracles import normal_quantile_oracle


def cfg_with(**kwargs):
    defaults = dict(
        n_model_rollouts=64,
        pairs_per_trajectory=4,
        clip="off",
        crossfit=True,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestHalfEstimate:
    def test_correction_unbiased_with_oracle_model(self, finite_fixture):
        # target = behavior and a perfect model: correction terms average to
        # zero over repeated runs
        mdp, behavior, _ = finite_fixture
        cfg = cfg_with()
        means = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = mdp.sample_dataset(behavior, 40, rng, 0.9)
            half = half_estimate(
                OracleModel(mdp), data, behavior, behavior, cfg, rng,
                d0_sampler=mdp.sample_initial_states, corrections=[CorrectionKind.IS],
            )[0]
            means.append(half.value)
        truth = oracle_value(mdp, behavior, 0.9)
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - truth) <= 4 * se

    def test_default_starts_are_the_correction_data_sampler(
        self, inventory_env, inventory_policies
    ):
        behavior, target = inventory_policies
        first, second = inventory_env.sample_dataset(
            behavior, 40, np.random.default_rng(3)
        ).split_half()
        model = GaussianRegressionModel(state_box=inventory_env.state_box).fit(first)
        got, want = (
            half_estimate(
                model, second, behavior, target, cfg_with(), np.random.default_rng(8), d0,
                corrections=(CorrectionKind.IS,),
            )
            for d0 in (None, second.sample_initial_states)
        )
        assert got == want

    def test_flat_reward_fixture_by_hand(self, flat_reward_mdp):
        # return is always 2; correction term j must equal 2 * (rho_j - 1)
        mdp, behavior, target = flat_reward_mdp
        data = mdp.sample_dataset(behavior, 2, np.random.default_rng(0), 1.0)
        cfg = cfg_with(n_model_rollouts=8, pairs_per_trajectory=2)
        half = half_estimate(
            OracleModel(mdp), data, behavior, target, cfg,
            np.random.default_rng(1), d0_sampler=mdp.sample_initial_states,
            corrections=[CorrectionKind.IS],
        )[0]
        assert half.var_model == 0.0  # every return is exactly 2
        from ope_ci.reweighting import trajectory_ratios

        rho = trajectory_ratios(data, target, behavior)
        terms = 2.0 * (rho - 1.0)
        expected_value = 2.0 + terms.mean()
        assert half.value == pytest.approx(expected_value, abs=1e-12)
        assert half.var_correction == pytest.approx(np.var(terms, ddof=1), rel=1e-12)

    def test_corrections_share_the_model_rollouts(self, inventory_env, inventory_policies):
        """Each kind's half equals its own one-kind call bit for bit, and the
        model rolls out once (model values, then pairs) for all of them."""
        behavior, target = inventory_policies
        first, second = inventory_env.sample_dataset(
            behavior, 40, np.random.default_rng(3)
        ).split_half()
        model = GaussianRegressionModel(state_box=inventory_env.state_box).fit(first)
        rollouts = []
        model_rollout = model.rollout_batch
        model.rollout_batch = lambda *args: rollouts.append(1) or model_rollout(*args)
        kinds = [CorrectionKind.WIS, CorrectionKind.PDIS, CorrectionKind.IS]
        halves = half_estimate(
            model, second, behavior, target, cfg_with(clip="auto"),
            np.random.default_rng(8), corrections=kinds,
        )
        assert len(rollouts) == 2
        for kind, half in zip(kinds, halves):
            assert [half] == half_estimate(model, second, behavior, target,
                                           cfg_with(clip="auto"),
                                           np.random.default_rng(8), corrections=(kind,))

    def test_pair_means_converge_to_conditional_value(self, finite_fixture):
        # with many rollouts per trajectory the correction's subtracted term
        # approaches the enumerated conditional value at each initial state
        mdp, behavior, target = finite_fixture
        rng = np.random.default_rng(5)
        data = mdp.sample_dataset(behavior, 30, rng, 0.9)
        starts = data.initial_states()
        M = 64
        batch = OracleModel(mdp).rollout_batch(
            target, np.repeat(starts, M, axis=0), mdp.horizon, rng
        )
        means = batch.returns(0.9).reshape(len(data), M).mean(axis=1)
        sds = batch.returns(0.9).reshape(len(data), M).std(ddof=1, axis=1)
        for j in range(len(data)):
            truth = oracle_value(mdp, target, 0.9, initial_state=tuple(starts[j]))
            assert abs(means[j] - truth) <= 4 * sds[j] / math.sqrt(M) + 1e-9


class TestCrossFitVariance:
    def test_plug_in_arithmetic_fixture(self):
        # quarter-combined: 0.25 * (4/100 + 8/50 + 4/100 + 8/50) = 0.1
        assert cross_fit_variance(4.0, 8.0, 50, 4.0, 8.0, 50, 100) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_half_estimate_validation(self):
        with pytest.raises(ValueError):
            HalfEstimate(0.0, -1.0, 0.0, 10)


class TestDrPpiEstimate:
    def test_small_dataset_rejected(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 3, rng, 0.9)
        with pytest.raises(DatasetTooSmall):
            dr_ppi_estimates(
                data, behavior, target, cfg_with(),
                lambda: OracleModel(mdp), rng, mdp.sample_initial_states, [CorrectionKind.IS],
            )

    def test_cross_fit_average_of_explicit_halves(self, finite_fixture):
        # the pipeline value must be the plain average of the two half
        # estimates computed with the same derived streams
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 20, np.random.default_rng(2), 0.9)
        cfg = cfg_with()
        rng = np.random.default_rng(3)
        value, variance = dr_ppi_estimates(
            data, behavior, target, cfg, lambda: OracleModel(mdp), rng,
            mdp.sample_initial_states, [CorrectionKind.IS],
        )[0]
        first, second = data.split_half()
        rng_a, rng_b = np.random.default_rng(3).spawn(2)
        h1, = half_estimate(OracleModel(mdp), second, behavior, target, cfg,
                            rng_a, mdp.sample_initial_states, corrections=[CorrectionKind.IS])
        h2, = half_estimate(OracleModel(mdp), first, behavior, target, cfg,
                            rng_b, mdp.sample_initial_states, corrections=[CorrectionKind.IS])
        assert value == (h1.value + h2.value) / 2.0
        # swapping the halves (with their streams) leaves the aggregate
        # bit-identical
        assert value == (h2.value + h1.value) / 2.0
        assert variance == cross_fit_variance(
            h1.var_model, h1.var_correction, h1.n_half,
            h2.var_model, h2.var_correction, h2.n_half,
            cfg.n_model_rollouts,
        )

    def test_no_crossfit_single_fit_variance(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 20, np.random.default_rng(4), 0.9)
        cfg = cfg_with(crossfit=False)
        rng = np.random.default_rng(5)
        value, variance = dr_ppi_estimates(
            data, behavior, target, cfg, lambda: OracleModel(mdp), rng,
            mdp.sample_initial_states, [CorrectionKind.IS],
        )[0]
        half = half_estimate(
            OracleModel(mdp), data, behavior, target, cfg,
            np.random.default_rng(5), mdp.sample_initial_states,
            corrections=[CorrectionKind.IS],
        )[0]
        assert value == half.value
        assert variance == (
            half.var_model / cfg.n_model_rollouts
            + half.var_correction / half.n_half
        )

    @pytest.mark.parametrize("cross_fit", [True, False])
    def test_negative_zero_value_keeps_its_sign(self, finite_fixture, monkeypatch, cross_fit):
        # a sum started from 0.0 would turn a lone -0.0 into +0.0
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 20, np.random.default_rng(4), 0.9)

        def zero_half(model, correction_data, *args, corrections):
            return [HalfEstimate(-0.0, 1.0, 2.0, len(correction_data))]

        monkeypatch.setattr("ope_ci.drppi.half_estimate", zero_half)
        value, _ = dr_ppi_estimates(
            data, behavior, target, cfg_with(crossfit=cross_fit), lambda: OracleModel(mdp),
            np.random.default_rng(5), None, [CorrectionKind.IS],
        )[0]
        assert math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("cross_fit", [True, False])
    def test_estimates_of_many_kinds_equal_one_kind_estimates(
        self, inventory_env, inventory_policies, cross_fit
    ):
        """One fold loop for every kind: one model fit per fold, and each
        kind's (value, variance) equal to its own estimate bit for bit."""
        behavior, target = inventory_policies
        data = inventory_env.sample_dataset(behavior, 60, np.random.default_rng(6))
        fits = []

        def factory():
            fits.append(1)
            return GaussianRegressionModel(state_box=inventory_env.state_box)

        kinds = [CorrectionKind.PDIS, CorrectionKind.IS, CorrectionKind.WIS, CorrectionKind.IS]
        cfg = cfg_with(clip="auto", crossfit=cross_fit)
        got = dr_ppi_estimates(
            data, behavior, target, cfg, factory, np.random.default_rng(7), None, kinds
        )
        assert len(fits) == (2 if cross_fit else 1)
        for kind, estimate in zip(kinds, got):
            assert [estimate] == dr_ppi_estimates(
                data, behavior, target, cfg, factory, np.random.default_rng(7), None, [kind]
            )

    def test_estimate_near_truth_on_inventory(
        self, inventory_env, inventory_policies
    ):
        behavior, target = inventory_policies
        data = inventory_env.sample_dataset(behavior, 100, np.random.default_rng(6))
        cfg = cfg_with(clip="auto", n_model_rollouts=400, pairs_per_trajectory=4)
        value, variance = dr_ppi_estimates(
            data, behavior, target, cfg, lambda: OracleModel(inventory_env),
            np.random.default_rng(7), inventory_env.sample_initial_states,
            [CorrectionKind.PDIS],
        )[0]
        truth, _ = monte_carlo_value(
            inventory_env, target, 50_000, np.random.default_rng(8)
        )
        assert abs(value - truth) <= 4 * math.sqrt(variance)

    def test_correction_kinds_agree_on_finite_mdp(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 2000, np.random.default_rng(9), 0.9)
        truth = oracle_value(mdp, target, 0.9)
        for kind in CorrectionKind:
            value, variance = dr_ppi_estimates(
                data, behavior, target, cfg_with(n_model_rollouts=256),
                lambda: OracleModel(mdp), np.random.default_rng(10),
                mdp.sample_initial_states, [kind],
            )[0]
            assert abs(value - truth) <= 4 * math.sqrt(variance)

    def test_deterministic_under_seed(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 16, np.random.default_rng(1), 0.9)
        runs = [
            dr_ppi_estimates(
                data, behavior, target, cfg_with(),
                lambda: OracleModel(mdp), np.random.default_rng(42),
                mdp.sample_initial_states, [CorrectionKind.IS],
            )[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_variance_positive_for_nonconstant_returns(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 30, np.random.default_rng(12), 0.9)
        _, variance = dr_ppi_estimates(
            data, behavior, target, cfg_with(), lambda: OracleModel(mdp),
            np.random.default_rng(13), mdp.sample_initial_states, [CorrectionKind.IS],
        )[0]
        assert variance > 0.0

    def test_bootstrap_d0_fallback_runs(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        data = mdp.sample_dataset(behavior, 16, np.random.default_rng(14), 0.9)
        value, variance = dr_ppi_estimates(
            data, behavior, target, cfg_with(), lambda: OracleModel(mdp),
            np.random.default_rng(15), d0_sampler=None, corrections=[CorrectionKind.IS],
        )[0]
        assert math.isfinite(value) and variance >= 0.0


class TestInterval:
    def test_hand_interval_fixture(self):
        # variance 0.25, estimate 1: 1 -+ z_{0.975} * 0.5
        ci = interval_from_estimate(1.0, 0.25, 0.05)
        z = normal_quantile_oracle(0.975)
        assert ci.lower == pytest.approx(1.0 - z * 0.5, abs=1e-9)
        assert ci.upper == pytest.approx(1.0 + z * 0.5, abs=1e-9)

    def test_one_sigma_alpha(self):
        # alpha = 0.32: the half width is within 0.5% of one sigma
        assert normal_quantile(1 - 0.32 / 2) == pytest.approx(0.9945, abs=5e-5)
        ci = interval_from_estimate(0.0, 4.0, 0.32)
        assert ci.upper == pytest.approx(2.0 * 0.9945, abs=1e-3)

    def test_zero_variance_degenerate(self):
        ci = interval_from_estimate(3.0, 0.0, 0.05)
        assert (ci.lower, ci.upper, ci.point) == (3.0, 3.0, 3.0)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.5, math.nan])
    def test_alpha_outside_unit_interval_is_named(self, alpha):
        """A bad ``alpha`` is reported as such, not as inverted endpoints or
        a bad quantile level."""
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            interval_from_estimate(1.0, 0.25, alpha)
