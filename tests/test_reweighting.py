import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ope_ci.envs import oracle_value
from ope_ci.errors import DegenerateWeights, InsufficientSamples
from ope_ci.mdp import RolloutBatch, TrajectoryDataset
from ope_ci.reweighting import (
    ClipPolicy,
    CorrectionKind,
    _bootstrap_means,
    _linear_quantiles,
    _plug_in_variance,
    bootstrap_interval,
    clip_ratio,
    clt_interval,
    is_returns,
    normal_quantile,
    pdis_returns,
    reweighted_returns,
    wis_returns,
)

from oracles import batch_rows, normal_quantile_oracle, one_call_bootstrap_means
from test_envs import traced_peak_mb
from test_mdp import RatioStubPolicy


def ratio_dataset(per_traj_ratio_lists, rewards_lists, discount=1.0):
    """Dataset plus stub policies realizing the given per-step ratios: every
    step takes its own action, numbered in trajectory-major order."""
    all_ratios = [r for lst in per_traj_ratio_lists for r in lst]
    behavior = RatioStubPolicy({a: 0.1 for a in range(len(all_ratios))})
    target = RatioStubPolicy({a: 0.1 * r for a, r in enumerate(all_ratios)})
    starts = np.cumsum([0] + [len(r) for r in per_traj_ratio_lists])
    batch = RolloutBatch.pad(
        [np.zeros((len(r), 1)) for r in per_traj_ratio_lists],
        [range(a, b) for a, b in zip(starts[:-1], starts[1:])],
        rewards_lists,
    )
    return TrajectoryDataset(batch, discount, int(batch.lengths.max())), target, behavior


class TestClipPolicy:
    def test_below_threshold_untouched(self):
        assert clip_ratio(1.0, 100, ClipPolicy.on()) == 1.0

    def test_sqrt_n_cap(self):
        assert clip_ratio(50.0, 100, ClipPolicy.on()) == 10.0

    def test_disabled_pass_through(self):
        assert clip_ratio(50.0, 100, ClipPolicy.off()) == 50.0

    def test_auto_mode_threshold(self):
        auto = ClipPolicy()
        assert auto.threshold(99) == math.inf
        assert auto.threshold(100) == 10.0

    def test_constant_is_exact_square_root(self):
        for n in (1, 4, 99, 100, 144, 10_000):
            assert ClipPolicy.on().threshold(n) == math.sqrt(n)
            assert ClipPolicy.off().threshold(n) == math.inf

    @given(st.floats(0, 1e6), st.integers(1, 10_000))
    def test_clipped_never_exceeds_sqrt_n(self, rho, n):
        assert clip_ratio(rho, n, ClipPolicy.on()) <= math.sqrt(n)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            clip_ratio(-0.5, 10, ClipPolicy.on())


class TestIsReturns:
    def test_identity_policy_gives_plain_returns(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        ds = mdp.sample_dataset(behavior, 50, rng, 0.9)
        assert np.allclose(is_returns(ds, behavior, behavior), ds.returns())

    def test_single_trajectory_hand_product(self):
        ds, target, behavior = ratio_dataset([[2.0]], [[3.0]])
        assert is_returns(ds, target, behavior, ClipPolicy.off()) == pytest.approx([6.0])

    def test_mean_matches_oracle_on_finite_mdp(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 30_000, np.random.default_rng(3), 0.9)
        vals = is_returns(ds, target, behavior, ClipPolicy.off())
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle_value(mdp, target, 0.9)) <= 4 * se


class TestWisReturns:
    def test_equal_ratios_give_plain_returns(self):
        ds, target, behavior = ratio_dataset([[2.0], [2.0]], [[1.0], [5.0]])
        assert wis_returns(ds, target, behavior, ClipPolicy.off()) == pytest.approx(
            [1.0, 5.0]
        )

    def test_hand_normalization(self):
        ds, target, behavior = ratio_dataset([[1.0], [3.0]], [[10.0], [10.0]])
        assert wis_returns(ds, target, behavior, ClipPolicy.off()) == pytest.approx(
            [5.0, 15.0]
        )

    def test_mean_is_weighted_mean_identity(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 64, rng, 0.9)
        vals = wis_returns(ds, target, behavior, ClipPolicy.off())
        from ope_ci.reweighting import trajectory_ratios

        rho = trajectory_ratios(ds, target, behavior)
        weighted_mean = float((rho * ds.returns()).sum() / rho.sum())
        assert vals.mean() == pytest.approx(weighted_mean, rel=1e-12)

    def test_normalized_weights_sum_to_one(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 128, rng, 0.9)
        from ope_ci.reweighting import trajectory_ratios

        rho = trajectory_ratios(ds, target, behavior)
        assert (rho / rho.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_ratios_degenerate(self):
        ds, _, behavior = ratio_dataset([[0.0], [0.0]], [[1.0], [1.0]])
        target = RatioStubPolicy({0: 0.0, 1: 0.0})
        with pytest.raises(DegenerateWeights):
            wis_returns(ds, target, behavior, ClipPolicy.off())


class TestPdisReturn:
    def test_single_step_equals_is(self):
        ds, target, behavior = ratio_dataset([[2.5]], [[4.0]])
        assert pdis_returns(ds, target, behavior, ClipPolicy.off())[0] == (
            is_returns(ds, target, behavior, ClipPolicy.off())[0]
        )

    def test_hand_prefix_products(self):
        ds, target, behavior = ratio_dataset([[2.0, 3.0]], [[1.0, 1.0]])
        # 2*1 + (2*3)*1 = 8
        assert pdis_returns(ds, target, behavior, ClipPolicy.off())[0] == pytest.approx(
            8.0
        )

    def test_identity_policy_gives_plain_return(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        ds = mdp.sample_dataset(behavior, 5, rng, 0.9)
        want = [sum(0.9**t * r for t, r in enumerate(row.rewards)) for row in batch_rows(ds.batch)]
        assert pdis_returns(ds, behavior, behavior) == pytest.approx(want)

    def test_single_step_horizon_identity_any_discount(self, flat_reward_mdp, rng):
        mdp, behavior, target = flat_reward_mdp
        b = mdp.sample_dataset(behavior, 16, rng, 0.7).batch
        first_steps = RolloutBatch(
            b.states[:, :1], b.actions[:, :1], b.rewards[:, :1], np.minimum(b.lengths, 1)
        )
        one_step = TrajectoryDataset(first_steps, 0.7, 1)
        assert np.allclose(
            pdis_returns(one_step, target, behavior, ClipPolicy.off()),
            is_returns(one_step, target, behavior, ClipPolicy.off()),
        )

    def test_prefix_clipping_caps_each_prefix(self):
        ds, target, behavior = ratio_dataset([[5.0, 5.0]] * 9, [[1.0, 1.0]] * 9)
        # cap sqrt(9) = 3: prefixes (5, 25) -> (3, 3): value 6
        assert pdis_returns(ds, target, behavior, ClipPolicy.on()).tolist() == [6.0] * 9

    def test_mean_matches_oracle_on_finite_mdp(self, finite_fixture):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 30_000, np.random.default_rng(4), 0.9)
        vals = pdis_returns(ds, target, behavior, ClipPolicy.off())
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle_value(mdp, target, 0.9)) <= 4 * se


class TestNormalQuantile:
    def test_matches_independent_routine(self):
        for p in (0.005, 0.025, 0.16, 0.5, 0.84, 0.975, 0.995):
            assert normal_quantile(p) == pytest.approx(
                normal_quantile_oracle(p), abs=1e-9
            )


class TestCltInterval:
    def test_constant_samples_zero_width(self):
        ci = clt_interval([3.0, 3.0, 3.0], 0.05)
        assert (ci.lower, ci.upper) == (3.0, 3.0)

    def test_two_point_hand_interval(self):
        # samples {0, 2}: mean 1, sd sqrt(2), se 1 -> 1 -+ z_{0.975}
        ci = clt_interval([0.0, 2.0], 0.05)
        z = normal_quantile_oracle(0.975)
        assert ci.lower == pytest.approx(1 - z, abs=1e-9)
        assert ci.upper == pytest.approx(1 + z, abs=1e-9)

    def test_contains_sample_mean(self, rng):
        for _ in range(20):
            samples = rng.standard_normal(rng.integers(2, 40))
            ci = clt_interval(samples, 0.1)
            assert ci.contains(float(samples.mean()))

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamples):
            clt_interval([1.0], 0.05)

    def test_width_scales_as_root_n(self, rng):
        ratios = []
        for _ in range(30):
            small = rng.standard_normal(200)
            big = rng.standard_normal(800)
            ratios.append(clt_interval(big, 0.05).width / clt_interval(small, 0.05).width)
        assert 0.45 <= float(np.mean(ratios)) <= 0.56

    def test_standard_error_is_sd_over_root_n(self):
        # sd / sqrt(n) and sqrt(var / n) round differently on this sample;
        # the interval is built from the first
        samples = np.array([1.053, 1.776, -2.553, -0.138, 1.014])
        z = normal_quantile(0.975)
        mean = float(samples.mean())
        half = z * float(samples.std(ddof=1) / math.sqrt(samples.size))
        variance_form = z * math.sqrt(float(samples.var(ddof=1)) / samples.size)
        assert (mean - half, mean + half) != (mean - variance_form, mean + variance_form)
        ci = clt_interval(samples, 0.05)
        assert (ci.lower, ci.upper, ci.point) == (mean - half, mean + half, mean)


class TestPlugInVariance:
    def test_matches_the_restated_forms_bit_for_bit(self):
        # squared weights 1/4 and 1 scale by a power of two, which is exact,
        # so scaling each ratio equals scaling their sum, bit for bit
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            a, b, c, d = (float(v) for v in rng.lognormal(0.0, 3.0, size=4))
            N, n1, n2 = (int(k) for k in rng.integers(2, 100_000, size=3))
            cross_fit = 0.25 * (a / N + b / n1 + c / N + d / n2)
            strata = [(0.5, a, N), (0.5, b, n1), (0.5, c, N), (0.5, d, n2)]
            assert _plug_in_variance(strata) == cross_fit
            assert _plug_in_variance([(1.0, a, N), (1.0, b, n1)]) == a / N + b / n1


class TestBootstrapInterval:
    def test_constant_samples_zero_width(self, rng):
        ci = bootstrap_interval([2.0] * 10, 0.05, 200, rng)
        assert (ci.lower, ci.upper) == (2.0, 2.0)

    def test_fixed_seed_deterministic(self):
        samples = np.arange(20, dtype=float)
        c1 = bootstrap_interval(samples, 0.1, 500, np.random.default_rng(3))
        c2 = bootstrap_interval(samples, 0.1, 500, np.random.default_rng(3))
        assert (c1.lower, c1.upper) == (c2.lower, c2.upper)

    def test_too_few_replicates_rejected(self, rng):
        with pytest.raises(ValueError):
            bootstrap_interval([1.0, 2.0], 0.05, 50, rng)

    def test_width_agrees_with_clt_on_normal_samples(self):
        # percentile bootstrap and CLT widths should roughly agree
        inside = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            samples = rng.standard_normal(200)
            w_boot = bootstrap_interval(samples, 0.05, 2000, rng).width
            w_clt = clt_interval(samples, 0.05).width
            inside += abs(w_boot - w_clt) <= 0.25 * w_clt
        assert inside >= 48

    @pytest.mark.parametrize(
        ("n", "n_boot"), [(2, 2000), (7, 2000), (200, 2000), (5_500, 200), (70_000, 4)]
    )
    def test_blocked_means_equal_one_call_draw(self, n, n_boot):
        # 70,000 indices exceed one block, so each block holds one row
        samples = np.random.default_rng(n).standard_normal(n)
        rng_got, rng_want = np.random.default_rng(7), np.random.default_rng(7)
        got = _bootstrap_means(samples, n_boot, rng_got)
        assert np.array_equal(got, one_call_bootstrap_means(samples, n_boot, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_interval_is_percentiles_of_one_call_means(self):
        samples = np.random.default_rng(5).exponential(size=200)
        ci = bootstrap_interval(samples, 0.1, 2000, np.random.default_rng(8))
        means = one_call_bootstrap_means(samples, 2000, np.random.default_rng(8))
        assert [ci.lower, ci.upper] == np.quantile(means, [0.05, 0.95]).tolist()

    @pytest.mark.parametrize("kind", ["random", "tied", "signed-zeros", "nan"])
    @pytest.mark.parametrize("n", [100, 101, 2000])
    def test_quantiles_equal_np_quantile_bit_for_bit(self, kind, n):
        """Levels include 2/(n-1), whose upper index is n-2 (numpy's kth list
        then names the last value twice), and 1e-20, whose upper level
        rounds to 1; numpy's _lerp takes its other branch at t >= 0.5."""
        rng = np.random.default_rng(n)
        values = {
            "random": rng.standard_normal(n),
            "tied": rng.integers(0, 4, size=n).astype(float),
            "signed-zeros": rng.choice([-0.0, 0.0, 1.0], size=n),
            "nan": np.where(rng.random(n) < 0.01, np.nan, rng.standard_normal(n)),
        }[kind]
        for alpha in (0.05, 0.1, 0.01, 0.5, 0.999, 2 / (n - 1), 1e-20, *rng.random(30)):
            levels = [alpha / 2, 1 - alpha / 2]
            got = _linear_quantiles(values, levels)
            assert got.tobytes() == np.quantile(values, levels).tobytes(), alpha

    @given(
        st.lists(st.sampled_from([-2.5, -0.0, 0.0, 0.1, 7.0]) | st.floats(-1e6, 1e6),
                 min_size=100, max_size=400),
        st.floats(1e-12, 1.0, exclude_max=True),
    )
    def test_quantiles_equal_np_quantile_on_drawn_values(self, values, alpha):
        values = np.array(values)
        levels = [alpha / 2, 1 - alpha / 2]
        assert _linear_quantiles(values, levels).tobytes() == np.quantile(values, levels).tobytes()

    def test_interval_imports_no_masked_arrays(self):
        """``np.quantile`` imports ``numpy.ma`` on first use, 17-20 ms of
        every process that draws a bootstrap interval."""
        code = (
            "import sys, numpy as np\n"
            "from ope_ci.reweighting import bootstrap_interval\n"
            "bootstrap_interval(np.arange(50.0), 0.05, 200, np.random.default_rng(1))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_memory_is_independent_of_replicates(self):
        """n = 5,500 and 2,000 replicates peaked at 76 MB in blocks of
        5,000,000 indices; blocks of 65,536 keep the peak near 1 MB."""
        samples = np.random.default_rng(1).standard_normal(5_500)
        peak = traced_peak_mb(
            lambda: bootstrap_interval(samples, 0.05, 2000, np.random.default_rng(2))
        )
        assert peak < 4.0


class TestReweightedDispatch:
    def test_dispatch_matches_direct_calls(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 40, rng, 0.9)
        clip = ClipPolicy.off()
        assert np.array_equal(
            reweighted_returns(ds, target, behavior, [CorrectionKind.IS], clip)[0],
            is_returns(ds, target, behavior, clip),
        )
        assert np.array_equal(
            reweighted_returns(ds, target, behavior, [CorrectionKind.WIS], clip)[0],
            wis_returns(ds, target, behavior, clip),
        )
        assert np.array_equal(
            reweighted_returns(ds, target, behavior, [CorrectionKind.PDIS], clip)[0],
            pdis_returns(ds, target, behavior, clip),
        )

    @pytest.mark.parametrize("mode", ["on", "off", "auto"])
    def test_one_table_serves_every_kind_bit_for_bit(self, monkeypatch, mode):
        """Padded trajectories of unequal lengths with a -0.0 reward, 120 of
        them so that auto clips: one table gives all three kinds, each equal
        byte for byte to its one-kind call and to its named view."""
        import ope_ci.reweighting as reweighting

        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 5, size=120)
        rewards = [rng.normal(size=k).tolist() for k in lengths]
        rewards[int(np.argmin(lengths))][0] = -0.0
        ds, target, behavior = ratio_dataset(
            [rng.uniform(0.1, 3.0, size=k).tolist() for k in lengths], rewards, discount=0.9
        )
        assert len(set(lengths.tolist())) > 1
        clip = ClipPolicy(mode=mode)
        kinds = [CorrectionKind.IS, CorrectionKind.WIS, CorrectionKind.PDIS]
        tables, table = [], reweighting.step_ratio_table
        monkeypatch.setattr(reweighting, "step_ratio_table",
                            lambda *args: tables.append(1) or table(*args))
        together = reweighted_returns(ds, target, behavior, kinds, clip)
        assert len(tables) == 1
        for kind, view, got in zip(kinds, [is_returns, wis_returns, pdis_returns], together):
            alone, = reweighted_returns(ds, target, behavior, [kind], clip)
            assert got.tobytes() == alone.tobytes()
            assert got.tobytes() == view(ds, target, behavior, clip).tobytes()
