import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ope_ci.errors import ZeroBehaviorProbability
from ope_ci.mdp import (
    ConfidenceInterval,
    RolloutBatch,
    TrajectoryDataset,
    read_jsonl_dataset,
    write_jsonl_dataset,
)
from ope_ci.reweighting import trajectory_ratios

from oracles import Row, batch_rows, likelihood_ratio, trajectory_return
from test_rollouts import absorbing_mdp


def row(states, actions, rewards):
    """A ``Row`` of per-step lists: one state tuple per step."""
    return Row(
        np.array(states, dtype=float).reshape(len(actions), -1),
        np.array(actions, dtype=np.int64),
        np.array(rewards, dtype=float),
    )


def traj_from_rewards(rewards, state=(0.0,)):
    return row([state] * len(rewards), [0] * len(rewards), rewards)


def dataset_of(rows, discount=1.0, horizon=None):
    """Dataset holding the given rows, padded by ``RolloutBatch.pad``."""
    rows = list(rows)
    batch = RolloutBatch.pad(
        [r.states for r in rows], [r.actions for r in rows], [r.rewards for r in rows]
    )
    if horizon is None:
        horizon = int(batch.lengths.max())
    return TrajectoryDataset(batch, discount, horizon)


class RatioStubPolicy:
    """Action probabilities keyed off the action alone, so per-step ratios
    are set explicitly (rows need not sum to 1)."""

    def __init__(self, probs_by_action):
        self.probs_by_action = probs_by_action

    def action_probs(self, states):
        row = [self.probs_by_action[a] for a in range(len(self.probs_by_action))]
        return np.tile(row, (len(states), 1))


def ratio_pair(per_step_ratios):
    """(target, behavior) stub pair realizing the given per-step ratios."""
    behavior = RatioStubPolicy({a: 0.1 for a in range(len(per_step_ratios))})
    target = RatioStubPolicy(
        {a: 0.1 * r for a, r in enumerate(per_step_ratios)}
    )
    n = len(per_step_ratios)
    return row([(0.0,)] * n, range(n), [1.0] * n), target, behavior


class TestTrajectoryTypes:
    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="lengths must lie in 1..2"):
            TrajectoryDataset(RolloutBatch.pad([[]], [[]], [[]]), 1.0, 2)

    def test_nonfinite_reward_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                TrajectoryDataset(RolloutBatch.pad([[[0.0]]], [[0]], [[bad]]), 1.0, 1)

    def test_initial_state_is_first_transition_state(self):
        ds = dataset_of([row([(3.0,), (7.0,)], [1, 0], [0.5, 0.25])])
        assert ds.initial_states().tolist() == [[3.0]]

    def test_sample_initial_states_resamples_the_dataset_starts(self):
        starts = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        batch = RolloutBatch.pad(starts[:, None, :], [[0]] * 3, [[0.0]] * 3)
        ds = TrajectoryDataset(batch, 1.0, 1)
        drawn = ds.sample_initial_states(np.random.default_rng(4), 50)
        picks = np.random.default_rng(4).integers(0, 3, size=50)
        assert drawn.shape == (50, 2)
        assert np.array_equal(drawn, starts[picks])

    def test_dataset_rejects_mixed_state_dims(self):
        with pytest.raises(ValueError):
            RolloutBatch.pad([[[0.0]], [[0.0, 1.0]]], [[0], [0]], [[1.0], [1.0]])

    def test_pad_refuses_non_integer_actions(self):
        # int64 storage would silently truncate them to [1, 2]
        with pytest.raises(ValueError, match="^trajectory 1: actions must be integers"):
            RolloutBatch.pad([[[0.0]], [[0.0], [1.0]]], [[0], [1.7, 2.2]], [[1.0], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "name, shape",
        [("states", (2, 3)), ("actions", (2, 2)), ("actions", (3, 3)), ("rewards", (2, 4)),
         ("rewards", (2,)), ("drawn_probs", (2, 2)), ("lengths", (3,)), ("lengths", (2, 1))],
    )
    def test_dataset_refuses_arrays_whose_shapes_disagree(self, name, shape):
        """A misaligned batch would otherwise fail later, in numpy broadcasting or
        indexing, with messages that name no array."""
        fields = {
            "states": np.zeros((2, 3, 1)), "actions": np.zeros((2, 3), dtype=np.int64),
            "rewards": np.zeros((2, 3)), "lengths": np.array([3, 2]),
            "drawn_probs": np.full((2, 3), 0.5),
        }
        TrajectoryDataset(RolloutBatch(**fields), 1.0, 3)
        fields[name] = np.ones(shape, dtype=fields[name].dtype)
        with pytest.raises(ValueError, match=f"^{name} must "):
            TrajectoryDataset(RolloutBatch(**fields), 1.0, 3)

    def test_dataset_refuses_actions_of_a_float_dtype(self):
        """Ratio tables would cast them to integers and return plausible numbers."""
        batch = RolloutBatch(np.zeros((1, 2, 1)), np.array([[0.0, 1.5]]), np.zeros((1, 2)),
                             np.array([2]))
        with pytest.raises(ValueError, match="^actions must be integers, got dtype float64"):
            TrajectoryDataset(batch, 1.0, 2)

    def test_dataset_rejects_overlong_trajectory(self):
        traj = traj_from_rewards([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            dataset_of([traj], 1.0, 2)

    def test_split_half_gives_first_half_the_extra(self):
        ds = dataset_of([traj_from_rewards([float(i)]) for i in range(5)], 1.0, 1)
        first, second = ds.split_half()
        assert len(first) == 3 and len(second) == 2
        assert first.batch.rewards[0, 0] == 0.0
        assert second.batch.rewards[0, 0] == 3.0

    def test_dataset_rejects_nonfinite_state(self):
        for bad in (math.nan, math.inf):
            batch = RolloutBatch.pad([[[0.0], [bad]]], [[0, 1]], [[1.0, 1.0]])
            with pytest.raises(ValueError, match="finite"):
                TrajectoryDataset(batch, 1.0, 2)
        # padding beyond a trajectory's length is never read
        batch = RolloutBatch(
            np.array([[[0.0], [math.nan]]]), np.zeros((1, 2), dtype=np.int64),
            np.array([[1.0, math.nan]]), np.array([1]),
        )
        assert TrajectoryDataset(batch, 1.0, 2).returns().tolist() == [1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_padding_accepted_and_valid_step_refused(self, bad):
        """The whole-array check passes finite batches at once; a batch with
        a nonfinite cell is accepted exactly when every such cell is padding."""
        states = np.arange(12.0).reshape(3, 4, 1)
        rewards = np.arange(12.0).reshape(3, 4)
        lengths = np.array([4, 2, 1])
        pad = np.arange(4) >= lengths[:, None]
        states[pad], rewards[pad] = bad, bad
        actions = np.zeros((3, 4), dtype=np.int64)
        ds = TrajectoryDataset(RolloutBatch(states, actions, rewards, lengths), 1.0, 4)
        assert ds.returns().tolist() == [6.0, 9.0, 8.0]
        for array in (states, rewards):
            broken = array.copy()
            broken[1, 1] = bad  # the last valid step of row 1
            fields = (broken, rewards) if array is states else (states, broken)
            with pytest.raises(ValueError, match="must be finite"):
                TrajectoryDataset(RolloutBatch(fields[0], actions, fields[1], lengths), 1.0, 4)

    @pytest.mark.parametrize("pad", [math.nan, math.inf, -math.inf])
    def test_batch_returns_ignore_padding(self, pad):
        batch = RolloutBatch(
            np.zeros((2, 3, 1)), np.zeros((2, 3), dtype=np.int64),
            np.array([[1.0, pad, pad], [1.0, 2.0, pad]]), np.array([1, 2]),
        )
        assert batch.returns(0.5).tolist() == [1.0, 2.0]
        assert TrajectoryDataset(batch, 0.5, 3).returns().tolist() == [1.0, 2.0]

    def test_interval_orders_endpoints(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(1.0, 0.0, 0.95)
        ci = ConfidenceInterval(-1.0, 2.0, 0.9, point=0.5)
        assert ci.width == 3.0
        assert ci.contains(0.0) and not ci.contains(2.5)


class TestRowView:
    """Iterating a dataset yields each row's valid steps as array slices; the
    benchmark's tracer counts a dataset's steps as their lengths."""

    def test_views_hold_the_valid_cells_of_each_row(self):
        mdp, behavior = absorbing_mdp()
        starts = np.repeat([0.0, 1.0, 2.0], 20)[:, None]
        batch = mdp.rollout_batch(behavior, starts, mdp.horizon, np.random.default_rng(5))
        ds = TrajectoryDataset(batch, 0.9, mdp.horizon)
        assert len(set(batch.lengths.tolist())) > 1
        for dataset in (ds, *ds.split_half()):
            b = dataset.batch
            views = list(dataset)
            assert [len(v) for v in views] == b.lengths.tolist()
            mask = b.step_mask()
            for i, view in enumerate(views):
                for name in ("states", "actions", "rewards"):
                    got, want = getattr(view, name), getattr(b, name)[i][mask[i]]
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestTrajectoryReturn:
    def test_zero_rewards(self):
        assert trajectory_return(traj_from_rewards([0, 0, 0]), 0.9) == 0.0

    def test_hand_summed_discounted_return(self):
        # 1 + 0.5*2 + 0.25*3 = 2.75
        assert trajectory_return(traj_from_rewards([1, 2, 3]), 0.5) == pytest.approx(
            2.75, abs=1e-12
        )
        ds = dataset_of([traj_from_rewards([1, 2, 3]), traj_from_rewards([4])], 0.5)
        assert ds.returns().tolist() == [2.75, 4.0]

    def test_single_step_ignores_discount(self):
        for gamma in (0.1, 0.5, 1.0):
            assert trajectory_return(traj_from_rewards([5]), gamma) == 5.0

    def test_discount_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            trajectory_return(traj_from_rewards([1.0]), 0.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    def test_undiscounted_return_is_plain_sum(self, rewards):
        traj = traj_from_rewards(rewards)
        assert trajectory_return(traj, 1.0) == pytest.approx(
            float(np.sum(rewards)), rel=1e-12, abs=1e-9
        )


class TestLikelihoodRatio:
    def test_identity_policy_gives_exactly_one(self):
        traj, target, behavior = ratio_pair([2.0, 0.5])
        assert likelihood_ratio(traj, behavior, behavior) == 1.0

    def test_hand_product_cancelling(self):
        traj, target, behavior = ratio_pair([2.0, 0.5])
        assert likelihood_ratio(traj, target, behavior) == pytest.approx(1.0, abs=1e-12)

    def test_hand_product_six(self):
        traj, target, behavior = ratio_pair([3.0, 2.0])
        assert likelihood_ratio(traj, target, behavior) == pytest.approx(6.0, abs=1e-12)

    def test_zero_behavior_probability_raises(self):
        behavior = RatioStubPolicy({0: 0.0})
        target = RatioStubPolicy({0: 0.5})
        traj = traj_from_rewards([1.0])
        with pytest.raises(ZeroBehaviorProbability):
            likelihood_ratio(traj, target, behavior)

    @given(
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
    )
    def test_multiplicative_over_concatenation(self, ratios_a, ratios_b):
        # ratio(t1 ++ t2) = ratio(t1) * ratio(t2): actions index disjoint keys
        n_a, n_b = len(ratios_a), len(ratios_b)
        behavior = RatioStubPolicy({a: 0.1 for a in range(n_a + n_b)})
        target = RatioStubPolicy(
            {a: 0.1 * r for a, r in enumerate(ratios_a + ratios_b)}
        )
        t_a = row([(0.0,)] * n_a, range(n_a), [1.0] * n_a)
        t_b = row([(0.0,)] * n_b, range(n_a, n_a + n_b), [1.0] * n_b)
        joined = Row(*(np.concatenate(pair) for pair in zip(t_a, t_b)))
        assert likelihood_ratio(joined, target, behavior) == pytest.approx(
            likelihood_ratio(t_a, target, behavior)
            * likelihood_ratio(t_b, target, behavior),
            rel=1e-12,
        )


class TestReweightingIdentity:
    def test_enumerated_reweighted_expectation_equals_target_value(self):
        # sum over all behavior paths of p_b * ratio * return must equal the
        # exactly enumerated target-policy value
        from ope_ci.envs import oracle_value, small_finite_mdp

        from oracles import enumerate_trajectories

        mdp, behavior, target = small_finite_mdp()
        for gamma in (0.9, 1.0):
            total = sum(
                prob * likelihood_ratio(traj, target, behavior)
                * trajectory_return(traj, gamma)
                for traj, prob in enumerate_trajectories(mdp, behavior)
            )
            assert total == pytest.approx(
                oracle_value(mdp, target, gamma), abs=1e-10
            )


class TestPairLikelihoodRatio:
    """A (real, generated) pair's ratio is the product of the two legs'
    trajectory ratios, each over its own length, as the score pairs form it."""

    def test_identity(self):
        traj, _, behavior = ratio_pair([2.0, 3.0])
        ratios = trajectory_ratios(dataset_of([traj, traj]), behavior, behavior)
        assert ratios.prod() == 1.0

    def test_product_of_single_ratios(self):
        real, target, behavior = ratio_pair([2.0])
        gen = row([(0.0,)], [0], [1.0])
        # both legs use action 0 with ratio 2: pair ratio 4
        ratios = trajectory_ratios(dataset_of([real, gen]), target, behavior)
        assert ratios.prod() == pytest.approx(4.0)

    def test_mixed_lengths_enumerate_steps(self):
        behavior = RatioStubPolicy({0: 0.2, 1: 0.2, 2: 0.2})
        target = RatioStubPolicy({0: 0.4, 1: 0.1, 2: 0.6})
        short = row([(0.0,)], [0], [1.0])
        longer = row([(0.0,), (0.0,)], [1, 2], [1.0, 1.0])
        expected = (0.4 / 0.2) * (0.1 / 0.2) * (0.6 / 0.2)
        ratios = trajectory_ratios(dataset_of([short, longer]), target, behavior)
        assert ratios.tolist() == [
            likelihood_ratio(short, target, behavior),
            likelihood_ratio(longer, target, behavior),
        ]
        assert ratios.prod() == pytest.approx(expected, rel=1e-12)


class TestJsonlRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path, rng):
        rows = []
        for _ in range(7):
            length = int(rng.integers(1, 6))
            steps = [
                (
                    (float(rng.standard_normal()), float(rng.standard_normal())),
                    int(rng.integers(0, 3)),
                    float(rng.standard_normal() * 1e3),
                )
                for _ in range(length)
            ]
            rows.append(row(*zip(*steps)))
        ds = dataset_of(rows, 0.97, 8)
        path = tmp_path / "data.jsonl"
        write_jsonl_dataset(ds, path)
        back = read_jsonl_dataset(path)
        assert back.discount == ds.discount
        assert back.horizon == ds.horizon
        assert len(back) == len(ds)
        for a, b in zip(batch_rows(ds.batch), batch_rows(back.batch)):
            for x, y in zip(a, b):  # every float's bits
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for name in ("states", "actions", "rewards", "lengths"):
            assert np.array_equal(getattr(back.batch, name), getattr(ds.batch, name))

    def test_vector_actions_rejected(self, tmp_path):
        path = tmp_path / "vec.jsonl"
        good = {"states": [[1.0]], "actions": [1], "rewards": [2.0]}
        bad = {"states": [[1.0]], "actions": [[0.25, -0.5]], "rewards": [2.0]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        path.with_name("vec.jsonl.meta.json").write_text(
            '{"gamma":1.0,"horizon":1,"state_dim":1}\n'
        )
        with pytest.raises(ValueError, match="line 2: actions must be integers"):
            read_jsonl_dataset(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_state_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"states":[[1.0],[%s]],"actions":[0,1],"rewards":[2.0,3.0]}\n' % bad
        )
        path.with_name("nan.jsonl.meta.json").write_text(
            '{"gamma":1.0,"horizon":2,"state_dim":1}\n'
        )
        with pytest.raises(ValueError, match="states and rewards must be finite"):
            read_jsonl_dataset(path)

    def test_sidecar_metadata_written(self, tmp_path):
        ds = dataset_of([traj_from_rewards([1.0])], 0.9, 4)
        path = tmp_path / "data.jsonl"
        write_jsonl_dataset(ds, path)
        assert (tmp_path / "data.jsonl.meta.json").exists()
