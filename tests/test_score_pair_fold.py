"""Score pairs folded out of the rollout loop against the recorded batch and
ratio table they replace (``oracles.recorded_score_pairs``): every column
byte for byte, and the generator state after the call.  Both paths refuse
the same generated data, and one folded call at n=1600 keeps no generated
batch."""
import math
import tracemalloc

import numpy as np
import pytest

from ope_ci.cpgen import generation_score_pairs
from ope_ci.envs import FiniteMdp, InventoryEnv, InventoryParams, inventory_policy_pair
from ope_ci.errors import ZeroBehaviorProbability
from ope_ci.models import GaussianRegressionModel, OracleModel, RewardOffsetModel
from ope_ci.policies import TabularPolicy

from oracles import recorded_score_pairs
from test_rollouts import absorbing_mdp

MODELS = ("gaussian", "oracle", "biased")


def model_of(kind, env, ds):
    if kind == "gaussian":
        return GaussianRegressionModel(state_box=env.state_box).fit(ds)
    return OracleModel(env) if kind == "oracle" else RewardOffsetModel(OracleModel(env), 5.0)


def assert_same_pairs(model, behavior, target, ds, per_trajectory, seed=3):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generation_score_pairs(model, behavior, target, ds, per_trajectory, rng_got)
    want = recorded_score_pairs(model, behavior, target, ds, per_trajectory, rng_want)
    for name in ("states", "scores", "ratios"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("per_trajectory", [1, 4])
@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("kind", MODELS)
def test_inventory_pairs_equal_the_recorded_ones(kind, discount, per_trajectory):
    env = InventoryEnv()
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 30, np.random.default_rng(1), discount)
    assert_same_pairs(model_of(kind, env, ds), behavior, target, ds, per_trajectory)


@pytest.mark.parametrize("kind", MODELS)
def test_horizon_past_numpys_pairwise_block(kind):
    """150 steps: numpy sums a row of more than 128 terms in blocks."""
    env = InventoryEnv(InventoryParams(horizon=150))
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 12, np.random.default_rng(2), 0.99)
    assert_same_pairs(model_of(kind, env, ds), behavior, target, ds, 4)


def absorbing_case():
    """Rows that end early, and a reward of -0.0 for reaching the absorbing
    state."""
    mdp, behavior = absorbing_mdp()
    rewards = mdp.rewards.copy()
    rewards[:, :, 3] = -0.0
    mdp = FiniteMdp(mdp.transition_probs, rewards, mdp.initial_dist, mdp.horizon, mdp.absorbing)
    target = TabularPolicy(((0.3, 0.7), (0.8, 0.2), (0.4, 0.6), (0.5, 0.5)))
    return mdp, behavior, target


@pytest.mark.parametrize("per_trajectory", [1, 4])
@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("kind", ["oracle", "biased"])
def test_absorbing_pairs_equal_the_recorded_ones(kind, discount, per_trajectory):
    mdp, behavior, target = absorbing_case()
    ds = mdp.sample_dataset(behavior, 40, np.random.default_rng(4), discount)
    model = model_of(kind, mdp, ds)
    starts = np.repeat(ds.initial_states(), per_trajectory, axis=0)
    batch = model.rollout_batch(behavior, starts, mdp.horizon, np.random.default_rng(3))
    mask = batch.step_mask()
    assert batch.lengths.min() < mdp.horizon == batch.lengths.max()
    if kind == "oracle":
        assert (np.signbit(batch.rewards) & (batch.rewards == 0.0) & mask).any()
    assert_same_pairs(model, behavior, target, ds, per_trajectory)


@pytest.mark.parametrize(
    "kind, horizon", [*((kind, 20) for kind in MODELS), ("oracle", 1), ("biased", 1)]
)
def test_one_row_rollout_builds_its_tables_from_every_step(kind, horizon):
    """A one-row table may differ from a larger table's rows in the last bit:
    the folded ratio of a one-row rollout is the one-row ratio table's."""
    env = InventoryEnv(InventoryParams(horizon=horizon))
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 20, np.random.default_rng(5), 0.9)
    model = model_of(kind, env, ds)
    for i in range(len(ds)):
        assert_same_pairs(model, behavior, target, ds.subset([i]), 1, seed=i)


def test_one_row_absorbing_rollouts_equal_the_recorded_ones():
    mdp, behavior, target = absorbing_case()
    ds = mdp.sample_dataset(behavior, 12, np.random.default_rng(6), 0.9)
    for i in range(len(ds)):
        assert_same_pairs(OracleModel(mdp), behavior, target, ds.subset([i]), 1, seed=i)


class ShortRows:
    """Action tables whose rows sum to 0.5: a uniform draw above that takes
    the last action, whose probability is 0."""

    def action_probs(self, states):
        return np.tile([0.5, 0.0], (len(states), 1))


@pytest.mark.parametrize("size, per_trajectory", [(10, 2), (1, 1)])
@pytest.mark.parametrize("pairs", [generation_score_pairs, recorded_score_pairs])
def test_zero_behavior_probability_is_refused(pairs, size, per_trajectory):
    mdp, behavior = absorbing_mdp()
    first_only = TabularPolicy(((1.0, 0.0),) * 4)
    ds = mdp.sample_dataset(first_only, size, np.random.default_rng(7))
    # at this seed the one-row rollout, too, draws the last action
    with pytest.raises(ZeroBehaviorProbability):
        pairs(OracleModel(mdp), ShortRows(), behavior, ds, per_trajectory,
              np.random.default_rng(9))


@pytest.mark.parametrize("offset", [math.inf, math.nan])
@pytest.mark.parametrize("pairs", [generation_score_pairs, recorded_score_pairs])
def test_non_finite_rewards_are_refused(pairs, offset):
    env = InventoryEnv()
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 10, np.random.default_rng(9))
    with pytest.raises(ValueError, match="states and rewards must be finite"):
        pairs(RewardOffsetModel(OracleModel(env), offset), behavior, target, ds, 2,
              np.random.default_rng(10))


def test_one_call_at_n1600_keeps_no_generated_batch():
    """The calibration half of an n=1600 dataset with cpgen's default four
    rollouts per trajectory: 64,000 generated steps.  Recorded, their batch
    and ratio table took 5.5 MB; folded, the call stays under 3.5 MB."""
    env = InventoryEnv()
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 1600, np.random.default_rng(11)).split_half()[1]
    model = GaussianRegressionModel(state_box=env.state_box).fit(ds)
    generation_score_pairs(model, behavior, target, ds, 4, np.random.default_rng(12))
    tracemalloc.start()
    try:
        generation_score_pairs(model, behavior, target, ds, 4, np.random.default_rng(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
