"""Returns folded with no target (``mdp._fold``), as augis's synthetic
rollouts and dm read them, against the returns of the batch
``model.rollout_batch`` records from the same generator state: byte for
byte, with the generator left in the same state.  A non-finite rollout is
refused as the dataset refuses it."""
import math

import numpy as np
import pytest

from ope_ci.baselines import aug_is_baseline, dm_baseline
from ope_ci.envs import InventoryEnv, InventoryParams, inventory_policy_pair
from ope_ci.mdp import _fold
from ope_ci.models import OracleModel, RewardOffsetModel

from test_score_pair_fold import MODELS, absorbing_case, model_of


def assert_same_returns(model, policy, starts, horizon, discount, seed=3):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, ratios = _fold(model, policy, None, starts, horizon, discount, rng_got)
    want = model.rollout_batch(policy, starts, horizon, rng_want).returns(discount)
    assert ratios is None
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("horizon", [20, 150])
@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("kind", MODELS)
def test_inventory_returns_equal_the_recorded_ones(kind, discount, horizon):
    """150 steps: numpy sums a row of more than 128 terms in blocks."""
    env = InventoryEnv(InventoryParams(horizon=horizon))
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 30, np.random.default_rng(1), discount)
    starts = env.sample_initial_states(np.random.default_rng(2), 200)
    assert_same_returns(model_of(kind, env, ds), target, starts, horizon, discount)


@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("kind", ["oracle", "biased"])
def test_absorbing_returns_equal_the_recorded_ones(kind, discount):
    """Rows that end early, and a -0.0 reward for reaching the absorbing state."""
    mdp, behavior, target = absorbing_case()
    ds = mdp.sample_dataset(behavior, 40, np.random.default_rng(4), discount)
    starts = np.repeat(ds.initial_states(), 4, axis=0)
    batch = OracleModel(mdp).rollout_batch(target, starts, mdp.horizon, np.random.default_rng(3))
    assert batch.lengths.min() < mdp.horizon == batch.lengths.max()
    assert (np.signbit(batch.rewards) & (batch.rewards == 0.0) & batch.step_mask()).any()
    assert_same_returns(model_of(kind, mdp, ds), target, starts, mdp.horizon, discount)


@pytest.mark.parametrize("kind", MODELS)
def test_one_row_returns_equal_the_recorded_ones(kind):
    env = InventoryEnv()
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 20, np.random.default_rng(5), 0.9)
    model = model_of(kind, env, ds)
    for i in range(5):
        assert_same_returns(model, target, ds.initial_states()[i:i + 1], env.horizon, 0.9,
                            seed=i)


@pytest.mark.parametrize("offset", [math.inf, math.nan])
@pytest.mark.parametrize("method", ["augis", "dm"])
def test_non_finite_rollouts_are_refused(method, offset):
    """The recorded batch's NaN returns stopped at the interval, as "lower nan
    exceeds upper nan"."""
    env = InventoryEnv()
    behavior, target = inventory_policy_pair()
    ds = env.sample_dataset(behavior, 10, np.random.default_rng(6))
    model = RewardOffsetModel(OracleModel(env), offset)
    with pytest.raises(ValueError, match="states and rewards must be finite"):
        if method == "augis":
            aug_is_baseline(ds, model, behavior, target, 20, 0.1, rng=np.random.default_rng(7))
        else:
            dm_baseline(model, target, env.sample_initial_states, 20, 0.1,
                        np.random.default_rng(7), env.horizon)
