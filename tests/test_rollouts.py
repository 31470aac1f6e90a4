"""The shared rollout loop against the per-environment loops it replaced, bit
for bit: every batch array with its dtype, and the generator state after the
rollout, so that the random stream is consumed in the same order."""
import numpy as np
import pytest

from ope_ci.envs import FiniteMdp, InventoryEnv, inventory_policy_pair, small_finite_mdp
from ope_ci.models import GaussianRegressionModel
from ope_ci.policies import TabularPolicy

from oracles import finite_rollout, gaussian_model_rollout, inventory_rollout
from test_columnar import short_lived_mdp


def absorbing_mdp():
    """Four states; state 3 is absorbing and every other state reaches it
    with probability 0.2 to 0.5 a step, so rows end at every length.  Its
    own transitions lead away from it, which an ended row must not show."""
    P = np.array(
        [
            [[0.5, 0.2, 0.1, 0.2], [0.1, 0.4, 0.2, 0.3]],
            [[0.2, 0.3, 0.2, 0.3], [0.3, 0.1, 0.2, 0.4]],
            [[0.1, 0.2, 0.2, 0.5], [0.4, 0.2, 0.2, 0.2]],
            [[0.3, 0.3, 0.3, 0.1], [0.25, 0.25, 0.25, 0.25]],
        ]
    )
    R = np.arange(32, dtype=float).reshape(4, 2, 4) / 3.0
    mdp = FiniteMdp(P, R, np.array([0.4, 0.3, 0.3, 0.0]), horizon=4, absorbing=frozenset({3}))
    policy = TabularPolicy(((0.6, 0.4), (0.5, 0.5), (0.7, 0.3), (0.5, 0.5)))
    return mdp, policy


def assert_same_rollout(run, reference, *args, seed=17):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = run(*args, rng_got), reference(*args, rng_want)
    for name in ("states", "actions", "rewards", "lengths"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.flags.c_contiguous, name
        assert np.array_equal(g, w), name
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


def test_inventory():
    env = InventoryEnv()
    behavior, _ = inventory_policy_pair()
    starts = env.sample_initial_states(np.random.default_rng(3), 40)
    batch = assert_same_rollout(
        env.rollout_batch, lambda *a: inventory_rollout(env, *a),
        behavior, starts, env.horizon,
    )
    assert batch.lengths.tolist() == [env.horizon] * 40


def test_finite_fixture():
    mdp, behavior, _ = small_finite_mdp()
    starts = mdp.sample_initial_states(np.random.default_rng(4), 200)
    assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), behavior, starts, mdp.horizon
    )


def test_finite_absorbing_rows_end_at_every_length():
    mdp, policy = absorbing_mdp()
    starts = np.repeat([0.0, 1.0, 2.0, 3.0], 50)[:, None]
    batch = assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), policy, starts, mdp.horizon
    )
    assert set(batch.lengths.tolist()) == {0, 1, 2, 3, 4}
    assert (batch.lengths[150:] == 0).all()


def test_finite_loop_ends_once_every_row_is_absorbed():
    """Every row is absorbed within two steps of a horizon of 4."""
    mdp, policy, _ = short_lived_mdp()
    starts = np.array([0.0, 1.0, 2.0] * 20)[:, None]
    batch = assert_same_rollout(
        mdp.rollout_batch, lambda *a: finite_rollout(mdp, *a), policy, starts, mdp.horizon
    )
    assert set(batch.lengths.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("env_name", ["inventory", "finite"])
@pytest.mark.parametrize("boxed", [True, False])
def test_gaussian_model(env_name, boxed):
    if env_name == "inventory":
        env = InventoryEnv()
        behavior, _ = inventory_policy_pair()
    else:
        env, behavior, _ = small_finite_mdp()
    data = env.sample_dataset(behavior, 60, np.random.default_rng(5))
    model = GaussianRegressionModel(state_box=env.state_box if boxed else None).fit(data)
    starts = env.sample_initial_states(np.random.default_rng(6), 40)
    if env_name == "finite" and not boxed:
        # An unboxed model leaves the finite MDP's states, and the tabular
        # policy refuses the codes it reaches instead of reading a wrong row.
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            model.rollout_batch(behavior, starts, env.horizon, np.random.default_rng(17))
        return
    batch = assert_same_rollout(
        model.rollout_batch, lambda *a: gaussian_model_rollout(model, *a),
        behavior, starts, env.horizon,
    )
    lo, hi = env.state_box
    assert ((batch.states >= lo) & (batch.states <= hi)).all() == boxed
