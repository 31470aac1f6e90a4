"""Every interval method end to end on a simulator whose states have two
coordinates; the library's environments all have one."""
from dataclasses import dataclass

import numpy as np
import pytest

from ope_ci.envs import Simulator, inventory_policy_pair
from ope_ci.harness import EnvSpec, StudyConfig, make_method


@dataclass(frozen=True)
class DemandLevelInventory(Simulator):
    """Inventory control whose state is (stock, demand level).  The demand
    level drifts as a clipped AR(1) process and scales the day's mean
    demand; the order-up-to policies read the stock alone."""

    capacity: int = 10
    horizon: int = 8

    state_dim = 2

    @property
    def state_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(2), np.array([float(self.capacity), 2.0])

    def sample_initial_states(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.column_stack(
            [rng.uniform(0.0, self.capacity, n), rng.uniform(0.5, 1.5, n)]
        )

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator):
        stock, level = states[:, 0], states[:, 1]
        stocked = np.minimum(float(self.capacity), stock + actions)
        demand = rng.normal(5.0 * level, 1.0)
        next_stock = np.maximum(0.0, stocked - demand)
        next_level = np.clip(0.7 * level + 0.3 + rng.normal(0.0, 0.1, level.shape), 0.0, 2.0)
        reward = (
            -1.0 * (actions > 0) - 2.0 * stock - 2.0 * (stocked - stock)
            + 4.0 * (stocked - next_stock)
        )
        return np.column_stack([next_stock, next_level]), reward


@pytest.fixture(scope="module")
def two_dim_case():
    env = DemandLevelInventory()
    behavior, target = inventory_policy_pair(env.capacity)
    spec = EnvSpec("demand-level", env, behavior, target, 1.0, s0=(5.0, 1.0))
    dataset = env.sample_dataset(behavior, 80, np.random.default_rng(0))
    return spec, dataset


def test_rollouts_keep_both_coordinates(two_dim_case):
    _, dataset = two_dim_case
    states = dataset.batch.states
    assert states.shape[2] == 2
    assert np.unique(states[:, :, 1]).size > 1


@pytest.mark.parametrize("method", ["is", "augis", "dm", "dr", "augdr", "drppi", "cpgen"])
def test_method_gives_finite_interval(two_dim_case, method):
    spec, dataset = two_dim_case
    config = StudyConfig(
        n_model_rollouts=200, n_synth=200, dm_rollouts=200, n_boot=200, cpgen_rollouts=32
    )
    run = make_method([method], spec, config, 0.0)
    ci = run(dataset, 0.1, np.random.default_rng(1))[0].interval
    assert np.isfinite([ci.lower, ci.upper]).all()
    assert ci.lower <= ci.upper
