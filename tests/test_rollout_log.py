"""The behavior probabilities that rollouts log against the ones a ratio table
recomputes, byte for byte.

A simulator's rollout of two or more rows keeps, for every step, the
probability of the drawn action in the table it was drawn from, and
``step_ratio_table`` reads that log in place of the behavior's table when the
batch was drawn by a policy equal to its ``behavior``.  Each table built from a log must equal the
table recomputed from a copy of the batch without one.  A one-row action
table may differ from a larger table's rows in the last bit, so one-row
rollouts log nothing and one-row ratio tables recompute."""
from dataclasses import replace

import numpy as np
import pytest

from ope_ci import reweighting
from ope_ci.envs import InventoryEnv, InventoryParams, inventory_policy_pair
from ope_ci.errors import ZeroBehaviorProbability
from ope_ci.mdp import RolloutBatch, TrajectoryDataset, read_jsonl_dataset, write_jsonl_dataset
from ope_ci.models import GaussianRegressionModel, OracleModel, RewardOffsetModel
from ope_ci.policies import SoftmaxOrderUpToPolicy, policy_probs, policy_sample
from ope_ci.reweighting import step_ratio_table, trajectory_ratios

from test_rollouts import absorbing_mdp


def unlogged(dataset):
    """The same dataset with the log dropped, whose tables recompute it."""
    batch = replace(dataset.batch, drawn_probs=None, drawn_by=None)
    return TrajectoryDataset(batch, dataset.discount, dataset.horizon)


def assert_same_table(dataset, target, behavior):
    got = step_ratio_table(dataset, target, behavior)
    want = step_ratio_table(unlogged(dataset), target, behavior)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def behavior_tables(monkeypatch):
    """The policies whose tables ``step_ratio_table`` builds from now on."""
    built = []

    def recording(policy, states, actions):
        built.append(policy)
        return policy_probs(policy, states, actions)

    monkeypatch.setattr(reweighting, "policy_probs", recording)
    return built


def absorbing_case():
    """Rows end at every length of a horizon of 4, so the batch is padded."""
    mdp, behavior = absorbing_mdp()
    target = type(behavior)(((0.3, 0.7), (0.8, 0.2), (0.4, 0.6), (0.5, 0.5)))
    starts = np.repeat([0.0, 1.0, 2.0], 40)[:, None]
    batch = mdp.rollout_batch(behavior, starts, mdp.horizon, np.random.default_rng(5))
    assert len(set(batch.lengths.tolist())) > 1 and batch.lengths.max() == mdp.horizon
    return TrajectoryDataset(batch, 0.9, mdp.horizon), behavior, target


def inventory_case():
    behavior, target = inventory_policy_pair()
    ds = InventoryEnv().sample_dataset(behavior, 50, np.random.default_rng(6), 0.95)
    return ds, behavior, target


CASES = {"softmax": inventory_case, "tabular-padded": absorbing_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


class TestLoggedRollouts:
    def test_log_holds_the_drawn_actions_probabilities(self, case):
        ds, behavior, _ = case
        b = ds.batch
        mask = b.step_mask()
        assert b.drawn_by == behavior and b.drawn_probs.shape == b.actions.shape
        want = policy_probs(behavior, b.states[mask], b.actions[mask])
        assert b.drawn_probs[mask].tobytes() == want.tobytes()
        assert (b.drawn_probs[~mask] == 0.0).all()

    def test_policy_sample_gathers_from_its_own_tables(self):
        behavior, _ = inventory_policy_pair()
        states = np.linspace(0.0, 10.0, 9)[:, None]
        probs = np.full(9, np.nan)
        draws = policy_sample(behavior, states, np.random.default_rng(2), probs)
        want = policy_sample(behavior, states, np.random.default_rng(2))
        assert draws.tolist() == want.tolist()
        assert probs.tobytes() == policy_probs(behavior, states, draws).tobytes()

    def test_table_reads_the_log_and_equals_the_recomputed_one(self, case, monkeypatch):
        ds, behavior, target = case
        built = behavior_tables(monkeypatch)
        step_ratio_table(ds, target, behavior)
        assert built == [target]
        assert_same_table(ds, target, behavior)

    def test_split_halves_keep_the_log(self, case, monkeypatch):
        ds, behavior, target = case
        built = behavior_tables(monkeypatch)
        for half in ds.split_half():
            assert half.batch.drawn_by == behavior
            built.clear()
            step_ratio_table(half, target, behavior)
            assert built == [target]
            assert_same_table(half, target, behavior)

    def test_data_drawn_by_another_policy_recomputes(self, monkeypatch):
        behavior, target = inventory_policy_pair()
        ds = InventoryEnv().sample_dataset(target, 30, np.random.default_rng(8))
        assert ds.batch.drawn_by == target
        built = behavior_tables(monkeypatch)
        step_ratio_table(ds, target, behavior)
        assert built == [behavior, target]
        assert_same_table(ds, target, behavior)

    def test_an_equal_policy_reads_the_log(self, monkeypatch):
        ds, behavior, target = inventory_case()
        twin = SoftmaxOrderUpToPolicy(behavior.order_up_to, behavior.temperature,
                                      behavior.capacity)
        assert twin is not behavior
        built = behavior_tables(monkeypatch)
        step_ratio_table(ds, target, twin)
        assert built == [target]

    def test_zero_logged_probability_is_refused(self):
        ds, behavior, target = inventory_case()
        probs = ds.batch.drawn_probs.copy()
        probs[3, 4] = 0.0
        batch = replace(ds.batch, drawn_probs=probs)
        with pytest.raises(ZeroBehaviorProbability):
            step_ratio_table(TrajectoryDataset(batch, 1.0, ds.horizon), target, behavior)


def one_step_env():
    return InventoryEnv(InventoryParams(horizon=1))


class TestOneRowTables:
    def test_one_row_rollout_logs_nothing(self):
        behavior, target = inventory_policy_pair()
        ds = InventoryEnv().sample_dataset(behavior, 1, np.random.default_rng(9))
        assert ds.batch.drawn_probs is None and ds.batch.drawn_by is None
        assert_same_table(ds, target, behavior)

    def test_one_row_table_recomputes(self, monkeypatch):
        """A trajectory of one step, kept from a larger rollout, whose logged
        probability differs in the last bit from its one-row table's: the
        table must hold the recomputed one."""
        behavior, target = inventory_policy_pair()
        ds = one_step_env().sample_dataset(behavior, 2000, np.random.default_rng(10))
        b = ds.batch
        alone = np.array([
            policy_probs(behavior, b.states[i, :1], b.actions[i, :1])[0] for i in range(len(ds))
        ])
        differs = np.flatnonzero(alone != b.drawn_probs[:, 0])
        assert differs.size > 0
        single = ds.subset([differs[0]])
        assert single.batch.drawn_by == behavior
        built = behavior_tables(monkeypatch)
        ratios, _, _ = step_ratio_table(single, target, behavior)
        assert built == [behavior, target]
        assert ratios[0, 0] == policy_probs(target, b.states[differs[0], :1],
                                            b.actions[differs[0], :1])[0] / alone[differs[0]]
        assert_same_table(single, target, behavior)

    def test_two_row_table_reads_the_log(self, monkeypatch):
        behavior, target = inventory_policy_pair()
        ds = one_step_env().sample_dataset(behavior, 40, np.random.default_rng(11))
        built = behavior_tables(monkeypatch)
        step_ratio_table(ds.subset([0, 1]), target, behavior)
        assert built == [target]
        assert_same_table(ds.subset([0, 1]), target, behavior)


class TestUnloggedBatches:
    def test_model_rollouts_carry_no_log(self, monkeypatch):
        """Only datasets are read by ratio tables, so only simulators log."""
        ds, behavior, target = inventory_case()
        fitted = GaussianRegressionModel().fit(ds)
        for model in (fitted, RewardOffsetModel(fitted, 25.0), OracleModel(InventoryEnv())):
            batch = model.rollout_batch(behavior, ds.initial_states(), ds.horizon,
                                        np.random.default_rng(7))
            assert batch.drawn_probs is None and batch.drawn_by is None
            generated = TrajectoryDataset(batch, ds.discount, ds.horizon)
            built = behavior_tables(monkeypatch)
            step_ratio_table(generated, target, behavior)
            assert built == [behavior, target]

    def test_pad_carries_no_log(self):
        batch = RolloutBatch.pad([[[0.0], [1.0]], [[2.0]]], [[0, 1], [1]], [[1.0, 2.0], [3.0]])
        assert batch.drawn_probs is None and batch.drawn_by is None

    def test_jsonl_stores_no_log(self, tmp_path):
        ds, behavior, target = inventory_case()
        path = tmp_path / "data.jsonl"
        write_jsonl_dataset(ds, path)
        assert "drawn" not in path.read_text()
        back = read_jsonl_dataset(path)
        assert back.batch.drawn_probs is None and back.batch.drawn_by is None
        got = step_ratio_table(back, target, behavior)
        want = step_ratio_table(ds, target, behavior)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_trajectory_ratios_build_no_reward_table(case):
    ds, behavior, target = case
    ratios, rewards, lengths = step_ratio_table(ds, target, behavior, rewards=False)
    full = step_ratio_table(ds, target, behavior)
    assert rewards is None and lengths is full[2]
    assert ratios.tobytes() == full[0].tobytes()
    rho = trajectory_ratios(ds, target, behavior)
    assert rho.tobytes() == full[0].prod(axis=1).tobytes()
