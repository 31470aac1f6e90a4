"""The columnar dataset paths against their per-trajectory oracles, bit for
bit (returns within rounding), on full-length inventory data and on ragged
finite-MDP data whose longest trajectory stops short of the horizon."""
import numpy as np
import pytest

from ope_ci.baselines import FittedQSpec, fit_q
from ope_ci.cpgen import generation_score_pairs
from ope_ci.envs import FiniteMdp
from ope_ci.mdp import read_jsonl_dataset, write_jsonl_dataset
from ope_ci.models import (
    GaussianRegressionModel,
    OracleModel,
    polynomial_features,
    solve_least_squares,
)
from ope_ci.policies import TabularPolicy, _row_blocks
from ope_ci.reweighting import step_ratio_table

from oracles import (
    likelihood_ratio,
    per_trajectory_fit_rows,
    per_trajectory_ratio_table,
    per_trajectory_transition_rows,
    trajectory_return,
    transition_rows,
)


def short_lived_mdp():
    """State 0 moves to 1 or to the absorbing state 2, and state 1 always
    moves to 2, so trajectories last one or two steps of a horizon of 4."""
    P = np.zeros((3, 2, 3))
    P[0, 0] = [0.0, 0.7, 0.3]
    P[0, 1] = [0.0, 0.4, 0.6]
    P[1, :, 2] = 1.0
    P[2, :, 2] = 1.0
    R = np.arange(18, dtype=float).reshape(3, 2, 3) / 7.0
    mdp = FiniteMdp(P, R, np.array([0.8, 0.2, 0.0]), horizon=4, absorbing=frozenset({2}))
    behavior = TabularPolicy(((0.6, 0.4), (0.5, 0.5), (0.5, 0.5)))
    target = TabularPolicy(((0.3, 0.7), (0.2, 0.8), (0.5, 0.5)))
    return mdp, behavior, target


@pytest.fixture(params=["inventory-1", "inventory-0.9", "finite-ragged"])
def case(request, inventory_env, inventory_policies):
    """(env, behavior, target, dataset)."""
    if request.param == "finite-ragged":
        mdp, behavior, target = short_lived_mdp()
        ds = mdp.sample_dataset(behavior, 60, np.random.default_rng(31), 0.95)
        lengths = ds.batch.lengths
        assert set(lengths.tolist()) == {1, 2} and lengths.max() < ds.horizon
        return mdp, behavior, target, ds
    behavior, target = inventory_policies
    gamma = float(request.param.split("-")[1])
    ds = inventory_env.sample_dataset(behavior, 60, np.random.default_rng(32), gamma)
    return inventory_env, behavior, target, ds


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_returns_match_per_trajectory_sums(case):
    """The row sum and the per-trajectory loop add the discounted rewards in
    different orders, so they agree within the horizon times ε."""
    *_, ds = case
    want = np.array([trajectory_return(t, ds.discount) for t in ds])
    rtol = ds.horizon * np.finfo(float).eps
    np.testing.assert_allclose(ds.returns(), want, rtol=rtol, atol=0)


def test_ratio_table_matches_per_trajectory_table(case):
    _, behavior, target, ds = case
    table = step_ratio_table(ds, target, behavior)
    assert table[0].shape == (len(ds), ds.batch.lengths.max())
    assert_all_equal(table, per_trajectory_ratio_table(ds, target, behavior))


def test_model_fit_rows_match_per_trajectory_rows(case):
    """The model's coefficients and residual scales equal those of least
    squares on the per-trajectory rows, bit for bit."""
    *_, ds = case
    Zr, yr, Zs, Ys = per_trajectory_fit_rows(ds)
    for degree in (1, 2):
        model = GaussianRegressionModel(degree=degree).fit(ds)
        Xr = polynomial_features(Zr[:, :-1], Zr[:, -1], degree)
        Xs = polynomial_features(Zs[:, :-1], Zs[:, -1], degree)
        state_coef, reward_coef = solve_least_squares(Xs, Ys), solve_least_squares(Xr, yr)
        assert_all_equal(
            [model._state_coef, model._reward_coef, model._state_scale],
            [state_coef, reward_coef, (Ys - Xs @ state_coef).std(axis=0)],
        )
        assert model._reward_scale == float((yr - Xr @ reward_coef).std())


@pytest.mark.parametrize("with_synthetic", [False, True])
def test_fitted_q_rows_match_per_trajectory_rows(case, with_synthetic, monkeypatch):
    """The fitted-Q oracle's rows equal the per-trajectory rows bit for bit,
    and ``fit_q`` folding blocks of seven trajectories matches its one-block
    fit to rtol 1e-12 (about 4e-14 seen): in its Q values on every case, and
    in its coefficients on inventory data.  The finite MDP's 0/1 actions
    make a and a^2 one column, so the ridge splits their coefficients
    arbitrarily there (about 1e-7 apart)."""
    env, _, target, ds = case
    synthetic = None
    if with_synthetic:
        starts = ds.initial_states()[::3]
        synthetic = env.rollout_batch(target, starts, ds.horizon, np.random.default_rng(33))
    assert_all_equal(
        transition_rows(ds, synthetic), per_trajectory_transition_rows(ds, synthetic)
    )
    width, T = 2 * 6 + 1, ds.batch.states.shape[1]  # [X | r | gamma Phi] at p = 6
    monkeypatch.setattr("ope_ci.baselines._BLOCK_CELLS", 1 << 40)
    one = fit_q(ds, target, FittedQSpec(), synthetic)
    monkeypatch.setattr("ope_ci.baselines._BLOCK_CELLS", 7 * width * T)
    assert len(_row_blocks(len(ds), 7)) == 9
    blocked = fit_q(ds, target, FittedQSpec(), synthetic)
    states, actions = ds.batch.flatten()[:2]
    want = one.q_values(states, actions)
    np.testing.assert_allclose(
        blocked.q_values(states, actions), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
    )
    if not isinstance(env, FiniteMdp):
        np.testing.assert_allclose(blocked.coef, one.coef, rtol=1e-12, atol=0)


def test_score_pairs_match_per_trajectory_pairs(case):
    env, behavior, target, ds = case
    pairs = generation_score_pairs(
        OracleModel(env), behavior, target, ds, 2, np.random.default_rng(34)
    )
    starts = np.repeat(ds.initial_states(), 2, axis=0)
    gen = OracleModel(env).rollout_batch(
        behavior, starts, ds.horizon, np.random.default_rng(34)
    )
    reals = list(ds)
    assert len(pairs) == 2 * len(reals)
    for k in range(len(pairs)):
        real, fake = reals[k // 2], gen.trajectory(k)
        assert tuple(pairs.states[k]) == real.initial_state == fake.initial_state
        assert pairs.scores[k] == pytest.approx(
            trajectory_return(real, ds.discount) - trajectory_return(fake, ds.discount),
            rel=1e-12, abs=1e-9,
        )
        assert pairs.ratios[k] == pytest.approx(
            likelihood_ratio(real, target, behavior)
            * likelihood_ratio(fake, target, behavior),
            rel=1e-12,
        )


def test_jsonl_round_trip(case, tmp_path):
    *_, ds = case
    path = tmp_path / "data.jsonl"
    write_jsonl_dataset(ds, path)
    back = read_jsonl_dataset(path)
    assert (back.discount, back.horizon) == (ds.discount, ds.horizon)
    # the reader pads to the longest trajectory, the simulator to the horizon
    b, T = ds.batch, ds.batch.lengths.max()
    assert_all_equal(
        [back.batch.states, back.batch.actions, back.batch.rewards, back.batch.lengths],
        [b.states[:, :T], b.actions[:, :T], b.rewards[:, :T], b.lengths],
    )
    assert list(back) == list(ds)
