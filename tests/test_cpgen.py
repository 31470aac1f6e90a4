import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ope_ci import cpgen
from ope_ci.cpgen import (
    EpsConfig,
    GridSpec,
    ScorePair,
    ScorePairs,
    WeightedScoreDistribution,
    _eps_ball_weights,
    _pair_arrays,
    conformal_band,
    cp_gen_detailed,
    generation_score_pairs,
    resolve_eps,
    weighted_distribution,
)
from ope_ci.envs import oracle_value
from ope_ci.errors import DegenerateWeights, EmptyBand, NoTrainingPairs, UnboundedBand
from ope_ci.harness import StudyConfig, make_env_spec, make_method
from ope_ci.models import GaussianRegressionModel, OracleModel
from ope_ci.policies import _row_blocks

from oracles import (
    block_median_distance,
    dense_eps_ball_weights,
    nearest_k_mean,
    split_conformal_band,
    triangle_median_distance,
    weighted_quantile,
)


def pair(state, score, ratio=1.0):
    return ScorePair((float(state),), float(score), float(ratio))


def estimate_weight_eps(query_state, query_score, train_pairs, cfg=EpsConfig()):
    """The band's shift weight at one (initial state, score) query point."""
    eps_s, eps_r = resolve_eps(train_pairs, cfg)
    states, scores, ratios = _pair_arrays(train_pairs)
    return float(
        _eps_ball_weights(
            np.asarray([query_state], dtype=float),
            np.asarray([query_score], dtype=float),
            states, scores, ratios, eps_s, eps_r, cfg.k_nearest,
        )[0]
    )


class TestEstimateWeightEps:
    def test_constant_ratios_give_the_constant(self):
        pairs = [pair(0.1 * i, 0.0, 2.5) for i in range(10)]
        cfg = EpsConfig(eps_state=1.0, eps_score=1.0)
        assert estimate_weight_eps((0.5,), 0.0, pairs, cfg) == 2.5

    def test_ball_mean_by_hand(self):
        pairs = [pair(0.0, 0.0, 1.0), pair(0.1, 0.0, 3.0), pair(5.0, 0.0, 100.0)]
        cfg = EpsConfig(eps_state=0.5, eps_score=0.5)
        assert estimate_weight_eps((0.0,), 0.0, pairs, cfg) == pytest.approx(2.0)

    def test_far_query_falls_back_to_nearest_k(self, rng):
        pairs = [
            pair(rng.normal(), rng.normal(), float(rng.uniform(0.5, 2.0)))
            for _ in range(20)
        ]
        cfg = EpsConfig(eps_state=0.05, eps_score=0.05, k_nearest=5)
        got = estimate_weight_eps((25.0,), 40.0, pairs, cfg)
        want = nearest_k_mean((25.0,), 40.0, pairs, 0.05, 0.05, 5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_training_pairs_rejected(self):
        with pytest.raises(NoTrainingPairs):
            estimate_weight_eps((0.0,), 0.0, [], EpsConfig())

    @pytest.mark.parametrize("field", ["eps_state", "eps_score"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_radius_that_is_not_finite_and_positive_rejected(self, field, value):
        # a NaN radius fails every "<= 0" test, and would leave every ball empty
        with pytest.raises(ValueError, match=f"^{field} must be a finite positive number, got "):
            EpsConfig(**{field: value})

    def test_resolve_eps_uses_median_spread(self):
        pairs = [pair(x, 10.0 * x) for x in (0.0, 1.0, 2.0)]
        eps_s, eps_r = resolve_eps(pairs, EpsConfig())
        # pairwise state distances {1, 1, 2} -> median 1; scores scale by 10
        assert eps_s == pytest.approx(0.5)
        assert eps_r == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, 2, 3, 512, 513, 3200])
@pytest.mark.parametrize("width", [None, 1, 2], ids=["1-D", "one-column", "2-D"])
@pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "ties"])
@pytest.mark.parametrize("block_rows", [None, 1, 7], ids=["default", "row", "seven-rows"])
def test_median_distance_equals_triangle_formula(n, width, lattice, block_rows):
    """The triangle written from row blocks has the full matrix's distances,
    so its median equals the ``triu_indices`` one bit for bit."""
    rng = np.random.default_rng(n)
    values = rng.normal(0.0, 500.0, (n,) if width is None else (n, width))
    if lattice:
        values = np.round(values / 100.0)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(cpgen, "_BLOCK_CELLS", block_rows * min(values.size, 512 * values[0].size))
        got = cpgen._median_distance(values)
    assert got == triangle_median_distance(values)


def median_distance_values(n, width, kind):
    rng = np.random.default_rng(n + 7)
    values = rng.normal(0.0, 500.0, (n,) if width is None else (n, width))
    if kind == "duplicates":  # lattice values, -0.0 beside 0.0 among them
        values = np.round(values / 400.0)
        values[: n // 3] *= -1.0
    elif kind == "nan":
        values[0] = np.nan  # index 0 stays in every subsample
    return values


@pytest.mark.parametrize("n", [2, 512, 513, 3200])
@pytest.mark.parametrize("width", [None, 1, 2], ids=["1-D", "one-column", "2-D"])
@pytest.mark.parametrize("kind", ["continuous", "duplicates", "nan"])
def test_median_distance_equals_the_block_path(n, width, kind):
    """Sorted slices for one coordinate, blocks for two: the median has the
    bits of the triangle written from blocks with ``abs`` and masks."""
    values = median_distance_values(n, width, kind)
    got, want = cpgen._median_distance(values), block_median_distance(values)
    if kind == "nan":
        assert math.isnan(got) and math.isnan(want)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_median_distance_of_nan_is_nan():
    values = np.array([0.0, np.nan, 3.0, 1.0])
    assert math.isnan(cpgen._median_distance(values))
    assert math.isnan(triangle_median_distance(values))


def test_median_distance_imports_no_masked_arrays():
    """Neither the subsample of a set above 512 rows nor the median calls
    ``np.unique`` or ``np.median``, whose lazy import of ``numpy.ma`` costs
    the first call in each process 12-20 ms."""
    code = (
        "import sys, numpy as np, ope_ci\n"
        "from ope_ci.cpgen import _median_distance\n"
        "before = 'numpy.ma' in sys.modules\n"
        "_median_distance(np.arange(600.0))\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    path = [str(Path(cpgen.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


BOUNDARY_ROWS = 7  # chunk rows in the chunked-weight properties


@st.composite
def ball_queries(draw, shared_state=False):
    """Training pairs and queries for the epsilon-ball weights.  The two
    queries around the first boundary of ``_row_blocks(n_query,
    BOUNDARY_ROWS)`` (and, with a shared state, every query) sit far from the
    pairs when ``far`` is drawn, so their balls are empty and they fall back
    to the nearest pairs on both sides of the first chunk boundary."""
    d = draw(st.sampled_from([1, 2]))
    n_train = draw(st.integers(1, 40))
    n_query = draw(st.integers(1, 60).filter(lambda n: n % BOUNDARY_ROWS != 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_states = rng.normal(size=(n_train, d))
    t_scores = np.round(rng.normal(size=n_train), 1)
    t_ratios = rng.exponential(size=n_train)
    q_states = rng.normal(size=(1 if shared_state else n_query, d))
    q_scores = np.round(rng.normal(size=n_query), 1)
    if draw(st.booleans()):
        first = _row_blocks(n_query, BOUNDARY_ROWS)[0].stop
        q_scores[first - 1 : first + 1] = 50.0
        if shared_state:
            q_states[:] = 50.0
    eps_state = draw(st.floats(0.05, 2.0))
    eps_score = draw(st.floats(0.05, 2.0))
    k = draw(st.integers(1, 8))
    return q_states, q_scores, t_states, t_scores, t_ratios, eps_state, eps_score, k


def chunked_weights(args, rows=None):
    """``_eps_ball_weights`` with ``rows`` query rows per chunk (None: the
    library's default chunk)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(cpgen, "_BLOCK_CELLS", rows * args[4].shape[0])
        return _eps_ball_weights(*args)


class TestChunkedEpsBallWeights:
    @given(ball_queries())
    def test_matches_dense_oracle(self, args):
        got = chunked_weights(args, BOUNDARY_ROWS)
        want = dense_eps_ball_weights(*args)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @given(ball_queries())
    def test_identical_across_chunk_sizes(self, args):
        default = chunked_weights(args)
        for rows in (1, BOUNDARY_ROWS):
            assert np.array_equal(chunked_weights(args, rows), default)

    @given(ball_queries(shared_state=True))
    def test_shared_state_row_equals_tiled_rows(self, args):
        q_states, q_scores, *rest = args
        tiled = np.tile(q_states, (q_scores.size, 1))
        for rows in (None, BOUNDARY_ROWS):
            shared = chunked_weights(args, rows)
            assert np.array_equal(shared, chunked_weights((tiled, q_scores, *rest), rows))
        np.testing.assert_allclose(
            shared, dense_eps_ball_weights(tiled, q_scores, *rest), rtol=1e-12, atol=0
        )

    def test_memory_is_linear_in_pairs(self):
        # 3,200 calibration queries against 3,200 training pairs, the size of
        # an n=1600 cpgen trial; the dense matrices peak near 250 MB
        rng = np.random.default_rng(0)
        n = 3200
        args = (
            rng.uniform(0, 10, (n, 1)), rng.normal(0, 500, n),
            rng.uniform(0, 10, (n, 1)), rng.normal(0, 500, n),
            rng.exponential(size=n), 0.25, 25.0, 5,
        )
        tracemalloc.start()
        try:
            _eps_ball_weights(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_grid_call_memory_is_cache_sized(self):
        # the grid call of an n=1600 trial: one shared query state and 512
        # candidates against 3,200 training pairs, where the candidates with
        # an empty ball take the dense k-nearest fallback; in one chunk of
        # 2**20 cells they peaked near 23 MB
        rng = np.random.default_rng(0)
        n = 3200
        t_states, t_scores = rng.uniform(0, 10, (n, 1)), rng.normal(0, 500, n)
        t_ratios = rng.exponential(size=n)
        deltas = GridSpec().resolve(rng.normal(0, 500, n))
        query = np.array([[5.0]])
        args = (query, deltas, t_states, t_scores, t_ratios, 0.25, 25.0, 5)
        counts, _ = cpgen._ball_counts_and_sums(
            query[:, 0], deltas, t_states[:, 0], t_scores, t_ratios, 0.25, 25.0
        )
        assert (counts == 0).sum() >= 200
        tracemalloc.start()
        try:
            got = _eps_ball_weights(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        np.testing.assert_allclose(
            got, dense_eps_ball_weights(np.tile(query, (deltas.size, 1)), *args[1:]),
            rtol=1e-12, atol=0,
        )


class TestEmptyBallFallback:
    @pytest.mark.parametrize("shared", [True, False], ids=["grid", "calibration"])
    def test_empty_rows_skip_the_dense_sums(self, shared, monkeypatch):
        """1-D rows whose ball the tree found empty, and only they, go
        straight to ``_nearest_means``, whose weights equal the dense
        oracle's bit for bit; here most rows are empty."""
        rng = np.random.default_rng(4)
        n = 3200
        t_states, t_scores = rng.uniform(0, 10, (n, 1)), rng.normal(0, 500, n)
        t_ratios = rng.exponential(size=n)
        deltas = np.linspace(-8000.0, 8000.0, 512)
        q_states = np.array([[5.0]]) if shared else rng.uniform(0, 10, (512, 1))
        args = (q_states, deltas, t_states, t_scores, t_ratios, 0.25, 25.0, 5)
        tiled = np.broadcast_to(q_states, (deltas.size, 1))
        empty = dense_ball_counts(tiled, deltas, t_states, t_scores, 0.25, 25.0) == 0
        assert empty.mean() > 0.8

        fallback, rows = cpgen._nearest_means, []

        def counted(d_state, query_scores, *rest):
            rows.append(query_scores.size)
            return fallback(d_state, query_scores, *rest)

        monkeypatch.setattr(cpgen, "_nearest_means", counted)
        got = _eps_ball_weights(*args)
        assert sum(rows) == empty.sum()
        want = dense_eps_ball_weights(np.array(tiled), *args[1:])
        assert got[empty].tobytes() == want[empty].tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def dense_ball_counts(q_states, q_scores, t_states, t_scores, eps_state, eps_score):
    """Ball counts of the dense oracle's ``inside`` matrix."""
    d_state = np.sqrt(((q_states[:, None, :] - t_states[None, :, :]) ** 2).sum(-1))
    d_score = np.abs(q_scores[:, None] - t_scores[None, :])
    return ((d_state <= eps_state) & (d_score <= eps_score)).sum(axis=1)


@st.composite
def lattice_ball_queries(draw):
    """1-D pairs and queries on a 0.25 lattice with radii on it too, so states
    and scores tie and queries sit exactly at +-eps; a drawn shift moves every
    query score off the pairs' range, so every ball is empty, and a drawn
    scale makes some ratios 1e9 times the rest."""
    n_train = draw(st.sampled_from([1, 2, 3, 5, 40]))
    n_query = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def lattice(shape):
        return rng.integers(-8, 9, shape) * 0.25

    t_states, t_scores = lattice((n_train, 1)), lattice(n_train)
    q_states = lattice((1 if draw(st.booleans()) else n_query, 1))
    q_scores = lattice(n_query) + draw(st.sampled_from([0.0, 0.0, 50.0]))
    t_ratios = rng.exponential(size=n_train) ** 3
    if draw(st.booleans()):  # ball sums far below the prefix sums around them
        t_ratios[rng.random(n_train) < 0.2] *= 1e9
    eps_state = 0.25 * draw(st.integers(1, 4))
    eps_score = 0.25 * draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    return q_states, q_scores, t_states, t_scores, t_ratios, eps_state, eps_score, k


class TestOneDimensionalBallWeights:
    @given(lattice_ball_queries())
    def test_counts_exact_and_weights_match_dense_oracle(self, args):
        q_states, q_scores, t_states, t_scores, t_ratios, eps_state, eps_score, k = args
        tiled = np.tile(q_states, (q_scores.size // q_states.shape[0], 1))
        counts, _ = cpgen._ball_counts_and_sums(
            q_states[:, 0], q_scores, t_states[:, 0], t_scores, t_ratios,
            eps_state, eps_score,
        )
        assert np.array_equal(
            counts, dense_ball_counts(tiled, q_scores, t_states, t_scores, eps_state, eps_score)
        )
        np.testing.assert_allclose(
            _eps_ball_weights(*args),
            dense_eps_ball_weights(tiled, q_scores, *args[2:]),
            rtol=1e-12, atol=0,
        )

    def test_scales_to_twenty_thousand_pairs(self):
        # every query is a training pair, so no ball is empty and no row
        # reaches the dense fallback; a (queries x pairs) matrix would take
        # 3.2 GB
        rng = np.random.default_rng(3)
        n = 20_000
        states, scores = rng.uniform(0, 10, (n, 1)), rng.normal(0, 500, n)
        ratios = rng.exponential(size=n)
        order = rng.permutation(n)
        args = (states[order], scores[order], states, scores, ratios, 0.05, 5.0, 5)
        tracemalloc.start()
        try:
            got = _eps_ball_weights(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        counts, _ = cpgen._ball_counts_and_sums(
            states[order, 0], scores[order], states[:, 0], scores, ratios, 0.05, 5.0
        )
        assert counts.min() >= 1
        rows = rng.choice(n, 200, replace=False)
        np.testing.assert_allclose(
            got[rows],
            dense_eps_ball_weights(states[order][rows], scores[order][rows], *args[2:]),
            rtol=1e-12, atol=0,
        )


class TestWeightedDistribution:
    def test_uniform_fixture(self):
        pairs = [pair(0, v) for v in (1.0, 2.0, 3.0)]
        dist = weighted_distribution(pairs, [1.0, 1.0, 1.0], 1.0)
        assert np.allclose(dist.weights, [0.25, 0.25, 0.25])
        assert dist.tail_mass == 0.25

    def test_hand_normalization(self):
        pairs = [pair(0, 1.0), pair(0, 2.0)]
        dist = weighted_distribution(pairs, [1.0, 3.0], 2.0)
        assert np.allclose(dist.weights, [1 / 6, 3 / 6])
        assert dist.tail_mass == pytest.approx(2 / 6)

    def test_zero_query_weight_limit(self):
        pairs = [pair(0, 1.0), pair(0, 2.0)]
        dist = weighted_distribution(pairs, [1.0, 3.0], 0.0)
        assert dist.tail_mass == 0.0
        assert np.allclose(dist.weights, [0.25, 0.75])

    def test_zero_normalizer_rejected(self):
        with pytest.raises(DegenerateWeights):
            weighted_distribution([pair(0, 1.0)], [0.0], 0.0)

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12),
        st.floats(0.0, 10.0),
    )
    def test_masses_always_sum_to_one(self, weights, query_weight):
        if sum(weights) + query_weight == 0.0:
            return
        pairs = [pair(0, float(i)) for i in range(len(weights))]
        dist = weighted_distribution(pairs, weights, query_weight)
        assert abs(dist.weights.sum() + dist.tail_mass - 1.0) <= 1e-12


class TestWeightedQuantile:
    def dist(self):
        return WeightedScoreDistribution(
            np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.25, 0.25]), 0.25
        )

    def test_hand_cdf_lookup(self):
        # F(1) = .25, F(2) = .5: the .5 quantile is 2
        assert weighted_quantile(self.dist(), 0.5) == 2.0

    def test_small_beta_hits_smallest_score(self):
        assert weighted_quantile(self.dist(), 0.1) == 1.0

    def test_tail_absorbs_large_beta(self):
        assert weighted_quantile(self.dist(), 0.8) == math.inf

    @given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=6))
    def test_monotone_in_beta(self, betas):
        d = self.dist()
        betas = sorted(betas)
        values = [weighted_quantile(d, b) for b in betas]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestConformalBand:
    def test_unweighted_band_matches_order_statistics_exactly(self, rng):
        # uniform weights and a grid holding the scores themselves: the hull
        # must land exactly on the classical split-conformal order statistics
        for trial in range(25):
            n = int(rng.integers(20, 120))
            alpha = float(rng.choice([0.1, 0.2, 0.3]))
            scores = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            if math.ceil((1 - alpha / 2) * (n + 1)) > n:
                continue
            cal = [pair(0.0, v) for v in scores]
            lo, hi = conformal_band(
                cal, [], (0.0,), alpha,
                grid=GridSpec(values=tuple(np.sort(scores))),
                weight_fn=lambda s, v: 1.0,
            )
            want_lo, want_hi = split_conformal_band(scores, alpha)
            assert lo == want_lo
            assert hi == want_hi

    def test_single_score_band_contains_it(self):
        cal = [pair(0.0, 4.2)]
        lo, hi = conformal_band(
            cal, [], (0.0,), 0.2, grid=GridSpec(values=(4.2,)),
            weight_fn=lambda s, v: 1.0,
        )
        assert lo <= 4.2 <= hi

    def test_band_shrinks_as_alpha_grows(self, rng):
        scores = rng.standard_normal(80)
        train = [pair(rng.normal(), v, 1.0) for v in rng.standard_normal(60)]
        cal = [pair(rng.normal(), v) for v in scores]
        lo_wide, hi_wide = conformal_band(cal, train, (0.0,), 0.05)
        lo_narrow, hi_narrow = conformal_band(cal, train, (0.0,), 0.2)
        assert lo_wide <= lo_narrow and hi_narrow <= hi_wide

    def test_empty_band_raised_when_weights_pathological(self):
        # a query weight that swamps the calibration mass pushes the lower
        # quantile to +inf at every candidate, so nothing is accepted
        cal = [pair(0.0, v) for v in (0.0, 1.0)]
        with pytest.raises(EmptyBand):
            conformal_band(
                cal, [], (99.0,), 0.05, grid=GridSpec(values=(0.0, 1.0)),
                weight_fn=lambda s, v: 1e16 if s == (99.0,) else 1.0,
            )

    def test_unbounded_band_raised_on_default_grid_only(self):
        # ten unit calibration weights and a unit query weight: at alpha 0.01
        # the upper quantile is the +inf atom at every candidate, so the padded
        # grid's top candidate would stand as the band's upper end
        cal = [pair(0.0, v) for v in range(10)]
        with pytest.raises(UnboundedBand, match=r"N_gen \(--Ngen\) or a larger alpha"):
            conformal_band(cal, [], (0.0,), 0.01, weight_fn=lambda s, v: 1.0)
        # an explicit grid's top atom is the caller's choice and stands
        band = conformal_band(
            cal, [], (0.0,), 0.01, grid=GridSpec(values=(0.0, 9.0, 20.0)),
            weight_fn=lambda s, v: 1.0,
        )
        assert band == (0.0, 20.0)

    def test_band_membership_matches_quantile_composition(self, rng):
        # the band is the hull of the grid candidates at which building the
        # weighted distribution from single-query weights and testing the two
        # quantiles directly accepts the candidate
        train = [
            pair(rng.normal(), rng.normal(), float(rng.uniform(0.2, 3.0)))
            for _ in range(40)
        ]
        cal = [pair(rng.normal(), rng.normal()) for _ in range(25)]
        cfg = EpsConfig(eps_state=0.8, eps_score=0.8)
        alpha = 0.2
        cal_weights = [estimate_weight_eps(p.initial_state, p.score, train, cfg) for p in cal]
        accepted = []
        for delta in GridSpec().resolve(np.array([p.score for p in cal])):
            dist = weighted_distribution(
                cal, cal_weights, estimate_weight_eps((0.3,), delta, train, cfg)
            )
            lo_q = weighted_quantile(dist, alpha / 2)
            hi_q = weighted_quantile(dist, 1 - alpha / 2)
            if lo_q <= delta and (hi_q == math.inf or delta <= hi_q):
                accepted.append(float(delta))
        band = conformal_band(cal, train, (0.3,), alpha, cfg)
        assert band == (min(accepted), max(accepted))

    def test_batched_calibration_weights_match_single_queries(self, rng):
        # conformal_band weighs every calibration pair in one call; each row
        # must equal the weight of that pair queried on its own
        train = [pair(rng.normal(), rng.normal(), float(rng.uniform(0.5, 2))) for _ in range(50)]
        cal = [pair(rng.normal(), rng.normal()) for _ in range(30)]
        cfg = EpsConfig(eps_state=1.0, eps_score=1.0)
        cal_states, cal_scores, _ = _pair_arrays(cal)
        batched = _eps_ball_weights(
            cal_states, cal_scores, *_pair_arrays(train), 1.0, 1.0, cfg.k_nearest
        )
        for idx, p in enumerate(cal):
            redone = estimate_weight_eps(p.initial_state, p.score, train, cfg)
            assert batched[idx] == pytest.approx(redone, rel=1e-12)


class TestCpGenPipeline:
    def test_noiseless_degenerate_case(self, flat_reward_mdp):
        # oracle model, target = behavior, action-independent returns: every
        # score is 0, the band is [0, 0], and the interval is the true value
        mdp, behavior, _ = flat_reward_mdp
        ds = mdp.sample_dataset(behavior, 24, np.random.default_rng(0), 1.0)
        result = cp_gen_detailed(
            ds, behavior, behavior, (0.0,), alpha=0.1, M=2, N_gen=2,
            n_pe_rollouts=32, model_factory=lambda: OracleModel(mdp),
            rng=np.random.default_rng(1),
        )
        assert result.band_lower == pytest.approx(0.0, abs=1e-9)
        assert result.band_upper == pytest.approx(0.0, abs=1e-9)
        truth = oracle_value(mdp, behavior, 1.0)
        assert result.point == pytest.approx(truth, abs=1e-9)
        assert result.interval.contains(truth)

    def test_deterministic_under_seed(self, inventory_env, inventory_policies):
        behavior, target = inventory_policies
        ds = inventory_env.sample_dataset(behavior, 40, np.random.default_rng(3))
        kwargs = dict(
            M=2, N_gen=2, n_pe_rollouts=16,
            model_factory=lambda: GaussianRegressionModel(
                degree=2, state_box=inventory_env.state_box
            ),
        )
        r1 = cp_gen_detailed(ds, behavior, target, (5.0,), 0.1,
                             rng=np.random.default_rng(7), **kwargs)
        r2 = cp_gen_detailed(ds, behavior, target, (5.0,), 0.1,
                             rng=np.random.default_rng(7), **kwargs)
        assert r1 == r2

    def test_interval_is_point_plus_band(self, inventory_env, inventory_policies):
        behavior, target = inventory_policies
        ds = inventory_env.sample_dataset(behavior, 40, np.random.default_rng(8))
        result = cp_gen_detailed(
            ds, behavior, target, (5.0,), 0.1, M=2, N_gen=2, n_pe_rollouts=16,
            model_factory=lambda: GaussianRegressionModel(
                degree=2, state_box=inventory_env.state_box
            ),
            rng=np.random.default_rng(9),
        )
        assert result.interval.lower == pytest.approx(result.point + result.band_lower)
        assert result.interval.upper == pytest.approx(result.point + result.band_upper)
        assert result.n_cal_pairs == 20 * 2

    @pytest.mark.parametrize("name", ["M", "N_gen", "n_pe_rollouts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_generation_counts_below_one_rejected(self, flat_reward_mdp, name, value):
        mdp, behavior, _ = flat_reward_mdp
        ds = mdp.sample_dataset(behavior, 8, np.random.default_rng(0), 1.0)
        counts = {"M": 2, "N_gen": 2, "n_pe_rollouts": 4, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            cp_gen_detailed(
                ds, behavior, behavior, (0.0,), 0.1, **counts,
                model_factory=lambda: OracleModel(mdp), rng=np.random.default_rng(1),
            )

    def test_public_interval_matches_detailed(self, inventory_env, inventory_policies):
        # the harness (and so the coverage command) reports the detailed
        # pipeline's interval unchanged
        behavior, target = inventory_policies
        ds = inventory_env.sample_dataset(behavior, 24, np.random.default_rng(4))
        factory = lambda: GaussianRegressionModel(
            degree=2, state_box=inventory_env.state_box
        )
        run = make_method(
            ["cpgen"], make_env_spec("inventory", s0=(5.0,)),
            StudyConfig(cpgen_m=2, cpgen_n_gen=2, cpgen_rollouts=16), 0.0,
        )
        result = run(ds, 0.1, np.random.default_rng(5))[0]
        detail = cp_gen_detailed(
            ds, behavior, target, (5.0,), 0.1, M=2, N_gen=2, n_pe_rollouts=16,
            model_factory=factory, rng=np.random.default_rng(5),
        )
        assert result.interval == detail.interval
        assert result.details == detail
        assert result.variance is None


class TestGenerationScorePairs:
    def test_pair_count_and_initial_states(self, finite_fixture, rng):
        mdp, behavior, target = finite_fixture
        ds = mdp.sample_dataset(behavior, 6, rng, 0.9)
        pairs = generation_score_pairs(OracleModel(mdp), behavior, target, ds, 3, rng)
        assert len(pairs) == 18
        for i, start in enumerate(ds.batch.states[:, 0]):
            for m in range(3):
                assert tuple(pairs.states[i * 3 + m]) == tuple(start)

    def test_identity_policies_give_unit_ratios(self, finite_fixture, rng):
        mdp, behavior, _ = finite_fixture
        ds = mdp.sample_dataset(behavior, 5, rng, 0.9)
        pairs = generation_score_pairs(OracleModel(mdp), behavior, behavior, ds, 2, rng)
        assert (pairs.ratios == 1.0).all()

    def test_record_and_pair_list_give_the_same_band(self, inventory_env, inventory_policies):
        # the record holds the values a ScorePair per row held, and the band
        # and the weighted distribution read either form alike
        behavior, target = inventory_policies
        ds = inventory_env.sample_dataset(behavior, 40, np.random.default_rng(12))
        model = GaussianRegressionModel(degree=2, state_box=inventory_env.state_box).fit(ds)
        records = [
            generation_score_pairs(model, behavior, target, ds, 4, np.random.default_rng(s))
            for s in (13, 14)
        ]
        lists = [
            [ScorePair(tuple(s), float(v), float(r)) for s, v, r in zip(
                rec.states.tolist(), rec.scores, rec.ratios)]
            for rec in records
        ]
        for record, listed in zip(records, lists):
            assert len(record) == len(listed) == 160
            for got, want in zip(_pair_arrays(record), _pair_arrays(listed)):
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got, want)
        assert conformal_band(*records, (5.0,), 0.1) == conformal_band(*lists, (5.0,), 0.1)
        weights = np.linspace(0.5, 2.0, 160)
        by_record = weighted_distribution(records[0], weights, 1.0)
        by_list = weighted_distribution(lists[0], weights, 1.0)
        assert np.array_equal(by_record.scores, by_list.scores)

    @pytest.mark.parametrize(
        "states, scores, ratios, message",
        [
            (np.zeros((3, 1)), np.zeros(3), np.array([1.0, -0.5, 1.0]), "nonnegative"),
            (np.zeros((2, 1)), np.zeros(3), np.ones(3), "one row per pair"),
            (np.zeros((3, 1)), np.zeros(3), np.ones(4), "one row per pair"),
            (np.array([[0.0], [np.inf], [0.0]]), np.zeros(3), np.ones(3), "states must be finite"),
            (np.zeros((3, 1)), np.array([0.0, np.inf, 0.0]), np.ones(3), "scores must be finite"),
            (np.zeros((3, 1)), np.array([0.0, np.nan, 0.0]), np.ones(3), "scores must be finite"),
            (np.zeros((3, 1)), np.zeros(3), np.array([1.0, np.inf, 1.0]), "ratios must be finite"),
            (np.zeros((3, 1)), np.zeros(3), np.array([1.0, np.nan, 1.0]), "ratios must be finite"),
        ],
        ids=["negative-ratio", "short-states", "long-ratios", "inf-state", "inf-score",
             "nan-score", "inf-ratio", "nan-ratio"],
    )
    def test_record_rejects_bad_columns(self, states, scores, ratios, message):
        with pytest.raises(ValueError, match=message):
            ScorePairs(states, scores, ratios)

    @pytest.mark.parametrize(
        "state, score, ratio, message",
        [
            ((math.nan,), 0.0, 1.0, "states must be finite"),
            ((1.0,), math.inf, 1.0, "scores must be finite"),
            ((1.0,), math.nan, math.nan, "scores must be finite"),
            ((1.0,), 0.0, math.inf, "ratios must be finite"),
            ((1.0,), 0.0, math.nan, "ratios must be finite"),
            ((1.0,), 0.0, -0.5, "nonnegative"),
        ],
        ids=["nan-state", "inf-score", "nan-pair", "inf-ratio", "nan-ratio", "negative-ratio"],
    )
    def test_pair_rejects_what_the_record_rejects(self, state, score, ratio, message):
        with pytest.raises(ValueError, match=message):
            ScorePair(state, score, ratio)
