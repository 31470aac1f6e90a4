"""Per-initial-state conformal value intervals from paired real/generated
trajectories (the `cpgen` estimator).

The pipeline: split the behavior data, fit a dynamics model on the first
half, pair every trajectory with model rollouts from the same initial state
under the behavior policy, estimate shift weights by averaging pair
likelihood ratios over an epsilon-ball of similar (initial state, score)
points, build the weighted score band, and shift it by a model-based point
estimate of the value at the queried initial state.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DatasetTooSmall, DegenerateWeights, EmptyBand, NoTrainingPairs, UnboundedBand
from .mdp import ConfidenceInterval, State, TrajectoryDataset, _fold
from .policies import _BLOCK_CELLS, _row_blocks
from .reweighting import trajectory_ratios

_EPS_FLOOR = 1e-9
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class ScorePair:
    """One (real, generated) trajectory pair reduced to what the band needs:
    the shared initial state, the return difference, and the pair ratio."""

    initial_state: State
    score: float
    pair_ratio: float

    def __post_init__(self) -> None:
        ScorePairs(*(np.array([v], dtype=float) for v in astuple(self)))


@dataclass(frozen=True, eq=False)
class ScorePairs:
    """Score pairs as columns: row i of ``states`` (pairs, state_dim) is pair
    i's shared initial state, ``scores[i]`` its return difference and
    ``ratios[i]`` its pair ratio.  ``generation_score_pairs`` returns one;
    the band accepts it or a list of ``ScorePair``."""

    states: np.ndarray
    scores: np.ndarray
    ratios: np.ndarray

    def __post_init__(self) -> None:
        n = self.scores.shape[0]
        if self.states.shape[0] != n or self.ratios.shape != (n,):
            raise ValueError("states, scores and ratios must have one row per pair")
        for name in ("states", "scores", "ratios"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if (self.ratios < 0).any():
            raise ValueError("pair ratios must be nonnegative")

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class EpsConfig:
    """Ball radii for weight estimation; ``None`` means resolve from data
    (half the median pairwise spread).  Empty balls fall back to the
    ``k_nearest`` pairs under the radius-scaled max distance."""

    eps_state: float | None = None
    eps_score: float | None = None
    k_nearest: int = 5

    def __post_init__(self) -> None:
        for name in ("eps_state", "eps_score"):
            eps = getattr(self, name)
            if eps is not None and not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"{name} must be a finite positive number, got {eps}")
        if self.k_nearest < 1:
            raise ValueError("k_nearest must be at least 1")


@dataclass(frozen=True)
class GridSpec:
    """Candidate scores for band inversion: either explicit values or a
    uniform grid padded beyond the calibration score range."""

    n_points: int = 512
    pad: float = 0.25
    values: tuple[float, ...] | None = None

    def resolve(self, scores: np.ndarray) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        lo, hi = float(scores.min()), float(scores.max())
        span = hi - lo
        return np.linspace(lo - self.pad * span, hi + self.pad * span, self.n_points)


@dataclass(frozen=True)
class WeightedScoreDistribution:
    """Discrete score distribution with an explicit point mass at +infinity."""

    scores: np.ndarray
    weights: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if scores.shape != weights.shape:
            raise ValueError("scores and weights must align")
        if (weights < 0).any() or self.tail_mass < 0:
            raise ValueError("masses must be nonnegative")
        total = weights.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "weights", weights)


def _pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(states, scores, ratios)`` of a ``ScorePairs`` or a list of
    ``ScorePair``."""
    if isinstance(pairs, ScorePairs):
        return pairs.states, pairs.scores, pairs.ratios
    states = np.array([p.initial_state for p in pairs], dtype=float)
    scores = np.array([p.score for p in pairs], dtype=float)
    ratios = np.array([p.pair_ratio for p in pairs], dtype=float)
    return states, scores, ratios


def _median_distance(values: np.ndarray) -> float:
    """Median pairwise distance, deterministically subsampled for large sets.

    The distances of pairs i < j fill one array of n(n-1)/2: of one
    coordinate, from one contiguous slice of the sorted values per value,
    otherwise from ``_row_blocks`` of at most ``_BLOCK_CELLS`` values.  Each
    is one the full n x n matrix holds (x - y is -(y - x) exactly), so the
    multiset and its median are too.
    """
    n = values.shape[0]
    if n < 2:
        return 0.0
    if n > 512:
        # Strictly increasing for n > 512, so no index repeats.
        values = values[np.linspace(0, n - 1, 512).astype(int)]
        n = 512
    upper = np.empty(n * (n - 1) // 2)
    done = 0
    if values.size == n:
        ordered = np.sort(values.ravel())
        for i in range(n - 1):
            np.subtract(ordered[i + 1 :], ordered[i], out=upper[done : done + n - 1 - i])
            done += n - 1 - i
        if values.ndim == 1:
            np.abs(upper, out=upper)
        else:
            np.sqrt(np.square(upper, out=upper), out=upper)
    else:
        for rows in _row_blocks(n - 1, _BLOCK_CELLS // values.size):
            top = rows.start
            diffs = np.sqrt(((values[top + 1 :][None] - values[rows][:, None]) ** 2).sum(-1))
            block = diffs[np.arange(top + 1, n)[None, :] > np.arange(top, rows.stop)[:, None]]
            upper[done : done + block.size] = block
            done += block.size
    mid = upper.size // 2  # np.median's partition (NaN last), without its numpy.ma import
    upper.partition([mid - 1, mid, -1])
    middle = upper[mid - 1 + upper.size % 2 : mid + 1]
    return math.nan if np.isnan(upper[-1]) else float(middle.mean())


def resolve_eps(train_pairs, cfg: EpsConfig) -> tuple[float, float]:
    if len(train_pairs) == 0:
        raise NoTrainingPairs("cannot resolve ball radii without training pairs")
    if cfg.eps_state is not None and cfg.eps_score is not None:
        return cfg.eps_state, cfg.eps_score
    states, scores, _ = _pair_arrays(train_pairs)
    eps_s = cfg.eps_state
    if eps_s is None:
        eps_s = max(0.5 * _median_distance(states), _EPS_FLOOR)
    eps_r = cfg.eps_score
    if eps_r is None:
        eps_r = max(0.5 * _median_distance(scores), _EPS_FLOOR)
    return eps_s, eps_r


def _state_distances(query_states: np.ndarray, train_states: np.ndarray) -> np.ndarray:
    return np.sqrt(((query_states[:, None, :] - train_states[None, :, :]) ** 2).sum(-1))


def _nearest_means(
    d_state: np.ndarray, query_scores: np.ndarray, train_scores: np.ndarray,
    train_ratios: np.ndarray, eps_state: float, eps_score: float, k: int,
) -> np.ndarray:
    """Empty-ball weights: each query's mean ratio of the ``k`` pairs nearest
    under the radius-scaled max distance, from ``(rows, pairs)`` state
    distances or one ``(1, pairs)`` row shared by every query."""
    d_score = np.abs(query_scores[:, None] - train_scores[None, :])
    scaled = np.broadcast_to(d_state, d_score.shape) / eps_state
    np.maximum(scaled, np.divide(d_score, eps_score, out=d_score), out=scaled)
    nearest = np.argpartition(scaled, k - 1, axis=1)[:, :k]
    return train_ratios[nearest].mean(axis=1)


def _window(
    sorted_values: np.ndarray, queries: np.ndarray, inside
) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the ``[start, stop)`` run of ascending ``sorted_values`` on
    which ``inside(query, value)`` holds.

    ``inside`` must compare a rounded distance that does not decrease with
    the value's distance from the query; it then holds on one run around the
    query, and bisecting with ``inside`` itself (rather than ``searchsorted``
    at ``query ± eps``) finds that run bit for bit.
    """
    n = sorted_values.size

    def first(test):
        lo = np.zeros(queries.shape, dtype=np.intp)
        hi = np.full(queries.shape, n, dtype=np.intp)
        for _ in range(n.bit_length()):
            mid = (lo + hi) >> 1
            live = lo < hi
            ok = test(sorted_values[np.minimum(mid, n - 1)])
            hi = np.where(live & ok, mid, hi)
            lo = np.where(live & ~ok, mid + 1, lo)
        return lo

    start = first(lambda v: (v >= queries) | inside(queries, v))
    stop = first(lambda v: (v > queries) & ~inside(queries, v))
    return start, stop


def _compensated_prefix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exclusive prefix sums of ``values`` as ``(sums, corrections)``.

    ``sums`` is the sequential ``cumsum`` and ``corrections`` the running sum
    of the rounding error of each of its additions (TwoSum, Knuth), so the
    difference of two prefixes keeps its relative accuracy even when both
    prefixes are much larger than it.
    """
    rows, width = values.shape
    sums = np.zeros((rows, width + 1))
    np.cumsum(values, axis=1, out=sums[:, 1:])
    corrections = np.zeros((rows, width + 1))
    before, added, after = sums[:, 1:-1], values[:, 1:], sums[:, 2:]
    added_rounded = after - before
    corrections[:, 2:] = (before - (after - added_rounded)) + (added - added_rounded)
    np.cumsum(corrections, axis=1, out=corrections)
    return sums, corrections


def _ball_counts_and_sums(
    query_states: np.ndarray,
    query_scores: np.ndarray,
    train_states: np.ndarray,
    train_scores: np.ndarray,
    train_ratios: np.ndarray,
    eps_state: float,
    eps_score: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Ball counts and ratio sums for 1-D states in O((Q + N) log N), with
    no (queries x pairs) matrix.

    Each ball is a rectangle in (state order, score order): ``_window``
    gives its state run and score run with the dense path's predicates.  A
    bottom-up merge-sort tree over state order, whose blocks hold their
    pairs' score ranks sorted, splits the state run into at most
    2·log2(N) aligned blocks; each block adds an exact count (a difference
    of ``searchsorted`` positions) and a nonnegative ratio sum (a difference
    of compensated prefix sums).  ``query_states`` holds one state per query
    score, or one state that every query score shares.
    """
    n = train_ratios.size
    by_state = np.argsort(train_states, kind="stable")
    by_score = np.argsort(train_scores, kind="stable")
    state_start, state_stop = _window(
        train_states[by_state], query_states,
        lambda q, t: np.sqrt((q - t) ** 2) <= eps_state,
    )
    score_start, score_stop = _window(
        train_scores[by_score], query_scores, lambda q, t: np.abs(q - t) <= eps_score
    )
    lo, hi = (np.broadcast_to(w, query_scores.shape) for w in (state_start, state_stop))

    size = 1 << (n - 1).bit_length()
    score_rank = np.empty(n, dtype=np.intp)
    score_rank[by_score] = np.arange(n)
    blocks = np.arange(size)  # padding ranks n.. lie past every score run
    blocks[:n] = score_rank[by_state]
    ratio_by_rank = np.zeros(size)
    ratio_by_rank[:n] = train_ratios[by_score]

    counts = np.zeros(query_scores.shape, dtype=np.intp)
    sums = np.zeros(query_scores.shape)
    width = 1
    while (lo < hi).any():
        blocks = np.sort(blocks.reshape(-1, width), axis=1, kind="stable")
        keys = (blocks + size * np.arange(size // width)[:, None]).ravel()
        prefix, correction = _compensated_prefix(ratio_by_rank[blocks])
        live = lo < hi
        for rows, block in (
            (np.flatnonzero(live & (lo % 2 == 1)), lo),
            (np.flatnonzero(live & (hi % 2 == 1)), hi - 1),
        ):
            b = block[rows]
            first = np.searchsorted(keys, b * size + score_start[rows]) - b * width
            stop = np.searchsorted(keys, b * size + score_stop[rows]) - b * width
            counts[rows] += stop - first
            sums[rows] += (prefix[b, stop] - prefix[b, first]) + (
                correction[b, stop] - correction[b, first]
            )
        lo = (lo + 1) >> 1
        hi = hi >> 1
        width *= 2
    return counts, sums


def _eps_ball_weights(
    query_states: np.ndarray,
    query_scores: np.ndarray,
    train_states: np.ndarray,
    train_scores: np.ndarray,
    train_ratios: np.ndarray,
    eps_state: float,
    eps_score: float,
    k_nearest: int,
) -> np.ndarray:
    """Mean pair ratio over the ball around each query; nearest-k fallback.

    ``query_states`` holds one row per query score, or a single row that
    every query score shares.  For 1-D states ``_ball_counts_and_sums``
    gives every ball, and only rows with an empty ball take the dense path,
    straight to ``_nearest_means``; for other dimensions every row takes it,
    through dense ball sums.  The dense path runs in ``_row_blocks`` of
    ``_BLOCK_CELLS // pairs`` rows (at least one), so each of its
    temporaries holds at most ``_BLOCK_CELLS`` cells (512 KB) or one row,
    and memory is linear in the number of pairs; each row's ball sum and
    k-nearest pick is a row-wise reduction, so its value does not depend on
    the chunk it lands in.
    """
    n_train = train_ratios.shape[0]
    k = min(k_nearest, n_train)
    shared = query_states.shape[0] == 1
    out = np.empty(query_scores.shape[0])
    dense = np.arange(out.size)
    if train_states.shape[1] == 1:
        counts, sums = _ball_counts_and_sums(
            query_states[:, 0], query_scores, train_states[:, 0], train_scores,
            train_ratios, eps_state, eps_score,
        )
        filled = counts > 0
        out[filled] = sums[filled] / counts[filled]
        dense = np.flatnonzero(~filled)
    d_shared = _state_distances(query_states, train_states) if shared else None
    for block in _row_blocks(dense.size, _BLOCK_CELLS // n_train):
        chunk = dense[block]
        d_state = d_shared if shared else _state_distances(query_states[chunk], train_states)
        if train_states.shape[1] > 1:
            d_score = np.abs(query_scores[chunk, None] - train_scores)
            inside = (d_state <= eps_state) & (d_score <= eps_score)
            counts = inside.sum(axis=1)
            filled = counts > 0
            sums = np.where(inside, train_ratios, 0.0).sum(axis=1)
            out[chunk[filled]] = sums[filled] / counts[filled]
            chunk, d_state = chunk[~filled], d_state if shared else d_state[~filled]
        out[chunk] = _nearest_means(
            d_state, query_scores[chunk], train_scores, train_ratios, eps_state, eps_score, k
        )
    return out


def weighted_distribution(
    cal_pairs, cal_weights, query_weight: float
) -> WeightedScoreDistribution:
    """Normalize calibration weights against the query weight; the query's
    share becomes the +infinity tail mass."""
    weights = np.asarray(cal_weights, dtype=float)
    if (weights < 0).any() or query_weight < 0:
        raise ValueError("weights must be nonnegative")
    total = weights.sum() + query_weight
    if total == 0.0:
        raise DegenerateWeights("weight normalizer is zero")
    _, scores, _ = _pair_arrays(cal_pairs)
    return WeightedScoreDistribution(scores, weights / total, query_weight / total)


def conformal_band(
    cal_pairs,
    train_pairs,
    query_state: State,
    alpha: float,
    cfg: EpsConfig = EpsConfig(),
    grid: GridSpec = GridSpec(),
    weight_fn=None,
) -> tuple[float, float]:
    """Weighted two-sided conformal band over score candidates.

    For each grid candidate delta the query weight is evaluated at
    (query_state, delta), the calibration weights (which do not depend on
    delta) are normalized against it, and delta is accepted when it lies
    between the alpha/2 and 1 - alpha/2 weighted quantiles.  The hull of
    accepted candidates is returned; on the default grid, ``UnboundedBand``
    is raised when the top candidate is accepted through the +inf tail.

    ``cal_pairs`` and ``train_pairs`` are ``ScorePairs`` records or lists
    of ``ScorePair``.  ``weight_fn(state_tuple, score) -> weight`` overrides
    the epsilon-ball estimator, e.g. with exactly enumerated weights.
    """
    if len(cal_pairs) == 0:
        raise ValueError("calibration pairs must be nonempty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    cal_states, cal_scores, _ = _pair_arrays(cal_pairs)
    query = np.asarray(query_state, dtype=float)

    if weight_fn is not None:
        cal_weights = np.array(
            [weight_fn(tuple(s), float(v)) for s, v in zip(cal_states, cal_scores)]
        )

        query_tuple = tuple(query)

        def query_weights(deltas: np.ndarray) -> np.ndarray:
            return np.array([weight_fn(query_tuple, float(d)) for d in deltas])

    else:
        if len(train_pairs) == 0:
            raise NoTrainingPairs("band construction needs training pairs")
        eps_s, eps_r = resolve_eps(train_pairs, cfg)
        t_states, t_scores, t_ratios = _pair_arrays(train_pairs)
        cal_weights = _eps_ball_weights(
            cal_states, cal_scores, t_states, t_scores, t_ratios,
            eps_s, eps_r, cfg.k_nearest,
        )

        def query_weights(deltas: np.ndarray) -> np.ndarray:
            return _eps_ball_weights(
                query[None, :], deltas, t_states, t_scores, t_ratios,
                eps_s, eps_r, cfg.k_nearest,
            )

    if (cal_weights < 0).any():
        raise ValueError("weights must be nonnegative")

    deltas = grid.resolve(cal_scores)
    q_weights = query_weights(deltas)
    total_cal = cal_weights.sum()
    if total_cal == 0.0 and (q_weights == 0.0).all():
        raise DegenerateWeights("all calibration and query weights are zero")

    order = np.argsort(cal_scores, kind="stable")
    sorted_scores = cal_scores[order]
    cum = np.cumsum(cal_weights[order])
    normalizer = total_cal + q_weights

    lo_target = (alpha / 2.0 - _MASS_TOL) * normalizer
    hi_target = (1.0 - alpha / 2.0 - _MASS_TOL) * normalizer
    lo_idx = np.searchsorted(cum, lo_target, side="left")
    hi_idx = np.searchsorted(cum, hi_target, side="left")
    n = sorted_scores.size
    lo_q = np.where(lo_idx < n, sorted_scores[np.minimum(lo_idx, n - 1)], math.inf)
    hi_q = np.where(hi_idx < n, sorted_scores[np.minimum(hi_idx, n - 1)], math.inf)

    atol = _MASS_TOL * max(1.0, float(np.abs(cal_scores).max()))
    accepted = (lo_q <= deltas + atol) & ((hi_q == math.inf) | (deltas <= hi_q + atol))
    if not accepted.any():
        raise EmptyBand("no grid candidate satisfied the band condition")
    if grid.values is None and accepted[-1] and hi_q[-1] == math.inf:
        raise UnboundedBand("the band has no finite upper end at this alpha; use a "
                            "larger N_gen (--Ngen) or a larger alpha")
    return float(deltas[accepted].min()), float(deltas[accepted].max())


# ---------------------------------------------------------------------------
# Full pipeline.


@dataclass(frozen=True)
class CpGenResult:
    interval: ConfidenceInterval
    band_lower: float
    band_upper: float
    point: float
    n_cal_pairs: int
    eps_state: float
    eps_score: float


def generation_score_pairs(
    model,
    behavior,
    target,
    dataset: TrajectoryDataset,
    per_trajectory: int,
    rng: np.random.Generator,
) -> ScorePairs:
    """Pair each real trajectory with ``per_trajectory`` model rollouts from
    its initial state under the behavior policy, in (trajectory, rollout)
    order, and reduce the pairs to one columnar ``ScorePairs``: row i is pair
    i's initial state, score and ratio.  The rollouts are folded (``mdp._fold``)
    into their returns and ratios: no generated batch is kept."""
    starts = np.repeat(dataset.initial_states(), per_trajectory, axis=0)
    returns, ratios = _fold(model, behavior, target, starts, dataset.horizon,
                            dataset.discount, rng)
    ratios *= np.repeat(trajectory_ratios(dataset, target, behavior), per_trajectory)
    return ScorePairs(starts, np.repeat(dataset.returns(), per_trajectory) - returns, ratios)


def cp_gen_detailed(
    dataset: TrajectoryDataset,
    behavior,
    target,
    initial_state: State,
    alpha: float,
    M: int = 4,
    N_gen: int = 4,
    n_pe_rollouts: int = 256,
    cfg: EpsConfig = EpsConfig(),
    *,
    model_factory,
    rng: np.random.Generator,
    grid: GridSpec = GridSpec(),
) -> CpGenResult:
    for name, value in (("M", M), ("N_gen", N_gen), ("n_pe_rollouts", n_pe_rollouts)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if len(dataset) < 4:
        raise DatasetTooSmall("the pipeline needs at least 4 trajectories")
    rng_train, rng_cal, rng_point = rng.spawn(3)

    train_data, cal_data = dataset.split_half()
    model = model_factory().fit(train_data)

    train_pairs = generation_score_pairs(model, behavior, target, train_data, M, rng_train)
    cal_pairs = generation_score_pairs(model, behavior, target, cal_data, N_gen, rng_cal)

    eps_s, eps_r = resolve_eps(train_pairs, cfg)
    resolved = EpsConfig(eps_s, eps_r, cfg.k_nearest)
    band_lo, band_hi = conformal_band(
        cal_pairs, train_pairs, initial_state, alpha, resolved, grid
    )

    starts = np.tile(np.asarray(initial_state, dtype=float), (n_pe_rollouts, 1))
    point = float(
        model.rollout_batch(target, starts, dataset.horizon, rng_point)
        .returns(dataset.discount)
        .mean()
    )
    interval = ConfidenceInterval(
        point + band_lo, point + band_hi, 1.0 - alpha, point=point
    )
    return CpGenResult(
        interval, band_lo, band_hi, point, len(cal_pairs), eps_s, eps_r
    )
