"""IS, WIS and PDIS return corrections, ratio clipping, and the interval
primitives: one plug-in variance, one normal interval, the bootstrap.

``ClipPolicy.threshold`` is the one clip rule.  ``reweighted_returns`` reads
every correction kind from one step-ratio table, and ``_prefixes`` is the one
rule for clipped cumulative ratios: PDIS and the stepwise doubly-robust
baseline (through ``clipped_prefixes``) both read it."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateWeights, InsufficientSamples
from .mdp import ConfidenceInterval, TrajectoryDataset, _nonzero
from .policies import _BLOCK_CELLS, _row_blocks, policy_probs

_AUTO_MIN_N = 100  # sample count from which "auto" clipping is on
CLIP_MODES = ("auto", "on", "off")


class CorrectionKind(enum.Enum):
    IS = "is"
    WIS = "wis"
    PDIS = "pdis"


@dataclass(frozen=True)
class ClipPolicy:
    """Ratio clipping at sqrt(n).

    ``mode`` is "on", "off", or "auto"; auto clips once the sample count
    reaches 100.  ``threshold(n)`` is the one clip rule: exactly
    ``math.sqrt(n)`` when clipping applies to n samples, ``math.inf``
    otherwise.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in CLIP_MODES:
            raise ValueError("mode must be one of 'auto', 'on', 'off'")

    @classmethod
    def on(cls) -> "ClipPolicy":
        return cls(mode="on")

    @classmethod
    def off(cls) -> "ClipPolicy":
        return cls(mode="off")

    def threshold(self, n: int) -> float:
        clipped = self.mode == "on" or self.mode == "auto" and n >= _AUTO_MIN_N
        return math.sqrt(n) if clipped else math.inf


def clip_ratio(rho: float, n: int, clip: ClipPolicy) -> float:
    if rho < 0:
        raise ValueError("importance ratios must be nonnegative")
    return min(rho, clip.threshold(n))


def normal_quantile(p: float) -> float:
    """Standard normal quantile via the stdlib inverse CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    return NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# Per-step ratio tables.  Datasets may hold trajectories of different length;
# padded cells carry a neutral ratio of 1 and a reward of 0 and are masked by
# the lengths vector.


def step_ratio_table(
    dataset: TrajectoryDataset, target, behavior, rewards: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Returns (ratios (n, T), rewards (n, T) or ``None`` when ``rewards`` is
    false, lengths (n,)), where T is the longest trajectory's length.  Both
    policies' tables are built from the dataset's states."""
    b = dataset.batch
    T = int(b.lengths.max())
    mask = b.step_mask()[:, :T]
    states = b.states[:, :T][mask]
    actions = b.actions[:, :T][mask]
    p_behavior = _nonzero(policy_probs(behavior, states, actions))
    p_target = policy_probs(target, states, actions)
    ratios = np.ones((b.size, T))
    ratios[mask] = p_target / p_behavior
    return ratios, np.where(mask, b.rewards[:, :T], 0.0) if rewards else None, b.lengths


def trajectory_ratios(dataset: TrajectoryDataset, target, behavior) -> np.ndarray:
    """Full-trajectory likelihood ratios for every trajectory in the dataset."""
    return step_ratio_table(dataset, target, behavior, rewards=False)[0].prod(axis=1)


def reweighted_returns(
    dataset: TrajectoryDataset, target, behavior, kinds, clip: ClipPolicy = ClipPolicy()
) -> list[np.ndarray]:
    """One per-trajectory array per kind in ``kinds``, all read from one
    ``step_ratio_table``: ``is_returns``, ``wis_returns``, ``pdis_returns``."""
    table = step_ratio_table(dataset, target, behavior)
    n = len(dataset)
    rho = np.minimum(table[0].prod(axis=1), clip.threshold(n))
    out = []
    for kind in kinds:
        if kind is CorrectionKind.IS:
            out.append(rho * dataset.returns())
        elif kind is CorrectionKind.WIS:
            if rho.sum() == 0.0:
                raise DegenerateWeights("all importance ratios are zero")
            out.append(n * rho / rho.sum() * dataset.returns())
        elif kind is CorrectionKind.PDIS:
            prefixes, rewards, gammas, mask = _prefixes(table, dataset, clip)
            # grouped as gamma * (prefix * reward) so the stepwise doubly-robust
            # value with a zero Q reduces to this expression bit for bit
            out.append((gammas * (prefixes * rewards) * mask).sum(axis=1))
        else:
            raise ValueError(f"unknown correction kind {kind!r}")
    return out


def is_returns(
    dataset: TrajectoryDataset, target, behavior, clip: ClipPolicy = ClipPolicy()
) -> np.ndarray:
    """Per-trajectory clipped ratio times return."""
    return reweighted_returns(dataset, target, behavior, [CorrectionKind.IS], clip)[0]


def wis_returns(
    dataset: TrajectoryDataset, target, behavior, clip: ClipPolicy = ClipPolicy()
) -> np.ndarray:
    """Self-normalized variant: n * rho_i / sum(rho) * return_i.

    Ratios are clipped before normalization; normalization happens within
    whatever sample set the function is handed.
    """
    return reweighted_returns(dataset, target, behavior, [CorrectionKind.WIS], clip)[0]


def pdis_returns(
    dataset: TrajectoryDataset, target, behavior, clip: ClipPolicy = ClipPolicy()
) -> np.ndarray:
    """Per-decision values: sum_t gamma^(t-1) * clipped prefix ratio * r_t."""
    return reweighted_returns(dataset, target, behavior, [CorrectionKind.PDIS], clip)[0]


def _prefixes(table, dataset: TrajectoryDataset, clip: ClipPolicy):
    """``clipped_prefixes`` of a ``step_ratio_table`` of ``dataset``."""
    ratios, rewards, lengths = table
    T = ratios.shape[1]
    # The cap applies to each cumulative prefix product; clipping one prefix
    # does not propagate into later prefixes.
    prefixes = np.minimum(np.cumprod(ratios, axis=1), clip.threshold(len(dataset)))
    mask = np.arange(T)[None, :] < lengths[:, None]
    return prefixes, rewards, dataset.discount ** np.arange(T), mask


def clipped_prefixes(
    dataset: TrajectoryDataset, target, behavior, clip: ClipPolicy = ClipPolicy()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (prefixes (n, T), rewards (n, T), gammas (T,), mask (n, T)):
    the cumulative ratios rho_{1:t}, each clipped at ``clip.threshold(n)``,
    the rewards, the discounts gamma^(t-1) and the valid steps."""
    return _prefixes(step_ratio_table(dataset, target, behavior), dataset, clip)


# ---------------------------------------------------------------------------
# Interval primitives.


def _plug_in_variance(strata) -> float:
    """Sum of w^2 * var / n over ``(w, var, n)`` strata, in the order given."""
    return sum(w * w * var / n for w, var, n in strata)


def _normal_interval(point: float, se: float, alpha: float) -> ConfidenceInterval:
    """point +/- z_{1-alpha/2} * se."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    half = normal_quantile(1.0 - alpha / 2.0) * se
    return ConfidenceInterval(point - half, point + half, 1.0 - alpha, point=point)


def clt_interval(samples, alpha: float) -> ConfidenceInterval:
    """mean +/- z_{1-alpha/2} * sd / sqrt(n) with the n-1 sample deviation."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise InsufficientSamples("clt_interval needs at least 2 samples")
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    return _normal_interval(float(samples.mean()), se, alpha)


def _bootstrap_means(samples: np.ndarray, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Means of ``n_boot`` resamples of ``samples``, drawn in ``_row_blocks``
    of whole rows of at most ``_BLOCK_CELLS`` indices (one row when a row is
    larger).  ``Generator.integers`` gives one stream however a bounded draw
    is split into calls, and each mean sums its own row, so the means equal
    those of one ``(n_boot, n)`` draw bit for bit, in memory independent of
    ``n_boot``."""
    n = samples.size
    means = np.empty(n_boot)
    for rows in _row_blocks(n_boot, _BLOCK_CELLS // n):
        draw = rng.integers(0, n, size=(rows.stop - rows.start, n))
        means[rows] = samples[draw].mean(axis=1)
    return means


def _linear_quantiles(values: np.ndarray, qs) -> np.ndarray:
    """``np.quantile(values, qs)`` bit for bit (its ``linear`` rule, kth list
    and NaN) from one ``np.partition``, without the ``numpy.ma`` import (about
    17 ms) that ``np.quantile`` and ``np.unique`` make on first use."""
    n = values.size
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.where(virtual >= n - 1, -1.0, np.floor(virtual))  # -1: the last value
    gamma, lo = virtual - lo, lo.astype(np.intp)
    hi = np.where(lo < 0, lo, lo + 1)
    part = np.partition(values, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = part[lo], part[hi]
    out = a + (b - a) * gamma
    np.subtract(b, (b - a) * (1 - gamma), out=out, where=gamma >= 0.5)  # numpy's _lerp
    return np.where(np.isnan(part[-1]), part[-1], out)


def bootstrap_interval(
    samples,
    alpha: float,
    n_boot: int,
    rng: np.random.Generator,
) -> ConfidenceInterval:
    """Percentile bootstrap over resampled means."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise InsufficientSamples("bootstrap_interval needs at least 2 samples")
    if n_boot < 100:
        raise ValueError(f"n_boot must be at least 100, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    means = _bootstrap_means(samples, n_boot, rng)
    lo, hi = _linear_quantiles(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return ConfidenceInterval(
        float(lo), float(hi), 1.0 - alpha, point=float(samples.mean())
    )
