"""Experiment driver: repeated-trial coverage studies across methods,
ground-truth computation with optional caching, and CSV/JSON emission.

Per-trial seeds come from a splitmix64 chain so trials never share generator
state regardless of execution order; the mix function is recorded in every
config digest.
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import aug_is_baseline, dm_baseline, dr_baseline, is_baseline
from .cpgen import EpsConfig, cp_gen_detailed
from .drppi import dr_ppi_estimates, interval_from_estimate
from .envs import (
    InventoryEnv,
    inventory_policy_pair,
    monte_carlo_value,
    oracle_value,
    small_finite_mdp,
)
from .mdp import ConfidenceInterval, State, TrajectoryDataset
from .models import GaussianRegressionModel, OracleModel, RewardOffsetModel
from .reweighting import CLIP_MODES, ClipPolicy, CorrectionKind

CACHE_ENV_VAR = "OPE_CI_CACHE_DIR"
SEED_MIX = "splitmix64-v1"
_MASK64 = (1 << 64) - 1
_GT_STREAM = 1 << 40  # sentinel index far outside any trial range


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, index: int) -> int:
    """64-bit mixed per-trial seed; collisions across indices are negligible."""
    return _splitmix64(_splitmix64(base & _MASK64) ^ (index & _MASK64))


def config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class EnvSpec:
    """Environment plus the policy pair and evaluation target for a study.

    ``s0`` switches the ground truth (and cpgen queries) to the value of that
    fixed initial state instead of the population value.
    """

    name: str
    env: object
    behavior: object
    target: object
    discount: float
    s0: State | None = None
    value_rollouts: int = 100_000

    def describe(self) -> dict:
        return {
            "name": self.name,
            "env": repr(self.env),
            "behavior": repr(self.behavior),
            "target": repr(self.target),
            "discount": self.discount,
            "s0": None if self.s0 is None else list(self.s0),
            "value_rollouts": self.value_rollouts,
        }


def make_env_spec(name: str, s0: State | None = None, discount: float = 1.0) -> EnvSpec:
    """Spec of a named environment; ``s0`` must lie in its state box, ``discount`` in (0, 1]."""
    if name == "inventory":
        env = InventoryEnv()
        behavior, target = inventory_policy_pair(env.params.capacity)
    elif name == "finite":
        env, behavior, target = small_finite_mdp()
    else:
        raise ValueError(f"unknown environment {name!r}; use 'inventory' or 'finite'")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount must lie in (0, 1], got {discount}")
    lo, hi = env.state_box
    inside = s0 is None or np.shape(s0) == lo.shape and (lo <= s0).all() and (s0 <= hi).all()
    if not inside:
        raise ValueError(
            f"initial state {list(s0)} lies outside the state box {lo.tolist()}..{hi.tolist()}"
        )
    return EnvSpec(name, env, behavior, target, discount, s0)


_LEAST_COUNTS = {"n_model_rollouts": 2, "pairs_per_trajectory": 1, "cpgen_m": 1,
                 "cpgen_n_gen": 1, "cpgen_rollouts": 1, "n_synth": 0, "dm_rollouts": 2,
                 "n_boot": 100}
# each model kind and the one model field it reads besides ``model``
_MODEL_KINDS = {"gaussian": "model_degree", "oracle": None, "biased": "bias_fraction"}


@dataclass(frozen=True)
class StudyConfig:
    """Knobs shared by the method adapters; the CLI's settings flags are
    these fields, with these defaults."""

    model: str = "gaussian"  # "gaussian" | "oracle" | "biased"
    model_degree: int = 2
    bias_fraction: float = 0.2  # reward offset of the "biased" model, as a
    # fraction of the true mean return spread over the horizon
    n_model_rollouts: int = 1000
    pairs_per_trajectory: int = 8
    crossfit: bool = True
    clip: str = "auto"
    cpgen_m: int = 4
    cpgen_n_gen: int = 4
    cpgen_rollouts: int = 256
    n_synth: int | None = None  # None: 10x the dataset size
    dm_rollouts: int = 1000
    n_boot: int = 2000

    def __post_init__(self) -> None:
        """Refuse, before any work, an unknown model or clip, a count below the
        least the methods take, a degree other than 1 or 2 and a bias that is not finite."""
        for name, allowed in (("model", tuple(_MODEL_KINDS)), ("clip", CLIP_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(map(repr, allowed))}, "
                                 f"got {getattr(self, name)!r}")
        for name, least in _LEAST_COUNTS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.model_degree not in (1, 2):
            raise ValueError(f"model_degree must be 1 or 2, got {self.model_degree}")
        if not np.isfinite(self.bias_fraction):
            raise ValueError(f"bias_fraction must be finite, got {self.bias_fraction}")

    def clip_policy(self) -> ClipPolicy:
        return ClipPolicy(mode=self.clip)

    def describe(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class CoverageReport:
    method: str
    trials: int
    empirical_coverage: float
    mean_width: float
    mean_point_error: float
    ground_truth: float
    alpha: float
    config_digest: str


@dataclass(frozen=True)
class TrialDetails:
    lowers: np.ndarray
    uppers: np.ndarray
    points: np.ndarray
    variances: np.ndarray  # nan where the method has no plug-in variance
    covered: np.ndarray


def ground_truth_value(
    env_spec: EnvSpec, seed: int, cache_dir: str | Path | None = None
) -> float:
    """Exact value for the finite oracle; a cached high-budget Monte Carlo
    estimate otherwise."""
    if env_spec.name == "finite":
        return oracle_value(
            env_spec.env, env_spec.target, env_spec.discount, env_spec.s0
        )
    key = config_digest(
        {
            "env": env_spec.describe(),
            "target": repr(env_spec.target),
            "rollouts": env_spec.value_rollouts,
            "seed": seed,
        }
    )
    cache_dir = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV_VAR)
    cache_file = None
    if cache_dir:
        cache_file = Path(cache_dir) / f"ground_truth_{key}.json"
        if cache_file.exists():
            return float(json.loads(cache_file.read_text())["value"])
    rng = np.random.default_rng(derive_seed(seed, _GT_STREAM))
    value, _ = monte_carlo_value(
        env_spec.env,
        env_spec.target,
        env_spec.value_rollouts,
        rng,
        discount=env_spec.discount,
        initial_state=env_spec.s0,
    )
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(cache_file, json.dumps({"value": value}) + "\n")
    return value


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it
    into place: a concurrent reader sees no file or the whole file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class MethodResult:
    """One adapter call's output: the interval, the plug-in variance where the
    method has one, and the method's own record (cpgen's ``CpGenResult``)."""

    interval: ConfidenceInterval
    variance: float | None = None
    details: object = None


@dataclass(frozen=True)
class _Trial:
    """What a runner reads of one trial besides its qualifier and stream."""

    dataset: TrajectoryDataset
    alpha: float
    env_spec: EnvSpec
    config: StudyConfig
    ground_truth: float  # sets the offset of the "biased" model
    eps: EpsConfig

    def model(self):
        """The model factory: an unfitted model of the kind ``config.model``."""
        config, env = self.config, self.env_spec.env
        if config.model == "gaussian":
            return GaussianRegressionModel(degree=config.model_degree, state_box=env.state_box)
        if config.model == "oracle":
            return OracleModel(env)
        offset = config.bias_fraction * self.ground_truth / env.horizon
        return RewardOffsetModel(OracleModel(env), offset)

    def n_synth(self) -> int:  # None: 10x the dataset size
        return self.config.n_synth if self.config.n_synth is not None else 10 * len(self.dataset)


def _run_is(kind, trial: _Trial, bound, rng):
    env, config = trial.env_spec, trial.config
    return MethodResult(is_baseline(trial.dataset, env.behavior, env.target, trial.alpha,
                                    kind, bound, config.clip_policy(), rng, config.n_boot))


def _run_augis(trial: _Trial, bound, rng):
    env, config = trial.env_spec, trial.config
    return MethodResult(aug_is_baseline(
        trial.dataset, trial.model().fit(trial.dataset), env.behavior, env.target,
        trial.n_synth(), trial.alpha, bound, config.clip_policy(), rng,
        d0_sampler=env.env.sample_initial_states, n_boot=config.n_boot,
    ))


def _run_dm(trial: _Trial, bound, rng):
    env, config, dataset = trial.env_spec, trial.config, trial.dataset
    return MethodResult(dm_baseline(
        trial.model().fit(dataset), env.target, env.env.sample_initial_states,
        config.dm_rollouts, trial.alpha, rng, dataset.horizon, dataset.discount, config.n_boot,
    ))


def _run_dr(trial: _Trial, bound, rng, augment=False):
    env = trial.env_spec
    synthetic = (trial.model().fit(trial.dataset), trial.n_synth()) if augment else None
    return MethodResult(dr_baseline(trial.dataset, env.behavior, env.target, trial.alpha,
                                    augment=synthetic, clip=trial.config.clip_policy(), rng=rng))


def _run_drppi(trial: _Trial, corrections, rng):
    """One result per kind in ``corrections``, from one fold loop."""
    env = trial.env_spec
    estimates = dr_ppi_estimates(trial.dataset, env.behavior, env.target, trial.config,
                                 trial.model, rng, env.env.sample_initial_states, corrections)
    return [MethodResult(interval_from_estimate(value, variance, trial.alpha), variance)
            for value, variance in estimates]


def _run_cpgen(trial: _Trial, qualifier, rng):
    env, config = trial.env_spec, trial.config
    result = cp_gen_detailed(
        trial.dataset, env.behavior, env.target, env.s0, trial.alpha,
        M=config.cpgen_m, N_gen=config.cpgen_n_gen, n_pe_rollouts=config.cpgen_rollouts,
        cfg=trial.eps, model_factory=trial.model, rng=rng,
    )
    return MethodResult(result.interval, details=result)


class _Method(NamedTuple):
    qualifiers: tuple[str, ...]  # taken after a colon, the default first
    fields: tuple[str, ...]  # the StudyConfig fields that ``run`` reads
    run: Callable  # (trial, qualifier, rng) -> MethodResult; drppi's: see _run_drppi


_MODEL = ("model", "model_degree", "bias_fraction")
_BOUNDS = ("clt", "bootstrap")

# The method registry: each method's qualifiers (the interval bound of the
# baselines, drppi's correction; cpgen takes none), settings and runner.
METHODS = {
    **{kind.value: _Method(_BOUNDS, ("clip", "n_boot"), partial(_run_is, kind))
       for kind in (CorrectionKind.IS, CorrectionKind.WIS, CorrectionKind.PDIS)},
    "augis": _Method(_BOUNDS, (*_MODEL, "n_synth", "clip", "n_boot"), _run_augis),
    "dm": _Method(("bootstrap",), (*_MODEL, "dm_rollouts", "n_boot"), _run_dm),
    "dr": _Method(("clt",), ("clip",), _run_dr),
    "augdr": _Method(("clt",), (*_MODEL, "n_synth", "clip"), partial(_run_dr, augment=True)),
    "drppi": _Method(("pdis", "is", "wis"), (*_MODEL, "n_model_rollouts",
                     "pairs_per_trajectory", "crossfit", "clip"), _run_drppi),
    "cpgen": _Method((), (*_MODEL, "cpgen_m", "cpgen_n_gen", "cpgen_rollouts"), _run_cpgen),
}


def fields_read(name: str, model: str) -> set[str]:
    """The ``StudyConfig`` fields method ``name`` reads under the model kind
    ``model``: ``model_degree`` only under gaussian, ``bias_fraction`` only under biased."""
    return set(METHODS[name].fields) - {f for k, f in _MODEL_KINDS.items() if k != model}


def parse_method(method: str, env_spec: EnvSpec) -> tuple[str, str | None]:
    """``(name, qualifier)`` of a ``name[:qualifier]`` spec, the qualifier
    defaulted; ``ValueError`` for an unknown name or qualifier, and for
    cpgen on an ``env_spec`` without a fixed s0 (the CLI's ``--s0``)."""
    name, colon, qualifier = method.partition(":")
    if name not in METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {', '.join(METHODS)}")
    allowed = METHODS[name].qualifiers
    if colon and qualifier not in allowed:
        takes = f"the qualifier {' or '.join(allowed)}" if allowed else "no qualifier"
        raise ValueError(f"method {method!r}: {name} takes {takes}")
    if name == "cpgen" and env_spec.s0 is None:
        raise ValueError("cpgen studies need a fixed s0; pass its coordinates with --s0")
    if not colon:
        return name, allowed[0] if allowed else None
    return name, qualifier


def make_method(
    methods, env_spec: EnvSpec, config: StudyConfig, ground_truth: float,
    eps: EpsConfig = EpsConfig(),
):
    """Runner (dataset, alpha, rng) -> a MethodResult per spec in ``methods``;
    ``eps`` sets cpgen's ball radii.  Each spec runs on a deep copy of
    ``rng`` (it keeps ``spawn`` state), as it would alone, and the drppi
    specs share one copy and one fold loop."""
    parsed = [parse_method(spec, env_spec) for spec in methods]
    kinds = tuple(CorrectionKind(qualifier) for name, qualifier in parsed if name == "drppi")

    def run_all(dataset, alpha, rng):  # the drppi specs first, from one fold loop
        trial = _Trial(dataset, alpha, env_spec, config, ground_truth, eps)
        shared = iter(METHODS["drppi"].run(trial, kinds, copy.deepcopy(rng)) if kinds else ())
        return [next(shared) if name == "drppi"
                else METHODS[name].run(trial, qualifier, copy.deepcopy(rng))
                for name, qualifier in parsed]

    return run_all


def run_coverage_study(
    env_spec: EnvSpec,
    method,
    n_trajectories: int,
    trials: int,
    alpha: float,
    seed: int,
    config: StudyConfig = StudyConfig(),
    cache_dir: str | Path | None = None,
    return_details: bool = False,
):
    """Repeated-trial coverage of one method spec, or of a sequence of specs,
    against the ground truth; deterministic given ``seed``.

    Each trial draws one dataset from a derived seed, and every spec runs
    on it with a deep copy of the trial's method stream, so it sees the
    bytes it sees alone; the drppi corrections share their fold fits and
    rollouts.  A sequence gives a list of the one-spec results: reports, or
    (report, TrialDetails) pairs with ``return_details``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be at least 1, got {n_trajectories}")
    methods = (method,) if isinstance(method, str) else tuple(method)
    for spec in methods:  # refuse a bad spec before the ground truth
        parse_method(spec, env_spec)
    if not methods:
        raise ValueError("no method specs to study")
    ground_truth = ground_truth_value(env_spec, seed, cache_dir)
    run = make_method(methods, env_spec, config, ground_truth)

    lowers, uppers, points, variances = (np.empty((len(methods), trials)) for _ in range(4))
    covered = np.zeros((len(methods), trials), dtype=bool)
    for t in range(trials):
        trial_rng = np.random.default_rng(derive_seed(seed, t))
        data_rng, method_rng = trial_rng.spawn(2)
        dataset = env_spec.env.sample_dataset(
            env_spec.behavior, n_trajectories, data_rng, env_spec.discount
        )
        # cpgen's details, held into the next trial, pin ~2 MB of small-object
        # arenas at n=1600 and raise the study's peak RSS: keep the intervals
        results = [(r.interval, r.variance) for r in run(dataset, alpha, method_rng)]
        for k, (ci, variance) in enumerate(results):
            lowers[k, t], uppers[k, t], points[k, t] = ci.lower, ci.upper, ci.point
            variances[k, t] = np.nan if variance is None else variance
            covered[k, t] = ci.contains(ground_truth)

    study = {
        "env": env_spec.describe(),
        "n_trajectories": n_trajectories,
        "trials": trials,
        "alpha": alpha,
        "seed": seed,
        "seed_mix": SEED_MIX,
        "config": config.describe(),
    }
    studies = []
    for k, spec in enumerate(methods):
        report = CoverageReport(
            method=spec,
            trials=trials,
            empirical_coverage=float(covered[k].sum() / trials),
            mean_width=float((uppers[k] - lowers[k]).mean()),
            mean_point_error=float(np.abs(points[k] - ground_truth).mean()),
            ground_truth=float(ground_truth),
            alpha=alpha,
            config_digest=config_digest({**study, "method": spec}),
        )
        details = TrialDetails(lowers[k], uppers[k], points[k], variances[k], covered[k])
        studies.append((report, details) if return_details else report)
    return studies[0] if isinstance(method, str) else studies


CSV_COLUMNS = (
    "method",
    "trials",
    "coverage",
    "mean_width",
    "mean_point_error",
    "ground_truth",
    "alpha",
    "config_digest",
)


def _report_row(report: CoverageReport) -> dict:
    return {
        "method": report.method,
        "trials": report.trials,
        "coverage": report.empirical_coverage,
        "mean_width": report.mean_width,
        "mean_point_error": report.mean_point_error,
        "ground_truth": report.ground_truth,
        "alpha": report.alpha,
        "config_digest": report.config_digest,
    }


def emit_results(reports, path, fmt: str = "csv") -> None:
    """Write reports sorted by method name; floats go through repr so the
    emitted file parses back to identical values."""
    reports = sorted(reports, key=lambda r: r.method)
    if not reports:
        raise ValueError("no reports to emit")
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for report in reports:
            row = _report_row(report)
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in CSV_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
        return
    if fmt == "json":
        path.write_text(
            json.dumps([_report_row(r) for r in reports], indent=2) + "\n"
        )
        return
    raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
