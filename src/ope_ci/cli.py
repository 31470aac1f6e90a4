"""Command-line interface.

Subcommands: ``simulate`` writes behavior datasets, ``cpgen`` and ``drppi``
compute intervals from a dataset file, ``baseline`` runs the comparison
estimators, and ``coverage`` drives repeated-trial studies.  Reruns with
identical flags and seed produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cpgen import EpsConfig
from .errors import OpeCiError
from .harness import (
    METHODS,
    StudyConfig,
    emit_results,
    fields_read,
    make_env_spec,
    make_method,
    parse_method,
    run_coverage_study,
)
from .mdp import read_jsonl_dataset, write_jsonl_dataset


# The flag behind each setting; an error message that starts with the
# setting's name shows the flag instead.  ``_setting`` enters each flag.
_FLAGS: dict[str, str] = {"discount": "--gamma"}


def _setting(parser, flag: str, field: str, config=StudyConfig(), **kwargs) -> None:
    """Declare ``flag`` as the ``config`` field ``field``, with its default."""
    _FLAGS[field] = flag
    parser.add_argument(flag, dest=field, default=getattr(config, field), **kwargs)


def _settings(args, specs) -> StudyConfig:
    """The ``StudyConfig`` of the subcommand's settings flags; a field the
    subcommand has no flag for keeps its default, and a non-default one that
    no method spec in ``specs`` reads is refused."""
    fields = StudyConfig.__dataclass_fields__
    config = StudyConfig(**{k: v for k, v in vars(args).items() if k in fields})
    read = set().union(*(fields_read(spec, config.model) for spec in specs))
    for field, declared in fields.items():
        if field not in read and getattr(config, field) != declared.default:
            raise OpeCiError(f"{field} is read by none of {', '.join(map(repr, specs))}")
    return config


def _parse_state(text: str, env: str) -> tuple[float, ...]:
    """``--s0``: one comma-separated number per coordinate of ``env``'s state."""
    dim = make_env_spec(env).env.state_box[0].size
    try:
        state = tuple(float(part) for part in text.split(","))
    except ValueError:
        state = ()
    if len(state) != dim:
        raise OpeCiError(f"--s0 takes {dim} comma-separated number(s) for {env}, got {text!r}")
    return state


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload) + "\n")


def _cmd_simulate(args) -> int:
    env_spec = make_env_spec(args.env, discount=args.gamma)
    policy = env_spec.behavior if args.policy == "behavior" else env_spec.target
    rng = np.random.default_rng(args.seed)
    dataset = env_spec.env.sample_dataset(policy, args.n, rng, args.gamma)
    write_jsonl_dataset(dataset, args.out, env=args.env)
    return 0


def _run_method(args, method: str, s0=None, eps=EpsConfig()):
    """Run one registry method on the ``--data`` file and return its
    ``MethodResult``; a setting the method does not read is refused first."""
    config = _settings(args, [method])
    env_spec = make_env_spec(args.env, s0=s0)
    dataset = read_jsonl_dataset(args.data, env=args.env)
    # ground_truth only sets the offset of the "biased" model, not offered here
    run = make_method([method], env_spec, config, ground_truth=0.0, eps=eps)
    return run(dataset, args.alpha, np.random.default_rng(args.seed))[0]


def _cmd_cpgen(args) -> int:
    eps = EpsConfig(eps_state=args.eps_state, eps_score=args.eps_score)
    result = _run_method(args, "cpgen", s0=_parse_state(args.s0, args.env), eps=eps).details
    _write_json(
        args.out,
        {
            "point": result.point,
            "lo": result.interval.lower,
            "hi": result.interval.upper,
            "alpha": args.alpha,
            "n_cal_pairs": result.n_cal_pairs,
            "eps_s": result.eps_state,
            "eps_r": result.eps_score,
        },
    )
    return 0


def _write_interval(args, result, **extra) -> int:
    """Write a ``MethodResult`` record, then ``extra``, to ``--out``."""
    ci = result.interval
    _write_json(args.out, {"estimate": ci.point, "variance": result.variance,
                           "lo": ci.lower, "hi": ci.upper, "alpha": args.alpha, **extra})
    return 0


def _cmd_drppi(args) -> int:
    result = _run_method(args, f"drppi:{args.correction}")
    return _write_interval(args, result, correction=args.correction, crossfit=args.crossfit)


def _cmd_baseline(args) -> int:
    """``--bound`` defaults to the method's own bound, which the JSON records."""
    bound = args.bound or next(iter(METHODS[args.method].qualifiers))
    if bound not in METHODS[args.method].qualifiers:
        raise OpeCiError(f"--bound {bound} is not available for --method {args.method}")
    result = _run_method(args, f"{args.method}:{bound}")
    return _write_interval(args, result, method=args.method, bound=bound)


def _cmd_coverage(args) -> int:
    # --s0 is cpgen's initial state; the other methods estimate the population value
    population = [spec for spec in args.method if spec.partition(":")[0] != "cpgen"]
    if args.s0 is not None and population:
        raise OpeCiError(f"--s0 applies to cpgen only, not to {population[0]!r}")
    s0 = _parse_state(args.s0, args.env) if args.s0 is not None else None
    env_spec = make_env_spec(args.env, s0=s0, discount=args.gamma)
    first = {}
    for spec in args.method:  # "is" twice, or "is" and "is:clt", would write one row twice
        key = parse_method(spec, env_spec)
        if key in first:
            raise OpeCiError(f"--method lists one method twice, as {first[key]!r} and {spec!r}")
        first[key] = spec
    reports = run_coverage_study(
        env_spec, args.method, args.n, args.trials, args.alpha, args.seed,
        config=_settings(args, args.method), cache_dir=args.cache_dir,
    )
    emit_results(reports, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ope-ci",
        description="Confidence intervals for off-policy evaluation with "
        "model-generated trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env(p):
        p.add_argument("--env", default="inventory", choices=["inventory", "finite"])

    def add_model(p):
        _setting(p, "--model", "model", choices=["gaussian", "oracle"])
        _setting(p, "--degree", "model_degree", type=int)

    def add_drppi(p):
        _setting(p, "--Nf", "n_model_rollouts", type=int)
        _setting(p, "--M", "pairs_per_trajectory", type=int)
        _setting(p, "--crossfit", "crossfit", action=argparse.BooleanOptionalAction)
        _setting(p, "--clip", "clip", choices=["auto", "on", "off"])

    sim = sub.add_parser("simulate", help="sample a behavior dataset to JSON Lines")
    add_env(sim)
    sim.add_argument("--policy", default="behavior", choices=["behavior", "target"])
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--gamma", type=float, default=1.0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(fn=_cmd_simulate)

    cp = sub.add_parser("cpgen", help="conformal interval for one initial state")
    add_env(cp)
    add_model(cp)
    cp.add_argument("--data", required=True)
    cp.add_argument("--s0", required=True, help="comma-separated state coordinates")
    cp.add_argument("--alpha", type=float, default=0.05)
    _setting(cp, "--M", "cpgen_m", type=int)
    _setting(cp, "--Ngen", "cpgen_n_gen", type=int)
    _setting(cp, "--rollouts", "cpgen_rollouts", type=int)
    _setting(cp, "--eps-state", "eps_state", EpsConfig(), type=float)
    _setting(cp, "--eps-score", "eps_score", EpsConfig(), type=float)
    cp.add_argument("--seed", type=int, required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(fn=_cmd_cpgen)

    dr = sub.add_parser("drppi", help="cross-fitted interval for the population value")
    add_env(dr)
    add_model(dr)
    dr.add_argument("--data", required=True)
    corrections = list(METHODS["drppi"].qualifiers)
    dr.add_argument("--correction", default=corrections[0], choices=corrections)
    dr.add_argument("--alpha", type=float, default=0.05)
    add_drppi(dr)
    dr.add_argument("--seed", type=int, required=True)
    dr.add_argument("--out", required=True)
    dr.set_defaults(fn=_cmd_drppi)

    base = sub.add_parser("baseline", help="comparison estimators")
    add_env(base)
    add_model(base)
    base.add_argument("--data", required=True)
    # every registry method without a subcommand of its own; its qualifier is a bound
    baselines = [m for m in METHODS if m not in ("drppi", "cpgen")]
    base.add_argument("--method", required=True, choices=baselines)
    bounds = list(dict.fromkeys(b for m in baselines for b in METHODS[m].qualifiers))
    base.add_argument("--bound", choices=bounds, help="default: the method's own bound")
    base.add_argument("--alpha", type=float, default=0.05)
    _setting(base, "--clip", "clip", choices=["auto", "on", "off"])
    _setting(base, "--nsynth", "n_synth", type=int)
    _setting(base, "--rollouts", "dm_rollouts", type=int)
    _setting(base, "--nboot", "n_boot", type=int)
    base.add_argument("--seed", type=int, required=True)
    base.add_argument("--out", required=True)
    base.set_defaults(fn=_cmd_baseline)

    cov = sub.add_parser("coverage", help="repeated-trial coverage study")
    add_env(cov)
    cov.add_argument("--method", required=True, nargs="+", help="one or more method specs")
    _setting(cov, "--model", "model", choices=["gaussian", "oracle", "biased"])
    _setting(cov, "--bias", "bias_fraction", type=float, help="the biased model's reward offset")
    cov.add_argument("--n", type=int, required=True)
    cov.add_argument("--trials", type=int, required=True)
    cov.add_argument("--alpha", type=float, default=0.05)
    cov.add_argument("--gamma", type=float, default=1.0)
    cov.add_argument("--s0", default=None)
    add_drppi(cov)
    _setting(cov, "--nsynth", "n_synth", type=int)
    _setting(cov, "--Ngen", "cpgen_n_gen", type=int)
    cov.add_argument("--cache-dir", default=None, dest="cache_dir")
    cov.add_argument("--format", default="csv", choices=["csv", "json"])
    cov.add_argument("--seed", type=int, required=True)
    cov.add_argument("--out", required=True)
    cov.set_defaults(fn=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    alpha = getattr(args, "alpha", None)
    try:
        if alpha is not None and not 0.0 < alpha < 1.0:
            raise OpeCiError(f"--alpha must lie in (0, 1), got {alpha}")
        return args.fn(args)
    except (OpeCiError, ValueError, OSError) as exc:
        name, space, rest = str(exc).partition(" ")
        print(f"error: {_FLAGS.get(name, name)}{space}{rest}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
