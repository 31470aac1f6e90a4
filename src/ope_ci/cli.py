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
    StudyConfig,
    emit_results,
    make_env_spec,
    make_method,
    run_coverage_study,
)
from .mdp import read_jsonl_dataset, write_jsonl_dataset


# The flag behind each setting; an error message that starts with the
# setting's name shows the flag instead.
_FLAGS = {"n_model_rollouts": "--Nf", "pairs_per_trajectory": "--M", "cpgen_m": "--M",
          "cpgen_n_gen": "--Ngen", "cpgen_rollouts": "--rollouts", "n_synth": "--nsynth",
          "n_boot": "--nboot", "eps_state": "--eps-state", "eps_score": "--eps-score"}


def _parse_state(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload) + "\n")


def _cmd_simulate(args) -> int:
    env_spec = make_env_spec(args.env, discount=args.gamma)
    policy = env_spec.behavior if args.policy == "behavior" else env_spec.target
    rng = np.random.default_rng(args.seed)
    dataset = env_spec.env.sample_dataset(policy, args.n, rng, args.gamma)
    write_jsonl_dataset(dataset, args.out, env=args.env)
    return 0


def _run_method(args, method: str, config: StudyConfig, s0=None, eps=EpsConfig()):
    """Run one registry method on the ``--data`` file and return its
    ``MethodResult``."""
    env_spec = make_env_spec(args.env, s0=s0)
    dataset = read_jsonl_dataset(args.data, env=args.env)
    # ground_truth only sets the offset of the "biased" model, not offered here
    run = make_method(method, env_spec, config, ground_truth=0.0, eps=eps)
    return run(dataset, args.alpha, np.random.default_rng(args.seed))


def _cmd_cpgen(args) -> int:
    config = StudyConfig(
        model=args.model,
        model_degree=args.degree,
        cpgen_m=args.M,
        cpgen_n_gen=args.Ngen,
        cpgen_rollouts=args.rollouts,
    )
    eps = EpsConfig(eps_state=args.eps_state, eps_score=args.eps_score)
    result = _run_method(args, "cpgen", config, s0=_parse_state(args.s0), eps=eps).details
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


def _cmd_drppi(args) -> int:
    config = StudyConfig(
        model=args.model,
        model_degree=args.degree,
        n_model_rollouts=args.Nf,
        pairs_per_trajectory=args.M,
        crossfit=args.crossfit,
        clip=args.clip,
    )
    result = _run_method(args, f"drppi:{args.correction}", config)
    _write_json(
        args.out,
        {
            "estimate": result.interval.point,
            "variance": result.variance,
            "lo": result.interval.lower,
            "hi": result.interval.upper,
            "alpha": args.alpha,
            "correction": args.correction,
            "crossfit": args.crossfit,
        },
    )
    return 0


def _cmd_baseline(args) -> int:
    config = StudyConfig(
        model=args.model,
        model_degree=args.degree,
        clip=args.clip,
        n_synth=args.nsynth,
        dm_rollouts=args.rollouts,
        n_boot=args.nboot,
    )
    interval = _run_method(args, f"{args.method}:{args.bound}", config).interval
    _write_json(
        args.out,
        {
            "estimate": interval.point,
            "variance": None,
            "lo": interval.lower,
            "hi": interval.upper,
            "alpha": args.alpha,
            "method": args.method,
            "bound": args.bound,
        },
    )
    return 0


def _cmd_coverage(args) -> int:
    s0 = _parse_state(args.s0) if args.s0 is not None else None
    env_spec = make_env_spec(args.env, s0=s0, discount=args.gamma)
    config = StudyConfig(
        model=args.model,
        n_model_rollouts=args.Nf,
        pairs_per_trajectory=args.M,
        crossfit=args.crossfit,
        clip=args.clip,
        n_synth=args.nsynth,
    )
    report = run_coverage_study(
        env_spec, args.method, args.n, args.trials, args.alpha, args.seed,
        config=config, cache_dir=args.cache_dir,
    )
    emit_results([report], args.out, args.format)
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
        p.add_argument("--model", default="gaussian", choices=["gaussian", "oracle"])
        p.add_argument("--degree", type=int, default=2)

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
    cp.add_argument("--M", type=int, default=4)
    cp.add_argument("--Ngen", type=int, default=4)
    cp.add_argument("--rollouts", type=int, default=256)
    cp.add_argument("--eps-state", type=float, default=None, dest="eps_state")
    cp.add_argument("--eps-score", type=float, default=None, dest="eps_score")
    cp.add_argument("--seed", type=int, required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(fn=_cmd_cpgen)

    dr = sub.add_parser("drppi", help="cross-fitted interval for the population value")
    add_env(dr)
    add_model(dr)
    dr.add_argument("--data", required=True)
    dr.add_argument("--correction", default="pdis", choices=["is", "wis", "pdis"])
    dr.add_argument("--Nf", type=int, default=1000)
    dr.add_argument("--M", type=int, default=8)
    dr.add_argument("--alpha", type=float, default=0.05)
    dr.add_argument("--crossfit", action=argparse.BooleanOptionalAction, default=True)
    dr.add_argument("--clip", default="auto", choices=["auto", "on", "off"])
    dr.add_argument("--seed", type=int, required=True)
    dr.add_argument("--out", required=True)
    dr.set_defaults(fn=_cmd_drppi)

    base = sub.add_parser("baseline", help="comparison estimators")
    add_env(base)
    add_model(base)
    base.add_argument("--data", required=True)
    base.add_argument(
        "--method",
        required=True,
        choices=["is", "wis", "pdis", "augis", "dm", "dr", "augdr"],
    )
    base.add_argument("--bound", default="clt", choices=["clt", "bootstrap"])
    base.add_argument("--alpha", type=float, default=0.05)
    base.add_argument("--clip", default="auto", choices=["auto", "on", "off"])
    base.add_argument("--nsynth", type=int, default=None)
    base.add_argument("--rollouts", type=int, default=1000)
    base.add_argument("--nboot", type=int, default=2000)
    base.add_argument("--seed", type=int, required=True)
    base.add_argument("--out", required=True)
    base.set_defaults(fn=_cmd_baseline)

    cov = sub.add_parser("coverage", help="repeated-trial coverage study")
    add_env(cov)
    cov.add_argument("--method", required=True)
    cov.add_argument("--model", default="gaussian", choices=["gaussian", "oracle", "biased"])
    cov.add_argument("--n", type=int, required=True)
    cov.add_argument("--trials", type=int, required=True)
    cov.add_argument("--alpha", type=float, default=0.05)
    cov.add_argument("--gamma", type=float, default=1.0)
    cov.add_argument("--s0", default=None)
    cov.add_argument("--Nf", type=int, default=1000)
    cov.add_argument("--M", type=int, default=8)
    cov.add_argument("--crossfit", action=argparse.BooleanOptionalAction, default=True)
    cov.add_argument("--clip", default="auto", choices=["auto", "on", "off"])
    cov.add_argument("--nsynth", type=int, default=None)
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
