#!/usr/bin/env python3
"""Augmentation-bias demonstration.

Generates synthetic trajectories from a deliberately reward-biased model and
compares two ways of using them: pooling them into the estimate (augmented
importance sampling) versus using them only through the cross-fitted
corrected estimator.  The pooled estimate inherits the model bias and stops
covering the truth; the corrected one keeps its coverage.

    python scripts/run_bias_demo.py --out bias_demo.csv
"""
from __future__ import annotations

import argparse
import sys

from ope_ci.harness import StudyConfig, emit_results, make_env_spec, run_coverage_study


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--bias", type=float, default=0.2,
        help="reward offset as a fraction of the true mean return",
    )
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = make_env_spec("inventory")
    config = StudyConfig(model="biased", bias_fraction=args.bias)
    reports = run_coverage_study(
        spec, ("augis:clt", "drppi:pdis"), args.n, args.trials, args.alpha, args.seed,
        config=config, cache_dir=args.cache_dir,
    )
    for report in reports:
        print(
            f"{report.method:12s} coverage={report.empirical_coverage:6.3f} "
            f"width={report.mean_width:10.1f}"
        )
    emit_results(reports, args.out, "csv")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
