#!/usr/bin/env python3
"""Coverage-study table for the inventory environment.

Runs every interval method over repeated trials against a Monte Carlo ground
truth and writes one CSV row per method (coverage, mean width, mean point
error).  The methods share each trial's dataset, and the drppi corrections
share their fold fits; every row equals that method's study run alone.
Reproduce the default table with:

    python scripts/run_inventory_tables.py --out inventory_table.csv
"""
from __future__ import annotations

import argparse
import sys
import time

from ope_ci.harness import StudyConfig, emit_results, make_env_spec, run_coverage_study

DEFAULT_METHODS = [
    "is:clt",
    "is:bootstrap",
    "wis:clt",
    "pdis:clt",
    "augis:clt",
    "dm",
    "dr",
    "augdr",
    "drppi:is",
    "drppi:wis",
    "drppi:pdis",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="trajectories per trial")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--model", default="gaussian", choices=["gaussian", "oracle"])
    parser.add_argument("--methods", nargs="*", default=DEFAULT_METHODS)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = make_env_spec("inventory")
    config = StudyConfig(model=args.model)
    start = time.time()
    reports = run_coverage_study(
        spec, args.methods, args.n, args.trials, args.alpha, args.seed,
        config=config, cache_dir=args.cache_dir,
    )
    for report in reports:
        print(
            f"{report.method:12s} coverage={report.empirical_coverage:6.3f} "
            f"width={report.mean_width:10.1f} "
            f"point_err={report.mean_point_error:9.1f}"
        )
    print(f"({time.time() - start:.1f}s for the study)")
    emit_results(reports, args.out, "csv")
    print(f"ground truth {reports[0].ground_truth:.2f}; table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
