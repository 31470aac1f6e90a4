#!/usr/bin/env python3
"""Augmentation-bias demonstration: a preset of ``ope-ci coverage`` that
studies, under a reward-biased model, pooling the model's trajectories into
the estimate (augis:clt) against using them only through the cross-fitted
correction (drppi:pdis); the pooled estimate inherits the bias and stops
covering the truth.  It fixes ``--env inventory --model biased``, those two
methods and ``--n 200 --trials 100 --seed 1``; ``--bias`` sets the offset,
any other ``coverage`` flag passes through, and a later flag overrides a
preset one.

    python scripts/run_bias_demo.py --out bias_demo.csv
"""
import sys

from ope_ci import cli

PRESET = ["--env", "inventory", "--model", "biased", "--method", "augis:clt", "drppi:pdis",
          "--n", "200", "--trials", "100", "--seed", "1"]


def main(argv=None) -> int:
    return cli.main(["coverage", *PRESET, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
