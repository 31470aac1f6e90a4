#!/usr/bin/env python3
"""Coverage-study table for the inventory environment: a preset of
``ope-ci coverage`` that fixes ``--env inventory``, ``--method`` with the
eleven DEFAULT_METHODS, ``--n 200 --trials 100 --seed 1``.  Any other
``coverage`` flag passes through, and a later flag overrides a preset one.

    python scripts/run_inventory_tables.py --out inventory_table.csv
"""
import sys

from ope_ci import cli

DEFAULT_METHODS = ["is:clt", "is:bootstrap", "wis:clt", "pdis:clt", "augis:clt", "dm", "dr",
                   "augdr", "drppi:is", "drppi:wis", "drppi:pdis"]
PRESET = ["--env", "inventory", "--method", *DEFAULT_METHODS,
          "--n", "200", "--trials", "100", "--seed", "1"]


def main(argv=None) -> int:
    return cli.main(["coverage", *PRESET, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
