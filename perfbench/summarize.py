#!/usr/bin/env python3
"""Median and quartiles of each metric over several runs of the benchmark.

    python3 perfbench/summarize.py RESULT.json... > summary.json

Each RESULT is a file written by ``run.py --out``.  Runs are grouped by
workload and by trace mode; the spread is (q3 - q1) / median, as the
acceptance check computes it.
"""
from __future__ import annotations

import json
import sys

from run import quartiles


def summarize(paths) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        traced = "trace.overhead_frac" in run["result"]["metrics"]
        key = f"{run['info']['workload']} trace={int(traced)}"
        groups.setdefault(key, []).append(run)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0]["result"]["metrics"].items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, med, q3 = quartiles(values)
            metrics[name] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None, "values": values,
            }
        out[key] = {
            "runs": len(runs),
            "seeds": [run["info"]["environment"]["seed"] for run in runs],
            "all_correct": all(run["result"]["correct"] for run in runs),
            "digests": [run["info"]["digest"] for run in runs],
            "environment": runs[0]["info"]["environment"],
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
