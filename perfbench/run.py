#!/usr/bin/env python3
"""Benchmark of ope-ci: coverage studies, the inventory table and the CLI.

    python3 perfbench/run.py --workload drppi-n200 --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  A run repeats passes of the workload
while another one fits into ``--seconds``.  A pass is a set-up process (import of
``ope_ci`` plus the Monte Carlo ground truth written into a fresh, empty
cache) followed by a job process (one pass of the workload against that
cache), so set-up never inflates the job's memory or time.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the run environment,
sample counts and quartiles, and the SHA-256 digest of the outputs.

With ``--trace 1`` passes alternate between untraced and traced, and the
metrics are the per-layer numbers of the traced passes (see README.md).
A per-layer metric of a layer the workload reaches must be measured in every
traced pass.  The exit code is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from job import ALPHA, sha256_of
from tracer import layer_metrics, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE_ROWS = 11
# The cli set-up sample is the mean time of a batch of import-only set-ups:
# one import is short, and its time switches between two levels on a shared
# host, which a median of single imports follows in jumps.
CLI_SETUPS = 4
# A child still running this long after --seconds is killed as hung; a
# traced round of the slowest workload takes under 20 s.
HANG_MARGIN_S = 60
# Per-layer metrics of layers a workload does not reach, by name prefix; they
# read 0.  Every other per-layer metric must be measured in every traced pass,
# so that a function that is renamed or no longer called fails the run
# instead of reading as a drop to 0.
UNREACHED = {
    "drppi-n200": ("mdp.read_jsonl_dataset.", "mdp.write_jsonl_dataset.",
                   "reweighting.bootstrap_interval.", "cpgen.", "baselines.", "cli."),
    "cpgen-n1600": ("mdp.read_jsonl_dataset.", "mdp.write_jsonl_dataset.",
                    "reweighting.bootstrap_interval.", "drppi.", "baselines.", "cli."),
    "table-n200": ("mdp.read_jsonl_dataset.", "mdp.write_jsonl_dataset.", "cpgen.", "cli."),
    "cli": ("baselines.",),
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPE_CI_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, cwd, log, deadline) -> tuple[int, float, float]:
    """Run one Python process to completion: (exit code, seconds, max RSS in MB).

    ``os.wait4`` reaps the child so its own peak RSS is known; a timer kills
    it at the ``perf_counter`` deadline, and the wait still collects it.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def log_tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])


class Run:
    """Passes of one workload, their samples and the checks they failed."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.seed = seed
        self.workdir = workdir
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[bool, set[str]] = {False: set(), True: set()}
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.errors:
            self.errors.append(message)
        return ok

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def one_pass(self, traced: bool) -> None:
        self.passes += 1
        pdir = self.workdir / f"pass{self.passes}"
        cache = pdir / "cache"
        cache.mkdir(parents=True)
        span_files = []
        setups = CLI_SETUPS if self.workload == "cli" and not traced else 1
        setup_s = []
        for i in range(setups):
            span_file = [pdir / f"setup{i}.spans"] if traced else []
            code, _, _ = run_child(
                [HERE / "job.py", "setup", self.workload, self.seed, cache,
                 pdir / f"setup{i}.json", *span_file],
                pdir, pdir / f"setup{i}.log", self.deadline,
            )
            log = log_tail(pdir / f"setup{i}.log")
            if not self.check(code == 0, f"set-up exited {code}: {log}"):
                return
            setup_s.append(json.loads((pdir / f"setup{i}.json").read_text())["setup_s"])
            span_files += span_file
        if not traced:
            self.sample("setup_s", statistics.fmean(setup_s))
        if self.workload == "cli":
            wall, peak, digest = self.cli_pass(pdir, cache, traced, span_files)
        else:
            wall, peak, digest = self.study_pass(pdir, cache, traced, span_files)
        if wall is None:
            return
        self.digests[traced].add(digest)
        self.sample("traced_wall_s" if traced else "wall_s", wall)
        if traced:
            self.layers.append(layer_metrics(load_spans(span_files)))
        else:
            self.sample("peak_mb", peak)

    def study_pass(self, pdir, cache, traced, span_files):
        span_file = [pdir / "job.spans"] if traced else []
        result = pdir / "job.json"
        code, _, peak = run_child(
            [HERE / "job.py", "job", self.workload, self.seed, cache, pdir, result, *span_file],
            pdir, pdir / "job.log", self.deadline,
        )
        ops = TABLE_ROWS if self.workload == "table-n200" else 1
        self.attempted += ops
        log = log_tail(pdir / "job.log")
        if not self.check(code == 0 and result.exists(), f"job exited {code}: {log}"):
            self.failed += ops
            return None, None, None
        out = json.loads(result.read_text())
        if not self.check("error" not in out, f"job raised: {out.get('error')}"):
            self.failed += ops
            return None, None, None
        span_files += span_file
        self.check(out["cache_untouched"], "job did not find its ground truth in the pass cache")
        if self.workload == "table-n200":
            self.check_table(out)
        else:
            self.check_study(out)
        return out["wall_s"], peak, out["digest"]

    def check_study(self, out) -> None:
        pairs = list(zip(out["lowers"], out["uppers"]))
        self.check(
            all(math.isfinite(lo) and math.isfinite(hi) and lo <= hi for lo, hi in pairs),
            "a study interval is not finite or has lower > upper",
        )
        trials = out["trials"]
        floor = 1 - ALPHA - 3 * math.sqrt(ALPHA * (1 - ALPHA) / trials)
        self.check(
            out["coverage"] >= floor,
            f"coverage {out['coverage']} below {floor:.3f} (1-alpha minus 3 binomial "
            f"standard errors at {trials} trials)",
        )

    def check_table(self, out) -> None:
        rows = [dict(zip(out["header"], row)) for row in out["rows"]]
        self.check(out["exit"] == 0, f"table script returned {out['exit']}")
        self.check(len(rows) == TABLE_ROWS, f"table has {len(rows)} rows, not {TABLE_ROWS}")
        for row in rows:
            width, cover = float(row["mean_width"]), float(row["coverage"])
            self.check(
                math.isfinite(width) and width >= 0 and 0 <= cover <= 1
                and math.isfinite(float(row["mean_point_error"])),
                f"table row {row['method']} has a non-finite or negative interval",
            )

    def cli_commands(self, cache):
        """The README walkthrough: (metric name, ``ope-ci`` arguments) pairs."""
        rng = random.Random(self.seed)
        seed = [str(rng.randrange(2**31)) for _ in range(5)]
        alpha = str(ALPHA)
        coverage = [
            "coverage", "--env", "inventory", "--method", "drppi:pdis", "--n", "200",
            "--trials", "5", "--alpha", alpha, "--seed", seed[4], "--cache-dir", str(cache),
        ]
        return [
            ("cli.simulate.ms", ["simulate", "--env", "inventory", "--policy", "behavior",
                                 "--n", "500", "--seed", seed[0], "--out", "data.jsonl"]),
            ("cli.cpgen.ms", ["cpgen", "--data", "data.jsonl", "--s0", "5.0", "--alpha", alpha,
                              "--M", "4", "--Ngen", "4", "--rollouts", "256",
                              "--seed", seed[1], "--out", "cpgen.json"]),
            ("cli.drppi.ms", ["drppi", "--data", "data.jsonl", "--correction", "pdis",
                              "--Nf", "1000", "--M", "8", "--alpha", alpha, "--crossfit",
                              "--seed", seed[2], "--out", "drppi.json"]),
            ("cli.baseline.ms", ["baseline", "--data", "data.jsonl", "--method", "augis",
                                 "--bound", "bootstrap", "--seed", seed[3], "--out", "augis.json"]),
            ("cli.coverage.ms", [*coverage, "--out", "cov.csv"]),
            ("cli.coverage.warm_ms", [*coverage, "--out", "cov_warm.csv"]),
        ]

    def cli_pass(self, pdir, cache, traced, span_files):
        wall, peak, outputs = 0.0, 0.0, []
        for i, (metric, args) in enumerate(self.cli_commands(cache)):
            if traced:
                span_file = pdir / f"cli{i}.spans"
                argv = [HERE / "job.py", "cli", span_file, "--", *args]
                span_files.append(span_file)
            else:
                argv = ["-m", "ope_ci.cli", *args]
            code, elapsed, rss = run_child(argv, pdir, pdir / f"cli{i}.log", self.deadline)
            self.attempted += 1
            log = log_tail(pdir / f"cli{i}.log")
            if not self.check(code == 0, f"ope-ci {args[0]} exited {code}: {log}"):
                self.failed += 1
                return None, None, None
            wall += elapsed
            peak = max(peak, rss)
            if not traced:
                self.sample(metric, elapsed * 1e3)
            outputs.append(pdir / args[-1])
        for path in outputs:
            if path.suffix == ".json":
                result = json.loads(path.read_text())
                self.check(
                    math.isfinite(result["lo"]) and math.isfinite(result["hi"])
                    and result["lo"] <= result["hi"],
                    f"{path.name} holds a non-finite interval or lo > hi",
                )
        with open(pdir / "cov.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.check(len(rows) == 1 and math.isfinite(float(rows[0]["mean_width"])),
                   "coverage CSV does not hold one finite row")
        self.check((pdir / "cov.csv").read_bytes() == (pdir / "cov_warm.csv").read_bytes(),
                   "warm-cache coverage output differs from the cold run")
        return wall, peak, sha256_of(*(path.read_bytes() for path in outputs))


def layer_values(run: Run) -> dict[str, float]:
    """Median over the traced passes of each per-layer number.

    A number missing from some traced passes is left out, unless its layer is
    one the workload does not reach.
    """
    unreached = UNREACHED[run.workload]
    out = {}
    for name in {name for layer in run.layers for name in layer}:
        if name.startswith(unreached):
            out[name] = statistics.median(layer.get(name, 0.0) for layer in run.layers)
        elif all(name in layer for layer in run.layers):
            out[name] = statistics.median(layer[name] for layer in run.layers)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def environment(workdir: Path, seed: int, deadline: float) -> dict:
    code, _, _ = run_child([HERE / "job.py", "env", workdir / "env.json"], workdir,
                           workdir / "env.log", deadline)
    if code != 0:
        raise SystemExit(f"cannot import ope_ci from {ROOT / 'src'}:\n"
                         + (workdir / "env.log").read_text())
    info = json.loads((workdir / "env.json").read_text())
    imported = Path(info["ope_ci_file"]).resolve()
    if not imported.is_relative_to(ROOT / "src"):
        raise SystemExit(f"ope_ci imported from {imported}, not from {ROOT / 'src'}")
    info["ope_ci_file"] = str(imported.relative_to(ROOT))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    info.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu, seed=seed, git=git_state())
    return info


def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if sha.returncode != 0:
        return None
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "ope_ci", ROOT / "scripts" / "run_inventory_tables.py"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a source checkout", file=sys.stderr)
            return 2

    deadline = time.perf_counter() + args.seconds + HANG_MARGIN_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        env = environment(workdir, args.seed, deadline)
        run = Run(args.workload, args.seed, workdir, deadline)
        # A round is one pass, or an untraced pass and its traced twin in
        # alternating order.  No round starts that would, at the mean pace so
        # far, end after --seconds; the first round always runs.
        start = time.perf_counter()
        rounds = 0
        while not run.errors:
            order = [False, True][: 1 + args.trace]
            for traced in order[::-1] if rounds % 2 else order:
                run.one_pass(traced)
                if run.errors:
                    break
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(run, env, args)


def report(run: Run, env: dict, args) -> int:
    run.check(len(run.digests[False]) <= 1, "untraced passes gave different outputs")
    if args.trace:
        run.check(run.digests[True] == run.digests[False],
                  "traced outputs differ from untraced outputs")
    stats = {}
    for name, values in run.samples.items():
        q1, med, q3 = quartiles(values)
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}
    values = {name: stats[name]["median"] for name in stats}
    if args.trace:
        values.update(layer_values(run))
        if "wall_s" in values and "traced_wall_s" in values:
            values["trace.overhead_frac"] = values["traced_wall_s"] / values["wall_s"] - 1
        values["failed_frac"] = run.failed / max(run.attempted, 1)
    metrics = {}
    passes_failed = bool(run.errors)  # a failed pass leaves values out anyway
    for m in SPEC["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name not in values and not passes_failed:
            run.check(name.startswith(UNREACHED[run.workload]),
                      f"no value for {name}: not measured in every pass")
        metrics[name] = {"value": values.get(name, 0.0), "unit": m["unit"]}
    digest = next(iter(run.digests[False]), None)
    info = {
        "workload": run.workload, "passes": run.passes, "environment": env,
        "digest": digest, "samples": stats, "errors": run.errors,
    }
    result = {
        "correct": not run.errors,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
