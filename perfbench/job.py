"""Child process of the benchmark: one set-up or one job of a workload.

    python perfbench/job.py env RESULT
    python perfbench/job.py setup WORKLOAD SEED CACHE RESULT [SPANS]
    python perfbench/job.py job WORKLOAD SEED CACHE WORKDIR RESULT [SPANS]
    python perfbench/job.py cli SPANS -- ARGS...

``env`` imports the package once (so later imports find compiled bytecode)
and reports the library versions.  ``setup`` times the import of ``ope_ci``
plus the Monte Carlo ground truth written into the empty CACHE.  ``job``
imports ``ope_ci``, then times one pass of the workload's job against that
cache.  ``cli`` runs one ``ope-ci`` command with tracing on.  With SPANS the
process installs the tracer before any traced call and writes its spans
there when it finishes.  Results are written to RESULT as JSON.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.05
STUDIES = {
    # workload: (method, n, trials, s0)
    "drppi-n200": ("drppi:pdis", 200, 50, None),
    "cpgen-n1600": ("cpgen", 1600, 2, (5.0,)),
}
TABLE_N, TABLE_TRIALS = 200, 1


def _tracer(spans_path, process):
    if spans_path is None:
        return None
    import ope_ci
    from tracer import Tracer

    tracer = Tracer(process)
    tracer.install(ope_ci)
    return tracer


def _write(path, payload) -> None:
    Path(path).write_text(json.dumps(payload) + "\n")


def _env_spec(workload):
    from ope_ci.harness import make_env_spec

    s0 = STUDIES[workload][3] if workload in STUDIES else None
    return make_env_spec("inventory", s0=s0)


def cmd_env(result) -> None:
    import numpy as np

    import ope_ci

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write(result, {
        "ope_ci_file": ope_ci.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
    })


def _blas_threads(np):
    """Thread count OpenBLAS will use, asked from the bundled library."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_setup(workload, seed, cache, result, spans) -> None:
    start = time.perf_counter()
    import ope_ci.harness

    tracer = _tracer(spans, "setup")
    if workload != "cli":
        ope_ci.harness.ground_truth_value(_env_spec(workload), seed, cache)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans)
    _write(result, {"setup_s": setup_s})


def sha256_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _study(workload, seed, cache, workdir):
    from ope_ci.harness import StudyConfig, emit_results, run_coverage_study

    method, n, trials, _ = STUDIES[workload]
    config = StudyConfig(n_model_rollouts=1000, pairs_per_trajectory=8, crossfit=True)
    report, details = run_coverage_study(
        _env_spec(workload), method, n, trials, ALPHA, seed,
        config=config, cache_dir=cache, return_details=True,
    )
    out = Path(workdir) / "study.csv"
    emit_results([report], out)
    return {
        "coverage": report.empirical_coverage,
        "trials": trials,
        "lowers": details.lowers.tolist(),
        "uppers": details.uppers.tolist(),
        "digest": sha256_of(details.lowers.tobytes(), details.uppers.tobytes(), out.read_bytes()),
    }


def _table(seed, cache, workdir, script):
    out = Path(workdir) / "table.csv"
    code = script.main([
        "--n", str(TABLE_N), "--trials", str(TABLE_TRIALS), "--alpha", str(ALPHA),
        "--seed", str(seed), "--cache-dir", str(cache), "--out", str(out),
    ])
    lines = out.read_text().splitlines()
    return {
        "exit": code,
        "header": lines[0].split(","),
        "rows": [line.split(",") for line in lines[1:]],
        "digest": sha256_of(out.read_bytes()),
    }


def cmd_job(workload, seed, cache, workdir, result, spans) -> None:
    import ope_ci.harness  # noqa: F401  (import is set-up, not job)

    tracer = _tracer(spans, "job")
    script = None
    if workload == "table-n200":
        import importlib.util

        path = ROOT / "scripts" / "run_inventory_tables.py"
        spec = importlib.util.spec_from_file_location("run_inventory_tables", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
    cached = sorted(os.listdir(cache))
    start = time.perf_counter()
    try:
        if script is not None:
            out = _table(seed, cache, workdir, script)
        else:
            out = _study(workload, seed, cache, workdir)
    except Exception:  # a failed operation is counted, not fatal
        out = {"error": traceback.format_exc()}
    out["wall_s"] = time.perf_counter() - start
    out["cache_untouched"] = sorted(os.listdir(cache)) == cached
    if tracer is not None:
        tracer.dump(spans)
    _write(result, out)


def cmd_cli(spans, argv) -> int:
    import ope_ci.cli

    tracer = _tracer(spans, "cli")
    try:
        return ope_ci.cli.main(argv)
    finally:
        tracer.dump(spans)


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "env":
        cmd_env(rest[0])
    elif mode == "setup":
        workload, seed, cache, result, *spans = rest
        cmd_setup(workload, int(seed), cache, result, spans[0] if spans else None)
    elif mode == "job":
        workload, seed, cache, workdir, result, *spans = rest
        cmd_job(workload, int(seed), cache, workdir, result, spans[0] if spans else None)
    elif mode == "cli":
        return cmd_cli(rest[0], rest[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
