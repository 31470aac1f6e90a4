"""In-memory span tracer that wraps the public functions of ``ope_ci``.

``install()`` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
a span: name, start, end, parent span and operation id.  A function is
wrapped under every module name it is bound to (``step_ratio_table`` lives
in ``reweighting`` but is also bound in ``cpgen`` and ``baselines``), and
spans are named after the defining module, so all call sites aggregate
under one ``<module>.<function>`` name.  Methods are wrapped as class
attributes and named ``<module>.<method>``.

A few wrappers also record a count taken from the arguments or the result
(rows, steps, cells, bytes) or, for ``conformal_band``, the peak traced
allocation.  A count that cannot be taken, say after a signature change,
raises out of the traced call and so fails the traced pass.  Spans stay in
memory until ``Tracer.dump`` writes them out.

``layer_metrics`` turns the spans of one pass into the per-layer numbers.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
import tracemalloc

MODULES = (
    "envs", "mdp", "models", "policies", "reweighting",
    "cpgen", "drppi", "baselines", "harness", "cli",
)

# Per-trajectory accessors run once per trajectory and would dominate both
# the span count and the tracing overhead; they are left unwrapped.
UNWRAPPED = frozenset({
    "mdp.Transition", "mdp.Trajectory",
    "mdp.RolloutBatch.trajectory", "mdp.trajectory_return",
})

TRIAL_SPAN = "harness.trial_method"


def _transitions(dataset) -> int:
    return sum(len(traj) for traj in dataset)


def _steps(batch) -> int:
    return int(batch.lengths.sum())


def _grid_points(grid) -> int:
    return len(grid.values) if grid.values is not None else grid.n_points


def _fit_q_counts(a, r):
    rows = _transitions(a["dataset"])
    if a["synthetic"] is not None:
        rows += _steps(a["synthetic"])
    sweeps = a["spec"].sweeps
    return {"rows": rows, "sweeps": sweeps if sweeps is not None else a["dataset"].horizon}


# span name -> f(bound arguments, result) -> {count name: value}
COUNTS = {
    "envs.rollout_batch": lambda a, r: {"steps": _steps(r)},
    "models.rollout_batch": lambda a, r: {"steps": _steps(r)},
    "mdp.trajectories": lambda a, r: {"transitions": _steps(a["self"])},
    "mdp.read_jsonl_dataset": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "mdp.write_jsonl_dataset": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "models.fit": lambda a, r: {"rows": _transitions(a["dataset"])},
    "policies.policy_probs": lambda a, r: {"rows": len(r)},
    "policies.policy_sample": lambda a, r: {"rows": len(r)},
    "reweighting.step_ratio_table": lambda a, r: {"cells": int(r[0].size)},
    "reweighting.bootstrap_interval": lambda a, r: {
        "resampled": int(a["n_boot"]) * len(a["samples"])
    },
    "cpgen.generation_score_pairs": lambda a, r: {"pairs": len(r)},
    "cpgen.conformal_band": lambda a, r: {
        "ball_cells": (len(a["cal_pairs"]) + _grid_points(a["grid"]))
        * len(a["train_pairs"])
    },
    "baselines.fit_q": _fit_q_counts,
}


def _rng_key(args, kwargs) -> str:
    """Identity of a dataset draw: the generator state it starts from."""
    for value in (*args, *kwargs.values()):
        state = getattr(getattr(value, "bit_generator", None), "state", None)
        if state is not None:
            return json.dumps(state, sort_keys=True, default=str)
    return ""


class Tracer:
    """Records spans as ``[name, start, end, parent, op, counts]`` lists."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._root = -1
        self._wrappers: dict[int, object] = {}

    def wrap(self, name: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        counter = COUNTS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        peak = name == "cpgen.conformal_band"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._root = index
            record = [name, 0.0, 0.0, parent, f"{self.process}:{self._root}", None]
            spans.append(record)
            stack.append(index)
            measure_peak = peak and not tracemalloc.is_tracing()
            if measure_peak:
                tracemalloc.start()
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if measure_peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counts = {}
            if measure_peak:
                counts["peak_mb"] = peak_bytes / 2**20
            if name == "envs.sample_dataset":
                counts["key"] = _rng_key(args, kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            if name == "harness.make_method" and callable(result):
                # the adapter it returns runs one trial's method call
                result = self.wrap(TRIAL_SPAN, result)
            record[5] = counts or None
            return result

        self._wrappers[key] = traced
        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        import importlib

        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in MODULES}
        owners = {mod.__name__: short for short, mod in modules.items()}
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_"):
                    continue
                short = owners.get(getattr(value, "__module__", None))
                if short is None:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{value.__name__}"
                    if name not in UNWRAPPED:
                        setattr(namespace, attr, self.wrap(name, value))
                elif inspect.isclass(value) and namespace is modules[short]:
                    self._wrap_methods(short, value)

    def _wrap_methods(self, short: str, cls) -> None:
        if f"{short}.{cls.__name__}" in UNWRAPPED or getattr(cls, "_is_protocol", False):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if f"{short}.{cls.__name__}.{attr}" not in UNWRAPPED:
                setattr(cls, attr, self.wrap(f"{short}.{attr}", value))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(paths) -> list[list]:
    """Spans of several processes, with parents re-indexed into one list."""
    spans = []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        offset = len(spans)
        for name, start, end, parent, op, counts in data:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op, counts])
    return spans


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one pass, keyed ``<module>.<function>.<stat>``.

    Self time is a span's duration minus the time covered by spans of other
    modules beneath it.  A call within the same module stays part of the
    caller's layer: ``policy_sample`` keeps the time of the policy's
    ``sample_batch`` method, and ``fit_q`` that of ``PolynomialQ.expected_q``
    but not of the ``policy_probs`` calls beneath it.  The program is
    single-threaded, so spans at one level never overlap.

    A derived number (a ratio or a trial percentile) is left out when the
    spans it is taken from are absent, so that it cannot read as 0.
    """
    # Children are recorded after their parents, so a reverse sweep sees
    # every span's own foreign time complete before adding it to the parent.
    foreign_ms = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            same = _module(spans[parent][0]) == _module(name)
            foreign_ms[parent] += foreign_ms[i] if same else (end - start) * 1e3
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, _, _, counts) in enumerate(spans):
        total = (end - start) * 1e3
        add(f"{name}.calls", 1)
        add(f"{name}.total_ms", total)
        add(f"{name}.self_ms", total - foreign_ms[i])
        for key, value in (counts or {}).items():
            if key == "peak_mb":
                out[f"{name}.peak_mb"] = max(out.get(f"{name}.peak_mb", 0.0), value)
            elif key != "key":
                add(f"{name}.{key}", value)

    draws = [c["key"] for n, *_, c in spans if n == "envs.sample_dataset" and c]
    if draws:
        out["envs.sample_dataset.distinct_ratio"] = len(set(draws)) / len(draws)

    lookups = [i for i, s in enumerate(spans) if s[0] == "harness.ground_truth_value"]
    misses = set()
    for name, _, _, parent, _, _ in spans:
        if name == "envs.monte_carlo_value":
            while parent >= 0 and spans[parent][0] != "harness.ground_truth_value":
                parent = spans[parent][3]
            misses.add(parent)
    hits = sum(1 for i in lookups if i not in misses)
    if lookups:
        out["harness.ground_truth_value.cache_hit_ratio"] = hits / len(lookups)

    trial_ms = []
    for i, span in enumerate(spans):
        if span[0] != "harness.run_coverage_study":
            continue
        children = [s for s in spans if s[3] == i]
        draws = [s for s in children if s[0] == "envs.sample_dataset"]
        runs = [s for s in children if s[0] == TRIAL_SPAN]
        if len(draws) == len(runs):
            trial_ms += [(run[2] - draw[1]) * 1e3 for draw, run in zip(draws, runs)]
    if trial_ms:
        out["harness.trial.p50_ms"] = _percentile(sorted(trial_ms), 50)
        out["harness.trial.p95_ms"] = _percentile(sorted(trial_ms), 95)
    return out
