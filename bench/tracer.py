"""Outside-in tracing: spans recorded around the package's public functions.

The package itself carries no instrumentation. :func:`install` replaces each
traced function, in every ``panshuffle`` module namespace that binds it (and on
the class, for methods), with a wrapper that records a span while the
:class:`Recorder` is armed. Calls made while it is disarmed (workload set-up)
pass straight through and leave no span.

A span is ``(name, start, end, parent, task, stats)``: ``parent`` is the index
of the enclosing traced span or -1, ``task`` numbers the run of a benchmark
task that was going on (runs are numbered in order over all passes), and
``stats`` holds the counts observed at that boundary (returned dict sizes,
argument sizes). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict


def _vertices(args, kwargs, result) -> dict:
    first = args[0][0]
    size = len(getattr(first, "probs", first))
    return {"vertices": 2**size}


def _write_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Traced functions: (module, attribute path) -> what the span records besides its
# times: None, the name of an argument whose value is summed, or a callable
# mapping (args, kwargs, result) to a dict of stats.
TRACED = {
    ("exact", "audit_privacy"): None,
    ("exact", "exact_pan_view"): lambda a, k, r: {"joint_size_max": len(r)},
    ("exact", "exact_pan_states"): lambda a, k, r: {"states_out": len(r)},
    ("exact", "exact_pan_output"): None,
    ("exact", "hybrid_tv_certificate"): None,
    ("exact", "exact_shuffle_counts"): lambda a, k, r: {"support": len(r)},
    ("exact", "convolve_counts"): lambda a, k, r: {"pairs": len(a[0]) * len(a[1])},
    ("exact", "push_through_analyzer"): None,
    ("exact", "tv_dicts"): None,
    ("exact", "hockey_dicts"): None,
    ("metrics", "hockey_stick"): None,
    ("metrics", "infty_to_2_norm_bruteforce"): _vertices,
    ("metrics", "mutual_information"): None,
    ("baselines", "calibrate_rr"): lambda a, k, r: {
        "method_" + r.method.replace("-", "_"): 1
    },
    ("baselines", "CalibratedRR.audit_delta"): None,
    ("baselines", "rr_count_pmf"): None,
    ("baselines", "find_selection_threshold"): None,
    ("baselines", "selection_success_fast"): "trials",
    ("reductions", "ShuffleToPanWrapper.exact_output_distribution"): None,
    ("reductions", "wrapper_escape_mass"): None,
    ("reductions", "LearnerDistinguisher.run_batch"): "trials",
    ("reductions", "PlugInParityLearner.fit"): None,
    ("reductions", "threshold_distinguisher"): None,
    ("mechanisms", "run_pan"): None,
    ("mechanisms", "run_shuffle"): None,
    ("distributions", "sample"): "n",
    ("distributions", "densify"): None,
    ("rng", "make_generator"): lambda a, k, r: {"stage": a[4] if len(a) > 4 else None},
    ("harness", "run_spec"): None,
    ("harness", "write_rows_csv"): _write_bytes,
    ("cli", "main"): None,
}

# Stats renamed on output: the argument name is recorded, the metric says what it counts.
_STAT_NAMES = {"n": "rows"}


class Recorder:
    """In-memory span store with a parent stack; armed only inside timed passes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.armed = False
        self.task = -1

    def wrap(self, name: str, fn, extract):
        recorder = self
        arg_name = extract if isinstance(extract, str) else None
        signature = inspect.signature(fn) if arg_name else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.armed:
                return fn(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder.stack[-1] if recorder.stack else -1
            recorder.spans.append(None)
            recorder.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder.stack.pop()
                recorder.spans[index] = (name, start, end, parent, recorder.task, None)
            if arg_name is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stats = {arg_name: int(bound.arguments[arg_name])}
            elif extract is not None:
                stats = extract(args, kwargs, result)
            else:
                stats = None
            recorder.spans[index] = (name, start, end, parent, recorder.task, stats)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task, stats) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "task": task, "stats": stats,
                }) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a ``panshuffle`` module binds it."""
    import panshuffle  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "panshuffle" or n.startswith("panshuffle."))]
    for (module, attr), extract in TRACED.items():
        owner = sys.modules[f"panshuffle.{module}"]
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(name, original, extract))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, extract)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def layer_metrics(spans: list[tuple], passes: int, scale: list[float]) -> dict:
    """Per-layer metrics, averaged per pass, from a run's spans.

    ``self_s`` is a span's duration minus the durations of its traced child
    spans, scaled to the reference CPU speed by ``scale[task]``, the factor the
    pass times of the same task run were scaled by; it still holds the speed
    probe's readings, about 0.3% of it. Counts and sizes are summed (``*_max``
    stats take the maximum), then divided by the number of passes so runs of
    different length compare.
    Ratios count calls under an ancestor span per call of that ancestor.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, task, stats in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    sums: dict = defaultdict(float)
    maxes: dict = defaultdict(float)
    for i, (name, start, end, parent, task, stats) in enumerate(spans):
        calls[name] += 1
        self_s[name] += ((end - start) - child_time[i]) * scale[task]
        for key, value in (stats or {}).items():
            if key == "stage":
                continue
            metric = f"{name}.{_STAT_NAMES.get(key, key)}"
            if metric.endswith("_max"):
                maxes[metric] = max(maxes[metric], value)
            else:
                sums[metric] += value

    out: dict = {}
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for metric in EXTRA_STATS:
        if metric.endswith("_max"):
            out[metric] = float(maxes[metric])
        else:
            out[metric] = sums[metric] / passes

    def under(ancestor: str, child: str) -> int:
        count = 0
        for name, start, end, parent, task, stats in spans:
            if name != child:
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    audits = calls["exact.audit_privacy"]
    certs = calls["exact.hybrid_tv_certificate"]
    cals = calls["baselines.calibrate_rr"]
    out["exact.exact_pan_states.calls_per_audit"] = ratio(
        under("exact.audit_privacy", "exact.exact_pan_states"), audits)
    out["exact.exact_pan_states.calls_per_certificate"] = ratio(
        under("exact.hybrid_tv_certificate", "exact.exact_pan_states"), certs)
    out["baselines.rr_count_pmf.calls_per_calibration"] = ratio(
        under("baselines.calibrate_rr", "baselines.rr_count_pmf"), cals)
    confirms = sum(
        1 for name, start, end, parent, task, stats in spans
        if name == "rng.make_generator" and stats and stats.get("stage") == "confirm"
        and parent >= 0 and spans[parent][0] == "baselines.find_selection_threshold"
    )
    out["baselines.find_selection_threshold.confirm_attempts"] = confirms / passes
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


# Count metrics beyond calls/self_s.
EXTRA_STATS = [
    "exact.exact_pan_view.joint_size_max",
    "exact.exact_pan_states.states_out",
    "exact.exact_shuffle_counts.support",
    "exact.convolve_counts.pairs",
    "metrics.infty_to_2_norm_bruteforce.vertices",
    "baselines.calibrate_rr.method_exact_audit",
    "baselines.calibrate_rr.method_closed_form",
    "baselines.selection_success_fast.trials",
    "reductions.LearnerDistinguisher.run_batch.trials",
    "distributions.sample.rows",
    "harness.write_rows_csv.bytes",
]
