"""Benchmark entry point for panshuffle.

    python3 bench/run.py --workload exact-online --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) against the package under ``src/`` of
the checkout that holds this file, checks every task's output, prints each
metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: import plus input building in a fresh interpreter;
* ``cold_pass_s``: the first pass over the task list in a process;
* ``warm_pass_s``: a later pass in the same process;
* ``peak_rss_mb``: peak resident memory of that process (``getrusage``).

The three times are seconds at a reference CPU speed: wall time scaled by
the speed a probe reads while the program waits (see ``worker.py``). The raw
wall-clock times are printed and recorded beside them.

Each run measures ``WORKERS`` fresh interpreters one after the other; each
gets an equal share of what is left of ``--seconds`` and runs at least a cold
and a warm pass. Before, between and after them (``WORKERS + 1`` times) an
interpreter only sets up. ``setup_s`` is the median over all of them, spread
over the run so that one slow moment of the host does not set it; the other
metrics are the median over the measured interpreters. A pass takes several
seconds and the CPU speed of a shared host can drift by tens of percent over
seconds, so one interpreter alone gives an unsteady cold pass. A run lasts
about ``--seconds`` unless the two passes per interpreter take longer.

``failed_frac`` (failed tasks over attempted tasks) is printed beside them.

With ``--trace 1`` the same workload runs once untraced and once with spans
recorded around the package's public functions (``tracer.py``); the metrics
are the per-layer ones, the fresh-interpreter import times, and the tracing
overhead (traced minus untraced pass times). Spans are written under
``.bench_run/spans/``; every result, with its provenance, under
``.bench_run/results/``.

``--size smoke`` and ``--reference`` exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-online", "exact-cohort", "seeded-mc")
WORKERS = 2
IMPORT_RUNS = 2
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "cold_pass_s": "s", "warm_pass_s": "s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import {module}; "
                 "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """A benchmark process failed or ran out of time; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[:3])} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{err.strip()}")
    return out


def _worker(args, deadline: float, seconds: float = 0.0, *, trace=False,
            setup_only=False) -> dict:
    out = ROOT / ".bench_run" / f"worker-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--size", args.size,
           "--reference", str(args.reference), "--out", str(out)]
    if trace:
        spans = ROOT / ".bench_run" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace", "--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    _run(cmd, deadline)
    record = json.loads(out.read_text())
    out.unlink()
    return record


def _import_s(module: str, deadline: float) -> float:
    times = [float(_run([sys.executable, "-c", _IMPORT_PROBE.format(module=module)],
                        deadline))
             for _ in range(IMPORT_RUNS)]
    return statistics.median(times)


def _git(*argv: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, versions: dict) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "size": args.size,
    }


def _merge(runs: list[dict]) -> dict:
    """Counts, failures and pass times of several workers, in run order."""
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "tracebacks": [t for r in runs for t in r["tracebacks"]],
            "pass_s": [p for r in runs for p in r["pass_s"]],
            "wall_pass_s": [p for r in runs for p in r["wall_pass_s"]],
            "versions": runs[0]["versions"]}


def _measured(args, deadline: float, ends: float, kinds: list[bool],
              setups: bool = False) -> tuple[list[dict], list[dict]]:
    """One measured worker per entry of ``kinds`` (traced or not), sharing the time to ``ends``.

    With ``setups``, a set-up-only interpreter also runs before, between and
    after them; their records come second.
    """
    runs, setup_runs = [], []
    setup_took = 0.0
    for i, trace in enumerate(kinds):
        if setups:
            began = time.monotonic()
            setup_runs.append(_worker(args, deadline, setup_only=True))
            setup_took = time.monotonic() - began
        left = len(kinds) - i  # workers still to come, and as many set-up-only interpreters
        share = (ends - time.monotonic() - left * setup_took) / left
        runs.append(_worker(args, deadline, share, trace=trace))
    if setups:
        setup_runs.append(_worker(args, deadline, setup_only=True))
    return runs, setup_runs


def measure(args, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics from WORKERS measured interpreters and WORKERS + 1 set-up ones."""
    ends = time.monotonic() + args.seconds
    runs, setups = _measured(args, deadline, ends, [False] * WORKERS, setups=True)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in [*setups, *runs]),
        "cold_pass_s": statistics.median(r["pass_s"][0] for r in runs),
        "warm_pass_s": statistics.median(p for r in runs for p in r["pass_s"][1:]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    merged = _merge(runs)
    merged["wall_setup_s"] = [r["wall_setup_s"] for r in [*setups, *runs]]
    return metrics, merged


def measure_layers(args, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced worker, with the overhead against an untraced one."""
    ends = time.monotonic() + args.seconds
    metrics = {"import.panshuffle_s": _import_s("panshuffle", deadline),
               "import.scipy_stats_s": _import_s("scipy.stats", deadline)}
    (plain, traced), _ = _measured(args, deadline, ends, [False, True])
    metrics |= traced["layers"]
    metrics["trace.overhead_cold_s"] = traced["pass_s"][0] - plain["pass_s"][0]
    metrics["trace.overhead_warm_s"] = (statistics.median(traced["pass_s"][1:])
                                        - statistics.median(plain["pass_s"][1:]))
    return metrics, _merge([plain, traced])


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or tracer.layer_unit(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="reference values checked at the default seed")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "panshuffle" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_run" / "spans").mkdir(parents=True, exist_ok=True)
    (ROOT / ".bench_run" / "results").mkdir(parents=True, exist_ok=True)

    try:
        metrics, run = (measure_layers if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args, run["versions"])
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {args.size} size, "
          f"trace {args.trace}, {len(run['pass_s'])} passes")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit_of(name)}")
    print(f"  {'failed_frac':<58} {failed / attempted:>14.6g} 1 "
          f"({failed} of {attempted} tasks)")
    print("wall clock, not scaled: pass_s "
          + " ".join(f"{p:.4g}" for p in run["wall_pass_s"])
          + "".join(f", setup_s {p:.4g}" for p in run.get("wall_setup_s", [])))
    for failure in run["failures"]:
        print("FAILED " + failure)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = dict(result, provenance=prov, workload=args.workload, trace=args.trace,
                  **{key: run[key] for key in ("pass_s", "wall_pass_s", "failures", "tracebacks")},
                  wall_setup_s=run.get("wall_setup_s"))
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (ROOT / ".bench_run" / "results" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
