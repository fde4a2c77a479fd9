"""Measure every workload over ten seeds and write ``baseline.json``.

    python3 bench/baseline.py

Each workload runs once per seed 1..10 at the declared ``run_seconds``, one
process at a time, then once traced at seed 1 for the per-layer metrics. For
each end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, and calls the
benchmark steady when every spread, ``setup_s`` included, is below a third of
the metric's bound from ``BENCHMARK.json`` and no task failed. It also
records how long each run took.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    began = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - began
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return json.loads(lines[-1]) | {"provenance": prov, "elapsed_s": elapsed}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    out = {"run_seconds": seconds, "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in runs)
        elapsed = [r["elapsed_s"] for r in runs]
        entry = {"failed": failed, "attempted": sum(r["attempted"] for r in runs),
                 "run_elapsed_s": {"median": statistics.median(elapsed), "max": max(elapsed)},
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady = steady and ok
            print(f"{workload:<13} {name:<12} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}) "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        print(f"{workload:<13} failed {failed} of {entry['attempted']} tasks; a run took "
              f"{statistics.median(elapsed):.1f} s (median), {max(elapsed):.1f} s (max)",
              flush=True)
        steady = steady and failed == 0
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_run_elapsed_s"] = traced["elapsed_s"]
        out["workloads"][workload] = entry
        out["provenance"] = runs[0]["provenance"]
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
