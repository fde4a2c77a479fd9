"""Run one workload in a fresh interpreter and write what it measured as JSON.

Started by ``run.py``; not meant to be run by hand. The clock starts before
``import panshuffle``, so the reported set-up time covers the import plus
building the workload's inputs and loading its reference values. Then the
worker runs the task list once (the cold pass) and again while another pass
is expected to end within ``--seconds`` of the interpreter's start; it runs
at least one warm pass.

A task that raises, or whose output breaks a check, counts as one failure;
the run goes on with the next task.

Times are reported at a reference CPU speed. On a shared 2-core host the CPU
speed of one process drifted by up to half within a minute, so every measured
interval is scaled by ``REFERENCE_LOOP_S`` over the trimmed mean of the
:class:`SpeedProbe` readings taken during it. Raw wall times are reported
beside the scaled ones.
"""

import gc
import os
import random
import signal
import statistics
import time

REFERENCE_LOOP_S = 0.0006  # about a reading's mean time on the 2-core host of baseline.json
PROBE_INTERVAL_S = 0.1
_LOOP = range(100)


def _has_children() -> bool:
    """Whether this process has live child processes (a worker pool)."""
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                if fh.read().strip():
                    return True
    except OSError:
        pass
    return False


class SpeedProbe:
    """CPU speed read from a short fixed loop every 0.1 s, while the program waits.

    A timer signal runs the loop in the main thread between two bytecodes of
    the program, so the program's own work is paused while the loop runs and
    the reading sees only the rest of the host. No reading is taken while the
    process has child processes, which would compete with the loop. The time
    spent in the probe is left out of every measured interval.

    The loop does integer arithmetic and then looks up tuple keys in a dict of
    about 10 MB, because the host's slowdowns hit the workloads' dict walks
    and numpy calls unevenly: over 12 to 14 identical passes in one process,
    the standard deviation of log pass time was 0.092, 0.118 and 0.066
    (exact-online, exact-cohort, seeded-mc) in wall time, 0.057, 0.024 and
    0.055 scaled by arithmetic alone, and 0.038, 0.028 and 0.023 scaled by
    the geometric mean of both parts' times. The loop adds the two parts,
    which take about as long as each other.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {(rng.randrange(1 << 30), rng.randrange(64)): rng.random()
                       for _ in range(50_000)}
        self._keys = rng.sample(sorted(self._table), 500)
        gc.collect()  # untracks the table, so the program's collections skip it
        self.readings: list[tuple[float, float]] = []  # (time read, loop seconds)
        self.busy = 0.0
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _read(self, signum, frame) -> None:
        start = time.perf_counter()
        if not _has_children():
            loop_start = time.perf_counter()
            x = 0
            for a in _LOOP:
                for b in _LOOP:
                    x = a ^ b
            total = 0.0
            for key in self._keys:
                total += self._table[key]
            end = time.perf_counter()
            self.readings.append((end, end - loop_start))
        self.busy += time.perf_counter() - start

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.busy

    def since(self, mark: tuple[float, float]) -> tuple[float, float]:
        """(wall, scaled) seconds of the program's own work since ``mark``."""
        start, busy = mark
        end = time.perf_counter()
        wall = end - start - (self.busy - busy)
        loops = sorted(d for t, d in self.readings if start <= t <= end)
        if not loops:  # shorter than one probe interval: use the latest reading
            loops = [self.readings[-1][1]] if self.readings else [REFERENCE_LOOP_S]
        trim = len(loops) // 10
        kept = loops[trim:len(loops) - trim]
        return wall, wall * REFERENCE_LOOP_S / statistics.fmean(kept)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


_PROBE = SpeedProbe()
_STARTED = _PROBE.mark()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import panshuffle  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

TOLERANCE = 1e-12


def _compare(got, want, where: str) -> None:
    """Numbers within 1e-12; digests and keys must match exactly."""
    if isinstance(want, dict):
        workloads.require(isinstance(got, dict) and sorted(got) == sorted(want),
                          f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        workloads.require(isinstance(got, list) and len(got) == len(want),
                          f"{where}: length differs from the reference")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, str):
        workloads.require(got == want, f"{where}: {got!r} != reference {want!r}")
    else:
        workloads.require(abs(got - want) <= TOLERANCE,
                          f"{where}: {got!r} differs from reference {want!r}")


def run_passes(tasks, budget: float, reference: dict | None, recorder, probe) -> dict:
    """Timed passes over ``tasks``; a pass time is the sum of its scaled task times.

    Each run of a task gets an id (``recorder.task``) in run order; ``scale``
    holds each run's scaled over wall time, which the traced run applies to
    the self times of that run's spans.
    """
    attempted = failed = 0
    failures: list[str] = []
    tracebacks: list[str] = []
    first: dict = {}
    pass_s: list[float] = []
    wall_pass_s: list[float] = []
    scale: list[float] = []
    last_pass = 0.0
    while len(pass_s) < 2 or time.perf_counter() - _STARTED[0] + last_pass <= budget:
        number = len(pass_s)
        start_pass = time.perf_counter()
        wall = scaled = 0.0
        for task in tasks:
            recorder.task = len(scale)
            attempted += 1
            mark = probe.mark()
            recorder.armed = True
            try:
                values = task.run()
                if number == 0:
                    first[task.name] = values
                    if reference is not None:
                        workloads.require(task.name in reference,
                                          f"no reference values for {task.name}")
                        _compare(values, reference[task.name], task.name)
                else:
                    workloads.require(values == first.get(task.name),
                                      f"{task.name}: output differs from the cold pass")
            except Exception as exc:  # a failing task is counted and the run goes on
                failed += 1
                failures.append(f"pass {number} {task.name}: {type(exc).__name__}: {exc}")
                tracebacks.append(traceback.format_exc())
            recorder.armed = False
            task_wall, task_scaled = probe.since(mark)
            wall += task_wall
            scaled += task_scaled
            scale.append(task_scaled / task_wall)
        pass_s.append(scaled)
        wall_pass_s.append(wall)
        last_pass = time.perf_counter() - start_pass
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "tracebacks": tracebacks, "pass_s": pass_s, "wall_pass_s": wall_pass_s,
            "scale": scale}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    source = Path(panshuffle.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"panshuffle imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 3

    recorder = tracer.Recorder()
    if args.trace:
        tracer.install(recorder)
    work = root / ".bench_run" / "work" / args.workload
    (work / "cli").mkdir(parents=True, exist_ok=True)
    tasks = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        stored = json.loads(Path(args.reference).read_text())
        reference = stored[args.size][args.workload]
    wall_setup, setup = _PROBE.since(_STARTED)
    record = {"setup_s": setup, "wall_setup_s": wall_setup}
    if not args.setup_only:
        record |= run_passes(tasks, args.seconds, reference, recorder, _PROBE)
        # ru_maxrss is in KiB on Linux
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            record["layers"] = tracer.layer_metrics(recorder.spans, len(record["pass_s"]),
                                                    record.pop("scale"))
            recorder.write(args.spans)
    import numpy
    import scipy

    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:  # an alarm left pending at exit would kill the interpreter
        _PROBE.close()
    sys.exit(code)
