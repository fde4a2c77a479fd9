"""Rewrite ``reference.json`` from the package under ``src/`` at the default seed.

    python3 bench/record_reference.py

The stored values are the ones ROADMAP says must not change: exact laws
(compared within 1e-12) and seeded CSV digests. Rewrite them only for a change
that alters a law on purpose, and say so in CHANGES.md. A task whose own
checks fail is not recorded; the script stops instead.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    stored: dict = {}
    for size in workloads.SIZES:
        stored[size] = {}
        for name, build in workloads.WORKLOADS.items():
            work = BENCH.parent / ".bench_run" / "work" / name
            (work / "cli").mkdir(parents=True, exist_ok=True)
            tasks = build(workloads.DEFAULT_SEED, size, work)
            stored[size][name] = {task.name: task.run() for task in tasks}
            print(f"recorded {size} {name}: {len(tasks)} tasks", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
