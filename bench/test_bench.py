"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Each workload runs at its smoke size, where it finishes in seconds; the tests
check that every declared metric is printed with its unit and that no task
fails, and that the reference gate does fail on a wrong stored value.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-online", "exact-cohort", "seeded-mc")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def smoke(workload, seed=0, trace=0, *extra):
    done = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke", *extra)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, name):
    """The (value, unit) printed for a metric in the human-readable table."""
    rows = [line.split() for line in lines if line.split()[:1] == [name]]
    assert len(rows) == 1, f"{name} printed {len(rows)} times"
    return float(rows[0][1]), rows[0][2]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    lines, result = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        value, unit = printed(lines, metric["name"])
        assert unit == metric["unit"] == result["metrics"][metric["name"]]["unit"]
        assert value == pytest.approx(result["metrics"][metric["name"]]["value"], rel=1e-5,
                                      abs=1e-9)
    assert printed(lines, "failed_frac")[0] == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_at_another_seed(workload):
    lines, result = smoke(workload, seed=7)
    assert result["correct"], [line for line in lines if line.startswith("FAILED")]


def test_seeded_mc_runs_no_exact_layer_in_its_passes():
    lines, result = smoke("seeded-mc", 0, 1)
    exact_calls = {name: m["value"] for name, m in result["metrics"].items()
                   if name.startswith("exact.") and name.endswith(".calls")}
    assert exact_calls and not any(exact_calls.values())


def test_wrong_reference_value_fails_the_gate(tmp_path):
    stored = json.loads((BENCH / "reference.json").read_text())
    stored["smoke"]["exact-cohort"]["norms"]["plain"] += 1e-9
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(stored))
    lines, result = smoke("exact-cohort", 0, 0, "--reference", str(wrong))
    assert result["failed"] > 0 and not result["correct"]
    assert printed(lines, "failed_frac")[0] > 0.0
    assert any(line.startswith("FAILED") and "norms.plain" in line for line in lines)


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench("--workload", "seeded-mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
