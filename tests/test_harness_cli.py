"""Experiment harness (specs, CSV conventions, kinds) and the CLI entry point."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panshuffle import distributions, harness, mechanisms
from panshuffle.baselines import EXACT_AUDIT_MAX_N, ThresholdSearchResult, find_selection_threshold
from panshuffle.cli import CHECK_FAILED, main
from panshuffle.distributions import (
    ParametricHardDistribution,
    ParityIndex,
    from_descriptor,
    member_descriptor,
)
from panshuffle.errors import GuardError
from panshuffle.mechanisms import mechanism_from_manifest
from panshuffle.harness import (
    ExperimentSpec,
    _fmt,
    fit_scaling,
    run_spec,
    write_rows_csv,
)
from panshuffle.reductions import LearnerDistinguisher
from panshuffle.rng import make_generator


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fmt_serialization_rules():
    assert _fmt(True) == "1"
    assert _fmt(np.bool_(False)) == "0"
    assert _fmt(7) == "7"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    assert _fmt("plain") == "plain"


def test_write_rows_csv_exact_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a", "b", "c"], [(1, 0.5, True), (2, 1.0 / 3.0, False)])
    expected = "a,b,c\n1,0.5,1\n2," + repr(1.0 / 3.0) + ",0\n"
    assert path.read_text() == expected


def test_canonical_json_ignores_workers():
    one = ExperimentSpec(kind="norm", experiment_id="x", params={"d": 3}, workers=1)
    eight = ExperimentSpec(kind="norm", experiment_id="x", params={"d": 3}, workers=8)
    assert one.canonical_json() == eight.canonical_json()
    assert one.spec_hash() == eight.spec_hash()
    assert '"workers"' not in one.canonical_json()


def test_run_spec_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment kind"):
        run_spec(ExperimentSpec(kind="nope", experiment_id="x"), tmp_path)


def _mean_error_spec(workers: int, model: str = "central") -> ExperimentSpec:
    member = ParametricHardDistribution(d=3, index=ParityIndex((1,), 1), alpha=0.2)
    return ExperimentSpec(
        kind="mean_error",
        experiment_id="unit-mean-error",
        params={
            "problem": "sparse-mean",
            "model": model,
            "d": 3,
            "alpha": 0.2,
            "n": 40,
            "epsilon": 2.0,
            "truth": member_descriptor(member, k=1),
        },
        trials=12,
        master_seed=99,
        workers=workers,
    )


def test_mean_error_kind_and_worker_invariance(tmp_path, monkeypatch):
    # 12 trials are two blocks of eight: a real 2-process pool at workers 2 and 8
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    res1 = run_spec(_mean_error_spec(1), tmp_path / "w1")
    res2 = run_spec(_mean_error_spec(2), tmp_path / "w2")
    res8 = run_spec(_mean_error_spec(8), tmp_path / "w8")
    assert _digest(res1.csv_path) == _digest(res2.csv_path) == _digest(res8.csv_path)
    lines = res1.csv_path.read_text().splitlines()
    assert lines[0] == "trial,err_linf"
    assert [int(row.split(",")[0]) for row in lines[1:]] == list(range(12))
    assert set(res1.summary) == {"mean_err", "median_err", "max_err"}
    manifest = json.loads(res1.manifest_path.read_text())
    assert manifest["spec_hash"] == _mean_error_spec(1).spec_hash()
    assert manifest["workers"] == 1
    assert manifest["processes"] == 1
    assert manifest["summary"] == res1.summary
    assert "numpy" in manifest["versions"]
    pooled = json.loads(res8.manifest_path.read_text())
    assert (pooled["workers"], pooled["processes"]) == (8, 2)
    assert multiprocessing.active_children() == []


# Runs a mean_error spec at two workers over a real two-process pool and prints,
# as JSON, this process's pid, the pid of every process that imported
# scipy.special (a forked worker inherits the finder that records them), the
# scipy modules loaded in this process, and the CSV.
_SCIPY_PROBE = """
import json, os, sys
from pathlib import Path

log = []


class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            with open(sys.argv[2], "a") as fh:
                fh.write(f"{os.getpid()}\\n")


sys.meta_path.insert(0, Spy())
from panshuffle import harness

harness._usable_cpus = lambda: 2
spec = harness.ExperimentSpec(**json.loads(sys.argv[1]))
csv = harness.run_spec(spec, Path(sys.argv[2]).parent / "out").csv_path.read_text()
print(json.dumps({"pid": os.getpid(), "imports": Path(sys.argv[2]).read_text().split(),
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "csv": csv}))
"""


@pytest.mark.parametrize("model", ["central", "pan"])
def test_pooled_mean_error_loads_scipy_only_for_gaussian_noise_and_only_in_the_parent(
        model, tmp_path):
    spec = dataclasses.replace(_mean_error_spec(2, model), trials=16)  # two blocks of eight
    log = tmp_path / "imports.log"
    log.write_text("")
    src = str(Path(harness.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(dataclasses.asdict(spec)),
                           str(log)], env=env, capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    if model == "central":  # Laplace noise: no process loads any scipy module
        assert (probe["imports"], probe["loaded"]) == ([], [])
    else:  # Gaussian noise: scipy.special once, in the parent, before the pool forks
        assert probe["imports"] == [str(probe["pid"])]
        assert "scipy.special" in probe["loaded"]
    serial = run_spec(dataclasses.replace(spec, workers=1), tmp_path / "serial")
    assert probe["csv"] == serial.csv_path.read_text()


def test_mean_error_runs_in_process_when_one_block_or_one_cpu(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    res = run_spec(_mean_error_spec(8), tmp_path / "one-cpu")
    assert json.loads(res.manifest_path.read_text())["processes"] == 1
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    spec = dataclasses.replace(_mean_error_spec(8), trials=8)
    res = run_spec(spec, tmp_path / "one-block")
    assert json.loads(res.manifest_path.read_text())["processes"] == 1


def test_mean_error_checks_signs_once_per_trial(tmp_path, monkeypatch):
    import panshuffle.baselines as bl

    calls = []
    checked = bl._as_sign_matrix
    monkeypatch.setattr(bl, "_as_sign_matrix", lambda x: calls.append(1) or checked(x))
    spec = _mean_error_spec(1)
    run_spec(spec, tmp_path)
    assert len(calls) == spec.trials


def test_trial_streams_are_the_derived_streams():
    spec = _mean_error_spec(1)
    trial_rng = harness._trial_rng(spec)
    for trial in (0, 1, 7, 2**63 + 5):
        want = make_generator(spec.master_seed, spec.kind, spec.experiment_id, trial)
        assert trial_rng(trial).bit_generator.state == want.bit_generator.state


def test_mean_error_computes_true_means_once_per_run(tmp_path, monkeypatch):
    calls = []
    exact = harness.true_means
    monkeypatch.setattr(harness, "true_means", lambda inst: calls.append(1) or exact(inst))
    run_spec(_mean_error_spec(1), tmp_path)
    assert len(calls) == 1


def _shuffle_mean_spec(delta: float, workers: int) -> ExperimentSpec:
    return ExperimentSpec("mean_error", "shuffle-mean", {
        "model": "shuffle", "d": 8, "alpha": 0.2, "n": 12, "epsilon": 4.0, "delta": delta,
        "truth": {"family": "uniform", "d": 8},
    }, trials=64, workers=workers)


def test_mean_error_certifies_its_noise_once_per_run(tmp_path, monkeypatch):
    import panshuffle.baselines as bl

    calls = []
    bound = bl._composed_delta
    monkeypatch.setattr(bl, "_composed_delta", lambda *a, **k: calls.append(1) or bound(*a, **k))
    bl.calibrate_rr(4.0, 1e-3, 12, 8)
    one_calibration = len(calls)
    calls.clear()
    run_spec(_shuffle_mean_spec(1e-3, 1), tmp_path)
    assert len(calls) == one_calibration > 0  # the bisection's steps; 1/2 is never read


@pytest.mark.parametrize("spec", [
    _shuffle_mean_spec(0.0, 2),
    ExperimentSpec("selection_sweep", "shuffle-sweep",
                   {"dims": [4, 8, 16, 32], "model": "shuffle", "delta": 0.0}),
], ids=["mean-error", "selection-sweep"])
def test_shuffle_at_delta_zero_is_refused_before_any_worker(spec, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker process started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match=r"^the shuffle model needs delta in \(0, 1\); "
                                         r"at delta = 0 use the local model$"):
        run_spec(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_audit_kind_matches_closed_form(tmp_path):
    flip_p = 0.2
    grid = [0.0, 0.5, math.log((1 - flip_p) / flip_p)]
    spec = ExperimentSpec(
        kind="audit",
        experiment_id="unit-audit",
        params={
            "mechanism": {"type": "binary_rr", "flip_p": flip_p},
            "stream_a": [1],
            "stream_b": [0],
            "eps_grid": grid,
        },
    )
    res = run_spec(spec, tmp_path)
    for eps, want in zip(grid, [1 - 2 * flip_p, None, 0.0]):
        if want is not None:
            got = max(0.0, (1 - flip_p) - math.exp(eps) * flip_p)
            assert got == pytest.approx(want, abs=1e-12)
    assert res.summary["worst_delta"] == pytest.approx(1 - 2 * flip_p, abs=1e-12)
    header = res.csv_path.read_text().splitlines()[0]
    assert header == "epsilon,delta_forward,delta_backward,delta_max"


def test_norm_kind_reports_tightness(tmp_path):
    spec = ExperimentSpec(
        kind="norm",
        experiment_id="unit-norm",
        params={"d": 3, "k": 1, "alpha": 0.1},
    )
    res = run_spec(spec, tmp_path)
    assert res.summary["tight"] is True
    assert res.summary["value_sq"] == pytest.approx(4 * 0.01 / 3, abs=1e-12)


def test_distinguish_kind_summary(tmp_path):
    spec = ExperimentSpec(
        kind="distinguish",
        experiment_id="unit-distinguish",
        params={"d": 4, "alpha": 0.2, "epsilon": 1.0, "test_phase_scale": 24.0},
        trials=12_000,
        master_seed=5,
    )
    res = run_spec(spec, tmp_path)
    assert res.summary["test_len"] == 120
    assert 0.8 <= res.summary["advantage"] <= 1.0
    assert res.summary["ci_low"] <= res.summary["advantage"] <= res.summary["ci_high"]


def test_wrapper_gap_kind(tmp_path):
    spec = ExperimentSpec(
        kind="wrapper_gap",
        experiment_id="unit-wrapper",
        params={
            "n": 6,
            "randomizer": {"type": "binary_rr", "flip_p": 0.25},
            "cutoff": 3,
            "reference": {"1": 0.3, "0": 0.7},
            "input": {"1": 0.9, "0": 0.1},
        },
    )
    res = run_spec(spec, tmp_path)
    assert res.summary["tv_null"] == pytest.approx(0.0, abs=1e-10)
    assert res.summary["tv_real"] <= res.summary["escape_bound"] + 1e-12


def test_selection_sweep_kind(tmp_path):
    spec = ExperimentSpec(
        kind="selection_sweep",
        experiment_id="unit-sweep",
        params={
            "dims": [4, 8, 16, 32],
            "model": "central",
            "epsilon": 1.0,
            "alpha": 0.2,
            "pilot_trials": 300,
        },
        trials=800,
        master_seed=7,
    )
    res = run_spec(spec, tmp_path)
    lines = res.csv_path.read_text().splitlines()
    assert lines[0] == "d,n_star,success,corridor_n,corridor_success"
    rows = [line.split(",") for line in lines[1:]]
    dims = [int(r[0]) for r in rows]
    stars = [int(r[1]) for r in rows]
    assert dims == [4, 8, 16, 32]
    assert stars == sorted(stars)
    refit = fit_scaling(dims, stars)
    assert res.summary["slope"] == pytest.approx(refit.slope, abs=1e-12)
    assert res.summary["model"] == "central"


def test_a_shuffle_selection_sweep_runs_end_to_end(tmp_path):
    # each cohort the search visits is certified by the privacy blanket, composed over
    # the sweep's d coordinates
    spec = ExperimentSpec("selection_sweep", "shuffle-sweep", {
        "dims": [2, 3, 4, 6], "model": "shuffle", "epsilon": 4.0, "delta": 1e-3,
        "pilot_trials": 100,
    }, trials=200, master_seed=5)
    res = run_spec(spec, tmp_path)
    lines = res.csv_path.read_text().splitlines()
    assert lines[0] == "d,n_star,success,corridor_n,corridor_success"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4, 6]
    assert all(int(line.split(",")[1]) > EXACT_AUDIT_MAX_N for line in lines[1:])
    assert res.summary["model"] == "shuffle"


def test_selection_sweep_kind_checks_its_dims_before_searching(tmp_path, monkeypatch):
    def search(**kwargs):
        raise AssertionError("a threshold search ran")

    monkeypatch.setattr(harness, "find_selection_threshold", search)
    spec = ExperimentSpec("selection_sweep", "three-dims", {"dims": [8, 16, 32]})
    with pytest.raises(ValueError, match=r"at least 4 dims.*\[8, 16, 32\]"):
        run_spec(spec, tmp_path)


def _fanout_spec(dims) -> ExperimentSpec:
    return ExperimentSpec("selection_sweep", "fan-out", {
        "dims": dims, "model": "central", "epsilon": 1.0, "alpha": 0.2, "pilot_trials": 200,
    }, trials=300, master_seed=5)


@pytest.mark.parametrize("cpus", [1, 2])
def test_selection_sweep_matches_a_serial_loop(cpus, tmp_path, monkeypatch):
    # unsorted, with a repeated dim: the rows keep the order and the repeat
    dims = [16, 4, 32, 8, 4]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    res = run_spec(_fanout_spec(dims), tmp_path / "sweep")
    rows = []
    for d in dims:
        r = find_selection_threshold(d=d, model="central", epsilon=1.0, delta=1e-6, alpha=0.2,
                                     target=0.9, pilot_trials=200, confirm_trials=300,
                                     master_seed=5, tag="fan-out")
        rows.append((d, r.n_star, r.success_at_n_star, r.corridor_n, r.corridor_success))
    serial = tmp_path / "serial.csv"
    write_rows_csv(serial, ["d", "n_star", "success", "corridor_n", "corridor_success"], rows)
    assert res.csv_path.read_bytes() == serial.read_bytes()
    fit = fit_scaling(dims, [r[1] for r in rows])
    assert res.summary == {"slope": fit.slope, "intercept": fit.intercept,
                           "stderr": fit.stderr, "model": "central"}
    manifest = json.loads(res.manifest_path.read_text())
    assert manifest["processes"] == cpus
    assert multiprocessing.active_children() == []


def _failing_search(**kwargs):
    """A threshold search that fails at d = 8 and d = 64, quickly, and succeeds elsewhere."""
    d = kwargs["d"]
    if d in (8, 64):
        raise GuardError(f"selection at d={d} did not reach the target")
    return ThresholdSearchResult(d=d, model="pan", n_star=10 * d, success_at_n_star=0.95,
                                 corridor_n=d, corridor_success=0.1)


def test_a_worker_error_reaches_the_caller_as_the_serial_loop_raises_it(tmp_path, monkeypatch):
    # d = 64 goes out first (largest first); the serial loop raises at d = 8
    monkeypatch.setattr(harness, "find_selection_threshold", _failing_search)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(GuardError, match="d=8 "):
        run_spec(_fanout_spec([16, 8, 32, 64]), tmp_path / "out")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


def test_cli_sweep_prints_a_worker_error_in_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "find_selection_threshold", _failing_search)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    code = main(["sweep", "--dims", "16,8,32,64", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: selection at d=8 did not reach the target\n"


_RR_MANIFEST = {"type": "binary_rr", "flip_p": 0.2}
_MEAN = {"model": "central", "d": 3, "alpha": 0.2, "n": 40, "epsilon": 1.0,
         "truth": {"family": "uniform", "d": 3}}
_GAP = {"n": 6, "randomizer": _RR_MANIFEST, "reference": {"0": 0.5, "1": 0.5},
        "input": {"0": 0.1, "1": 0.9}}
_AUDIT = {"mechanism": _RR_MANIFEST, "stream_a": [1], "stream_b": [0], "eps_grid": [1.0]}


@pytest.mark.parametrize("kind, params, key", [
    ("selection_sweep", {"dims": 8}, "dims"),
    ("selection_sweep", {"dims": [8, 16, "x", 64]}, "dims"),
    ("selection_sweep", {"dims": [8, 16, 32, 64], "pilot_trials": "many"}, "pilot_trials"),
    ("selection_sweep", {"dims": [8, 16, 32, 64], "epsilon": [1.0]}, "epsilon"),
    ("norm", {"d": "three", "k": 1, "alpha": 0.2}, "d"),
    ("norm", {"d": 3, "k": 1, "alpha": "x"}, "alpha"),
    ("norm", {"d": 3.7, "k": 1, "alpha": 0.2}, "d"),
    ("norm", {"d": np.int64(3), "k": 1, "alpha": 0.2}, "d"),
    ("distinguish", {"d": "x", "alpha": 0.2, "epsilon": 1.0}, "d"),
    ("distinguish", {"d": 4, "alpha": 0.2, "epsilon": 1.0, "planted_subset": 2},
     "planted_subset"),
    ("distinguish", {"d": 4, "alpha": 0.2, "epsilon": 1.0, "learner": "plug-in"}, "learner"),
    ("mean_error", _MEAN | {"d": "four"}, "d"),
    ("wrapper_gap", _GAP | {"n": "six"}, "n"),
    ("wrapper_gap", _GAP | {"reference": [0.5, 0.5]}, "reference"),
    ("audit", _AUDIT | {"eps_grid": 0.5}, "eps_grid"),
], ids=["dims-int", "dims-string-element", "pilot-string", "epsilon-list", "norm-d",
        "norm-alpha", "norm-d-fraction", "norm-d-numpy", "distinguish-d", "distinguish-subset-int",
        "distinguish-learner", "mean-error-d", "wrapper-n", "wrapper-reference-list",
        "audit-eps-scalar"])
def test_run_spec_names_a_mistyped_kind_param(kind, params, key, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search or a worker process started")

    monkeypatch.setattr(harness, "find_selection_threshold", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # 16 trials: mean_error would pool
    out = tmp_path / "out"
    with pytest.raises(ValueError) as info:
        run_spec(ExperimentSpec(kind, "mistyped", params, trials=16, workers=2), out)
    assert str(info.value).startswith(f"{kind} spec 'mistyped': '{key}' must be ")
    assert str(info.value).endswith(f", got {params[key]!r}")
    assert not out.exists()


_DIST = {"d": 4, "alpha": 0.2, "epsilon": 1.0}


@pytest.mark.parametrize("params, named", [
    (_DIST | {"alpha": 0.0}, "'alpha' must be in (0, 1/2), got 0.0"),
    (_DIST | {"alpha": 0.7}, "'alpha' must be in (0, 1/2), got 0.7"),
    (_DIST | {"alpha": math.nan}, "'alpha' must be in (0, 1/2), got nan"),
    (_DIST | {"alpha": 0.5}, "'alpha' must be in (0, 1/2), got 0.5"),
    (_DIST | {"alpha": 0.5, "learner": "plugin"}, "'alpha' must be in (0, 1/2), got 0.5"),
    (_DIST | {"epsilon": 0}, "'epsilon' must be positive, got 0.0"),
    (_DIST | {"epsilon": -1.0}, "'epsilon' must be positive, got -1.0"),
    (_DIST | {"n_learn": -1, "learner": "plugin"}, "'n_learn' must be non-negative, got -1"),
    (_DIST | {"test_phase_scale": -2.0}, "'test_phase_scale' must be non-negative, got -2.0"),
    (_DIST | {"planted_subset": [9]}, "subset (9,) has coordinates outside [1, 4]"),
    (_DIST | {"planted_subset": [9], "learner": "plugin"},
     "subset (9,) has coordinates outside [1, 4]"),
    (_DIST | {"d": 0}, "d must be positive"),
], ids=["alpha-zero", "alpha-above-half", "alpha-nan", "alpha-half", "plugin-alpha-half",
        "epsilon-zero", "epsilon-negative", "n-learn-negative", "scale-negative",
        "subset-outside-d", "plugin-subset-outside-d", "d-zero"])
def test_run_spec_rejects_an_out_of_range_distinguish_param(params, named, tmp_path,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(LearnerDistinguisher, "run_batch", refuse)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as info:
        run_spec(ExperimentSpec("distinguish", "range", params, trials=200), out)
    assert str(info.value) == named
    assert not out.exists()


_SWEEP = {"dims": [8, 16, 32, 64], "model": "pan"}


@pytest.mark.parametrize("kind, params, named", [
    ("selection_sweep", _SWEEP | {"alpha": 0.5}, "'alpha' must be in (0, 1/2), got 0.5"),
    ("selection_sweep", _SWEEP | {"alpha": 0.7}, "'alpha' must be in (0, 1/2), got 0.7"),
    ("selection_sweep", _SWEEP | {"alpha": 0}, "'alpha' must be in (0, 1/2), got 0.0"),
    ("selection_sweep", _SWEEP | {"target": 1.5}, "'target' must be in (0, 1], got 1.5"),
    ("selection_sweep", _SWEEP | {"target": 0}, "'target' must be in (0, 1], got 0.0"),
    ("selection_sweep", _SWEEP | {"epsilon": 0}, "'epsilon' must be positive, got 0.0"),
    ("selection_sweep", _SWEEP | {"epsilon": 0, "model": "central"},
     "'epsilon' must be positive, got 0.0"),
    ("selection_sweep", _SWEEP | {"delta": 1}, "'delta' must be in [0, 1), got 1.0"),
    ("selection_sweep", _SWEEP | {"dims": [0, 8, 16, 32]}, "'dims' must be at least 1, got 0"),
    ("selection_sweep", _SWEEP | {"dims": [8, 16, -4, 32]},
     "'dims' must be at least 1, got -4"),
    ("selection_sweep", _SWEEP | {"pilot_trials": 0}, "'pilot_trials' must be at least 1, got 0"),
    ("selection_sweep", _SWEEP | {"pilot_trials": -5},
     "'pilot_trials' must be at least 1, got -5"),
    ("mean_error", _MEAN | {"delta": 2.0}, "'delta' must be in [0, 1), got 2.0"),
    ("mean_error", _MEAN | {"epsilon": -0.5}, "'epsilon' must be positive, got -0.5"),
], ids=["sweep-alpha-half", "sweep-alpha-above-half", "sweep-alpha-zero",
        "sweep-target-above-one", "sweep-target-zero", "sweep-epsilon-zero",
        "sweep-central-epsilon-zero", "sweep-delta-one", "sweep-dims-zero",
        "sweep-dims-negative", "sweep-pilot-trials-zero", "sweep-pilot-trials-negative",
        "mean-error-delta-two", "mean-error-epsilon-negative"])
def test_run_spec_rejects_an_out_of_range_budget_or_search_before_any_worker(
        kind, params, named, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search, a trial or a worker pool started")

    for name in ("_pmap", "find_selection_threshold", "_mean_error_block"):
        monkeypatch.setattr(harness, name, refuse)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as info:
        run_spec(ExperimentSpec(kind, "range", params, trials=100), out)
    assert str(info.value) == named
    assert not out.exists()


def test_distinguish_kind_runs_at_an_infinite_epsilon(tmp_path):
    result = run_spec(ExperimentSpec("distinguish", "inf", _DIST | {"epsilon": math.inf},
                                     trials=200), tmp_path)
    assert result.summary["test_len"] == 0


@pytest.mark.parametrize("field, value, named", [
    ("trials", 0, "'trials' must be at least 1, got 0"),
    ("workers", 0, "'workers' must be at least 1, got 0"),
    ("workers", -3, "'workers' must be at least 1, got -3"),
    ("trials", "8", "'trials' must be an integer, got '8'"),
    ("workers", "2", "'workers' must be an integer, got '2'"),
    ("master_seed", "7", "'master_seed' must be an integer, got '7'"),
])
def test_run_spec_checks_the_spec_fields_before_the_kind(field, value, named, tmp_path,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kind started")

    monkeypatch.setattr(harness, "ProblemInstance", refuse)
    spec = dataclasses.replace(ExperimentSpec("mean_error", "fields", _MEAN), **{field: value})
    out = tmp_path / "out"
    with pytest.raises(ValueError) as info:
        run_spec(spec, out)
    assert str(info.value) == f"mean_error spec 'fields': {named}"
    assert not out.exists()


def test_cli_sweep_names_a_bad_dims_list_in_one_line(capsys):
    code = main(["sweep", "--dims", "8,x"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: --dims must be comma-separated integers, got '8,x'\n"


def test_cli_sweep_refuses_a_zero_dim_in_one_line(capsys, tmp_path, monkeypatch):
    # unchecked, the sweep's worker raised IndexError, a traceback out of main
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--dims", "0,8,16,32"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: 'dims' must be at least 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, params, key", [
    ("mean_error", {"model": "central", "d": 3, "alpha": 0.2, "n": 40, "epsilon": 1.0}, "truth"),
    ("audit", {"mechanism": _RR_MANIFEST, "stream_a": [1], "stream_b": [0]}, "eps_grid"),
    ("norm", {"d": 3}, "k"),
    ("distinguish", {"d": 4, "alpha": 0.2}, "epsilon"),
    ("wrapper_gap", {"n": 6, "randomizer": _RR_MANIFEST, "reference": {"0": 0.5, "1": 0.5}},
     "input"),
    ("selection_sweep", {"model": "pan"}, "dims"),
    # one unknown key per kind
    ("mean_error", _MEAN | {"trails": 8}, "trails"),
    ("audit", _AUDIT | {"eps": [1.0]}, "eps"),
    ("norm", {"d": 3, "k": 1, "alpha": 0.2, "famly": "labeled"}, "famly"),
    ("distinguish", {"d": 4, "alpha": 0.2, "epsilon": 1.0, "lerner": "plugin"}, "lerner"),
    ("wrapper_gap", _GAP | {"cutof": 2}, "cutof"),
    ("selection_sweep", {"dims": [8, 16, 32, 64], "pilot_trails": 50}, "pilot_trails"),
    # no wrapper gap depends on a privacy budget, so the kind takes none
    ("wrapper_gap", _GAP | {"epsilon": 1.0, "delta": 0.0}, "epsilon"),
])
def test_run_spec_names_a_missing_kind_param(kind, params, key, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError) as info:
        run_spec(ExperimentSpec(kind, "missing", params), out)
    missing = str(info.value).split(";")[0]
    assert missing.startswith(f"{kind} spec") and f"'{key}'" in missing, missing
    assert not out.exists()


# a value of each wanted type, for objects that pass the reader
_VALID = {int: 1, float: 0.5, str: "s", dict: {}, list: [], list[int]: [1], list[float]: [0.5],
          list[float | str]: [0, "a"], dict[int, float]: {"0": 1.0}}


def _every_table(out: Path):
    """(site, keys table, fixed keys, the entry point that reads through the table)."""
    for kind, (_, keys) in harness.EXPERIMENT_KINDS.items():
        yield (f"{kind} spec 'walk'", keys, {},
               lambda obj, kind=kind: run_spec(ExperimentSpec(kind, "walk", obj), out))
    for kind, (_, keys) in mechanisms._MANIFESTS.items():
        yield f"{kind} manifest", keys, {"type": kind}, mechanism_from_manifest
    # "family": "uniform" and a present "ell" pick the descriptor's table, so they stay put
    for shape, keys in distributions._DESCRIPTORS.items():
        fixed = {"uniform": {"family": "uniform"}, "family": {}, "member": {"ell": [1]}}[shape]
        yield "descriptor", keys, fixed, from_descriptor


def test_every_table_names_a_missing_a_mistyped_and_an_unknown_key(tmp_path):
    out = tmp_path / "out"
    for site, keys, fixed, read in _every_table(out):
        def raised(obj) -> str:
            with pytest.raises(ValueError) as info:
                read(obj)
            return str(info.value)

        wanted = {key: want for key, (want, default) in keys.items()
                  if default is ... and key not in fixed}
        base = fixed | {key: want[0] if isinstance(want, tuple) else _VALID[want]
                        for key, want in wanted.items()}
        for key in wanted:
            message = raised({k: v for k, v in base.items() if k != key})
            assert message.startswith(f"{site}: missing keys ["), message
            assert repr(key) in message.split(";")[0], message
        for key, (want, _) in keys.items():
            if key in fixed:
                continue
            wrong = 3 if want is str else "x"
            message = raised(base | {key: wrong})
            assert message.startswith(f"{site}: {key!r} must be "), message
            assert message.endswith(f", got {wrong!r}"), message
        message = raised(base | {"bogus": 1})
        assert message.startswith(f"{site}: unknown keys ['bogus']; accepted keys: ")
    assert not out.exists()


def test_an_echo_manifest_keeps_an_alphabet_of_strings_and_numbers():
    echo = mechanism_from_manifest({"type": "echo", "alphabet": ["a", 1, 2.5]})
    assert echo.alphabet == ("a", 1, 2.5)
    assert echo.kernel("a") == {(1, 0, 0): 1.0}
    for symbol in (True, None, [1]):
        with pytest.raises(ValueError, match="'alphabet' must be a list of numbers or strings"):
            mechanism_from_manifest({"type": "echo", "alphabet": ["a", symbol]})


def test_fit_scaling_recovers_power_law():
    xs = [4, 8, 16, 32, 64]
    ys = [3.0 * x**0.5 for x in xs]
    fit = fit_scaling(xs, ys)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log2(3.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.n_points == 5
    with pytest.raises(GuardError, match=">= 4"):
        fit_scaling([1, 2, 4], [1, 2, 4])


# ---------------------------------------------------------------------------
# CLI


def _member_json(d: int, coord: int, sign: int, alpha: float) -> str:
    return json.dumps(
        {"family": "plain", "d": d, "k": 1, "ell": [coord], "b": sign, "alpha": alpha}
    )


def test_cli_tv_expect_pass_and_fail():
    unif = json.dumps({"family": "uniform", "d": 3})
    member = _member_json(3, 2, 1, 0.1)
    assert main(["tv", "--dist-a", unif, "--dist-b", member, "--expect", "0.1"]) == 0
    assert main(["tv", "--dist-a", unif, "--dist-b", member, "--expect", "0.2"]) == CHECK_FAILED


def test_cli_norm_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["norm", "--d", "3", "--k", "1", "--alpha", "0.1", "--json-out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"value_sq", "bound_sq", "witness_bits"}
    assert report["value_sq"] == pytest.approx(4 * 0.01 / 3, abs=1e-12)
    assert set(report["witness_bits"]) <= {0, 1}


def test_cli_sample_writes_csv_and_pmf(tmp_path):
    out = tmp_path / "samples.csv"
    pmf = tmp_path / "pmf.csv"
    code = main([
        "sample", "--dist", _member_json(2, 1, 1, 0.25), "--n", "5",
        "--seed", "3", "--out", str(out), "--pmf-out", str(pmf),
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "row,x1,x2"
    assert len(rows) == 6
    assert len(pmf.read_text().splitlines()) == 5  # header + 4 outcomes


def test_cli_sample_rejects_family_descriptor():
    family = json.dumps({"family": "plain", "d": 2, "k": 1, "alpha": 0.1})
    assert main(["sample", "--dist", family]) == 1


def test_cli_audit_max_delta_gate(tmp_path):
    mech = json.dumps({"type": "binary_rr", "flip_p": 0.2})
    neighbors = json.dumps({"a": [1], "b": [0]})
    out = tmp_path / "curve.csv"
    base = ["audit", "--mechanism", mech, "--neighbors", neighbors, "--eps", "0.0,1.0"]
    assert main(base + ["--out", str(out), "--max-delta", "0.7"]) == 0
    assert out.read_text().splitlines()[0] == "epsilon,delta_forward,delta_backward,delta_max"
    assert main(base + ["--max-delta", "0.1"]) == CHECK_FAILED


def test_cli_reduce_check():
    assert main(["reduce-check", "--n", "6"]) == 0


def test_cli_distinguish_advantage_gate():
    base = [
        "distinguish", "--d", "4", "--alpha", "0.2", "--epsilon", "1.0",
        "--trials", "12000", "--seed", "2",
    ]
    assert main(base) == 0
    assert main(base + ["--min-advantage", "0.9999"]) == CHECK_FAILED


def test_cli_sweep_then_fit_roundtrip(tmp_path):
    code = main([
        "sweep", "--dims", "4,8,16,32", "--model", "central", "--trials", "500",
        "--seed", "11", "--out", str(tmp_path), "--experiment-id", "cli-sweep",
    ])
    assert code == 0
    csv_path = tmp_path / "cli-sweep.csv"
    assert csv_path.exists()
    fit_args = ["fit", "--csv", str(csv_path), "--x", "d", "--y", "n_star"]
    assert main(fit_args + ["--slope-min", "0.2", "--slope-max", "2.5"]) == 0
    assert main(fit_args + ["--slope-min", "5.0"]) == CHECK_FAILED


def test_cli_fit_handles_missing_file(tmp_path):
    assert main(["fit", "--csv", str(tmp_path / "absent.csv")]) == 1


_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", _GOLDEN, ids=[c["id"] for c in _GOLDEN])
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    """Exit code, stdout, stderr and every written file, byte for byte.

    The golden text was recorded before the check subcommands called the
    harness check functions. The reduce-check cases were recorded with the
    budget law already taken from the Bernoulli recurrence, which moved their
    shifted-stream tv by at most 6e-17 against ``scipy.stats.binom``, and
    their printed bound is the correctly rounded escape mass, the exact
    binomial tail in integers (``scipy.special.bdtrc`` had printed
    0.1280443172431182 and 0.10579406759041321).
    """
    monkeypatch.chdir(tmp_path)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == case["stdout"]
    assert err == case["stderr"]
    written = {f.name: f.read_bytes().decode() for f in sorted(tmp_path.iterdir())}
    assert written == case["files"]


def test_cli_audit_rejects_a_bad_manifest_in_one_line(capsys):
    code = main(["audit", "--mechanism", '{"type": "binary_rr", "flip": 0.2}',
                 "--neighbors", '{"a": [1], "b": [0]}'])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'flip_p'" in err and "'flip'" in err


@pytest.mark.parametrize("mechanism, neighbors, named", [
    ('{"type": "binary_rr", "flip_p": null}', '{"a": [1], "b": [0]}',
     ["binary_rr manifest: missing keys ['flip_p']"]),
    ('{"type": "echo", "alphabet": 3}', '{"a": [1], "b": [0]}',
     ["echo", "'alphabet'", "a list", "got 3"]),
    ('{"type": "saturating_counter", "cap": "x"}', '{"a": [1], "b": [0]}',
     ["saturating_counter", "'cap'", "an integer", "'x'"]),
    ('{"type": "binary_rr", "flip_p": 0.2}', '{"a": [1]}', ['"a" and "b"', "{'a': [1]}"]),
], ids=["null-number", "scalar-alphabet", "string-integer", "neighbors-without-b"])
def test_cli_audit_rejects_a_bad_value_in_one_line(mechanism, neighbors, named, capsys):
    code = main(["audit", "--mechanism", mechanism, "--neighbors", neighbors])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(part in err for part in named), err


@pytest.mark.parametrize("mechanism", ['{"type": "binary_rr", "flip_p": 0.2}',
                                       '{"type": "noisy_parity", "flip_p": 0.2}'],
                         ids=["randomizer", "online"])
def test_cli_audit_refuses_an_overflowing_epsilon_in_one_line(mechanism, monkeypatch, capsys):
    from panshuffle import exact

    def refuse(*args, **kwargs):
        raise AssertionError("a law was propagated")

    monkeypatch.setattr(exact, "_shuffle_law", refuse)
    monkeypatch.setattr(exact, "_propagate", refuse)
    code = main(["audit", "--mechanism", mechanism, "--neighbors", '{"a": [1], "b": [0]}',
                 "--eps", "0.5,800"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: e^eps overflows float64 at eps = 800.0; "
                   f"the largest eps accepted is {math.log(sys.float_info.max)!r}\n")


_RR = '{"type": "binary_rr", "flip_p": 0.2}'
_MEMBER = '{"family": "plain", "d": 3, "k": 1, "ell": [1], "b": 1, "alpha": 0.2}'


@pytest.mark.parametrize("argv, named", [
    (["audit", "--mechanism", _RR[:-1], "--neighbors", '{"a": [1], "b": [0]}'],
     ["malformed JSON", "delimiter"]),
    (["audit", "--mechanism", _RR, "--neighbors", '{"a": [1], "b": [0]'],
     ["malformed JSON", "delimiter"]),
    (["audit", "--mechanism", "absent.json", "--neighbors", '{"a": [1], "b": [0]}'],
     ["cannot read", "'absent.json'"]),
    (["sample", "--dist", '{"family": "plain", "d": }'], ["malformed JSON", "Expecting value"]),
    (["sample", "--dist", "absent.json"], ["cannot read", "'absent.json'"]),
    (["tv", "--dist-a", _MEMBER, "--dist-b", "absent.json"], ["cannot read", "'absent.json'"]),
    (["tv", "--dist-a", "bad.json", "--dist-b", _MEMBER], ["malformed JSON", "'bad.json'"]),
    (["sample", "--dist", "[1, 2]"], ["expected a JSON object", "[1, 2]"]),
], ids=["audit-mechanism-brace", "audit-neighbors-brace", "audit-missing-file",
        "sample-inline", "sample-missing-file", "tv-missing-file", "tv-malformed-file",
        "sample-array"])
def test_cli_bad_json_argument_exits_one_in_one_line(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"family": "plain",\n')
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(part in err for part in named), err


@pytest.mark.parametrize("argv, key", [
    (["sample", "--dist", '{"family": "plain"}'], "'d'"),
    (["tv", "--dist-a", '{"family": "plain", "d": 3, "ell": [1], "b": 1}', "--dist-b", _MEMBER],
     "'alpha'"),
], ids=["sample-without-d", "tv-without-alpha"])
def test_cli_descriptor_without_a_key_exits_one_in_one_line(argv, key, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: descriptor: missing keys [") and err.count("\n") == 1
    assert key in err.split(";")[0], err


@pytest.mark.parametrize("desc, named", [
    ('{"family": "plain", "d": 3, "alpha": 0.2, "ell": 3, "b": 1}', ["'ell'", "got 3"]),
    ('{"family": "plain", "d": [3], "alpha": 0.2, "ell": [1], "b": 1}', ["'d'", "got [3]"]),
], ids=["ell-integer", "d-list"])
def test_cli_descriptor_with_a_mistyped_key_exits_one_in_one_line(desc, named, capsys):
    code = main(["sample", "--dist", desc])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: descriptor: '") and err.count("\n") == 1
    assert all(part in err for part in named), err


_FAMILY = '{"family": "plain", "d": 2, "k": 1, "alpha": 0.1}'
_DISTINGUISH = ["distinguish", "--d", "4", "--trials", "200"]


def _qlap(**keys) -> list[str]:
    """Audit argv for a counter manifest with ``keys`` over its defaults."""
    manifest = {"type": "qlap_counter", "eps_update": 1, "eps_output": 1} | keys
    return ["audit", "--mechanism", json.dumps(manifest), "--neighbors", '{"a": [1], "b": [0]}']



@pytest.mark.parametrize("argv, named", [
    (["sweep", "--dims", "8,16", "--trials", "100"], ["selection_sweep", "dims", "[8, 16]"]),
    (["sweep", "--dims", "8,16,32,64", "--model", "shuffle", "--delta", "0", "--trials", "100"],
     ["the shuffle model needs delta in (0, 1); at delta = 0 use the local model"]),
    (["fit", "--csv", "short.csv"], [">= 4", "got 3"]),
    (["fit", "--csv", "ragged.csv"], ["ragged.csv line 3:", "got '16'"]),
    (["fit", "--csv", "long.csv"], ["long.csv line 4:", "got '32,400,7'"]),
    (["fit", "--csv", "text.csv"], ["text.csv line 2:", "got '8,many'"]),
    (["audit", "--mechanism", _RR, "--neighbors", '{"a": [1], "b": [0]}', "--eps", "0.5,-1"],
     ["eps_grid must hold finite non-negative epsilons, got [-1.0]"]),
    (["audit", "--mechanism", _RR, "--neighbors", '{"a": [1], "b": [0]}', "--eps", "0.5,x"],
     ["--eps must be comma-separated numbers, got '0.5,x'"]),
    (["fit", "--csv", "absent.csv"], ["cannot read CSV file 'absent.csv'", "No such file"]),
    (["fit", "--csv", "empty.csv"], ["empty.csv is empty"]),
    (["fit", "--csv", "text.csv", "--y", "n"], ["columns 'd'/'n' not in ['d', 'n_star']"]),
    (["sample", "--dist", _FAMILY], ["whole family"]),
    (["tv", "--dist-a", _FAMILY, "--dist-b", _FAMILY], ["two members, not families"]),
    (["reduce-check", "--n", "8"], ["n must be divisible by 3, got 8"]),
    (_DISTINGUISH + ["--alpha", "0"], ["'alpha' must be in (0, 1/2), got 0.0"]),
    (_DISTINGUISH + ["--alpha", "0.7"], ["'alpha' must be in (0, 1/2), got 0.7"]),
    (_DISTINGUISH + ["--alpha", "0.5"], ["'alpha' must be in (0, 1/2), got 0.5"]),
    (_DISTINGUISH + ["--alpha", "0.5", "--learner", "plugin"],
     ["'alpha' must be in (0, 1/2), got 0.5"]),
    (_DISTINGUISH + ["--epsilon", "0"], ["'epsilon' must be positive, got 0.0"]),
    (_DISTINGUISH + ["--epsilon", "-1"], ["'epsilon' must be positive, got -1.0"]),
    (_DISTINGUISH + ["--epsilon", "nan"], ["'epsilon' must be positive, got nan"]),
    (_DISTINGUISH + ["--scale", "-1"], ["'test_phase_scale' must be non-negative, got -1.0"]),
    (_DISTINGUISH + ["--trials", "0"], ["'trials' must be at least 1, got 0"]),
    (_DISTINGUISH + ["--planted", "9"], ["subset (9,) has coordinates outside [1, 4]"]),
    (["distinguish", "--d", "0", "--trials", "200"], ["d must be positive"]),
    (_qlap(step=0), ["qlap_counter: step must be positive and finite, got 0.0"]),
    (_qlap(eps_update=0), ["qlap_counter: eps_update must be positive and finite, got 0.0"]),
    (_qlap(sensitivity=0), ["qlap_counter: sensitivity must be positive and finite, got 0.0"]),
    (["sweep", "--alpha", "0.5"], ["'alpha' must be in (0, 1/2), got 0.5"]),
    (["sweep", "--alpha", "0.7"], ["'alpha' must be in (0, 1/2), got 0.7"]),
    (["sweep", "--alpha", "0"], ["'alpha' must be in (0, 1/2), got 0.0"]),
    (["sweep", "--target", "1.5"], ["'target' must be in (0, 1], got 1.5"]),
    (["sweep", "--epsilon", "0"], ["'epsilon' must be positive, got 0.0"]),
    (["sweep", "--epsilon", "0", "--model", "central"], ["'epsilon' must be positive, got 0.0"]),
    (["sweep", "--delta", "nan"], ["'delta' must be in [0, 1), got nan"]),
], ids=["sweep-two-dims", "sweep-shuffle-delta-zero", "fit-three-rows", "fit-short-row",
        "fit-long-row", "fit-text-row", "audit-negative-eps", "audit-eps-text",
        "fit-missing-file", "fit-empty-file", "fit-unknown-column", "sample-family",
        "tv-family", "reduce-check-not-divisible", "distinguish-alpha-zero",
        "distinguish-alpha-above-half", "distinguish-alpha-half", "distinguish-plugin-alpha-half",
        "distinguish-epsilon-zero", "distinguish-epsilon-negative",
        "distinguish-epsilon-nan", "distinguish-scale-negative", "distinguish-no-trials",
        "distinguish-subset-outside-d", "distinguish-d-zero", "audit-qlap-step-zero",
        "audit-qlap-eps-update-zero", "audit-qlap-sensitivity-zero", "sweep-alpha-half",
        "sweep-alpha-above-half", "sweep-alpha-zero", "sweep-target-above-one",
        "sweep-epsilon-zero", "sweep-central-epsilon-zero", "sweep-delta-nan"])
def test_cli_guard_errors_exit_one_in_one_line(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.csv").write_text("d,n_star\n8,100\n16,200\n32,400\n")
    (tmp_path / "ragged.csv").write_text("d,n_star\n8,100\n16\n32,400\n64,800\n")
    (tmp_path / "long.csv").write_text("d,n_star\n8,100\n16,200\n32,400,7\n64,800\n")
    (tmp_path / "text.csv").write_text("d,n_star\n8,many\n16,200\n32,400\n64,800\n")
    (tmp_path / "empty.csv").write_text("")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(part in err for part in named), err


@pytest.mark.parametrize("neighbors, key, value", [
    ('{"a": 1, "b": [0]}', "stream_a", "1"),
    ('{"a": [1], "b": "0"}', "stream_b", "'0'"),
], ids=["a-number", "b-string"])
def test_cli_audit_rejects_a_stream_that_is_not_a_list(neighbors, key, value, capsys):
    code = main(["audit", "--mechanism", _RR, "--neighbors", neighbors])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: audit spec 'audit': '{key}' must be a list, got {value}\n"


def test_audit_kind_names_a_stream_that_is_not_a_list(tmp_path):
    spec = ExperimentSpec(kind="audit", experiment_id="bad-stream", params={
        "mechanism": json.loads(_RR), "stream_a": [1], "stream_b": 0, "eps_grid": [1.0],
    })
    named = r"^audit spec 'bad-stream': 'stream_b' must be a list, got 0$"
    with pytest.raises(ValueError, match=named):
        run_spec(spec, tmp_path)


def test_cli_audit_writes_the_audit_kind_table(tmp_path):
    manifest = {"type": "noisy_parity", "flip_p": 0.25}
    stream_a, stream_b = [1, 0, 1, 1], [0, 0, 1, 1]
    cli_csv = tmp_path / "cli.csv"
    code = main(["audit", "--mechanism", json.dumps(manifest),
                 "--neighbors", json.dumps({"a": stream_a, "b": stream_b}),
                 "--eps", "0.0,0.5,1.0,2.0", "--out", str(cli_csv)])
    assert code == 0
    spec = ExperimentSpec(kind="audit", experiment_id="kind-audit", params={
        "mechanism": manifest, "stream_a": stream_a, "stream_b": stream_b,
        "eps_grid": [0.0, 0.5, 1.0, 2.0],
    })
    assert cli_csv.read_bytes() == run_spec(spec, tmp_path).csv_path.read_bytes()


def test_cli_reduce_check_rejects_a_reference_outside_zero_one(capsys):
    code = main(["reduce-check", "--n", "6", "--ref-one", "1.5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: reference probabilities must be finite and non-negative\n"


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["norm", "--d", "3"])  # missing required arguments
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    ["sample", "--dist", _MEMBER, "--out", "absent/x.csv"],
    ["audit", "--mechanism", _RR, "--neighbors", '{"a": [1], "b": [0]}', "--out", "absent/x.csv"],
    ["norm", "--d", "2", "--k", "1", "--alpha", "0.1", "--json-out", "absent/x.json"],
    ["sweep", "--dims", "2,3,4,5", "--model", "central", "--trials", "50", "--out", "taken"],
], ids=["sample-out", "audit-out", "norm-json-out", "sweep-out-is-a-file"])
def test_cli_output_path_it_cannot_write_exits_one_in_one_line(argv, tmp_path, monkeypatch,
                                                               capsys):
    searches = []
    monkeypatch.setattr(harness, "find_selection_threshold",
                        lambda **kw: searches.append(kw) or find_selection_threshold(**kw))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # a search would run in this process
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    code = main(argv)
    _, err = capsys.readouterr()
    assert (code, searches) == (1, [])
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert "absent/x." in err or "'taken'" in err, err


def test_run_spec_refuses_a_path_under_a_file_before_the_kind(tmp_path, monkeypatch):
    calls = []
    norm = harness.infty_to_2_norm_bruteforce
    monkeypatch.setattr(harness, "infty_to_2_norm_bruteforce",
                        lambda *a, **kw: calls.append(1) or norm(*a, **kw))
    (tmp_path / "taken").write_text("")
    before = sorted(tmp_path.rglob("*"))
    spec = ExperimentSpec("norm", "under-a-file", {"d": 2, "k": 1, "alpha": 0.1})
    for out in ("taken/sub", "taken/sub/deeper"):
        with pytest.raises(NotADirectoryError) as err:
            run_spec(spec, tmp_path / out)
        assert str(err.value) == f"[Errno 20] Not a directory: '{tmp_path / out}'"
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before
    run_spec(spec, tmp_path / "free" / "sub")  # a missing ancestor under a directory is made
    assert calls == [1]


@pytest.mark.parametrize("bad", [0.0, -8.0, math.nan, math.inf])
def test_fit_scaling_names_the_first_point_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match=re.escape(f"got (x, y) = (16.0, {bad!r})")):
        fit_scaling([8, 16, 32, 64], [100, bad, 400, -1])


def test_cli_fit_refuses_a_zero_n_star_in_one_line(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("d,n_star\n8,100\n16,0\n32,400\n64,800\n")
    code = main(["fit", "--csv", str(path), "--slope-min", "0.5"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: a scaling fit needs positive finite points, got (x, y) = (16.0, 0.0)\n"


@pytest.mark.parametrize("argv", [
    ["audit", "--mechanism", _RR, "--neighbors", '{"a": [1], "b": [0]}'],
    ["norm", "--d", "2", "--k", "1", "--alpha", "0.1"],
    ["reduce-check", "--n", "6"],
], ids=["audit", "norm", "reduce-check"])
def test_cli_check_runs_its_kind_once(argv, monkeypatch):
    import panshuffle.cli as cli

    kinds = []
    run = cli._run_kind
    monkeypatch.setattr(cli, "_run_kind", lambda spec: kinds.append(spec.kind) or run(spec))
    assert main(argv) == 0
    assert kinds == [{"reduce-check": "wrapper_gap"}.get(argv[0], argv[0])]
