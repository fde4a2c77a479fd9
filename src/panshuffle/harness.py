"""Experiment runner with reproducible, byte-stable outputs.

An :class:`ExperimentSpec` names a registered experiment kind, its parameters,
a trial count, and a master seed. :func:`run_spec` executes it and writes two
files into the output directory:

* ``<experiment_id>.csv`` - the data rows. Every float is serialized with
  ``repr`` (shortest round-trip form), rows are emitted in a canonical order,
  and each trial draws from a stream derived only from (master seed, kind,
  experiment id, trial index). Reruns of the same spec therefore produce
  byte-identical CSVs at any process count.
* ``<experiment_id>.manifest.json`` - the spec echo, a hash of the canonical
  spec encoding, package and library versions, the ``workers`` asked for, the
  ``processes`` that ran the kind, and wall time. The manifest is bookkeeping,
  not data: it is excluded from byte-identity claims.

Before a kind runs, its spec's ``trials`` and ``workers`` (each at least 1) and
``master_seed`` must be integers, and its params are read through the kind's table
in :data:`EXPERIMENT_KINDS`: an unknown key, a missing or null required key,
or a value of the wrong JSON type raises ``ValueError`` naming the spec and
the key, as mechanism manifests and descriptors do.

Two kinds run in worker processes. ``mean_error`` spreads its trials, eight
to a task, over at most ``workers`` processes, one per block and usable CPU,
and in-process when that is one. ``selection_sweep``
ignores ``workers``: its threshold searches draw only from streams keyed by
their dimension, so it runs one search per distinct dim, largest first, over
one process per usable CPU (``os.sched_getaffinity``), and in-process when
only one CPU or one distinct dim is there.

Registered kinds: ``mean_error``, ``audit``, ``norm``, ``distinguish``,
``wrapper_gap``, ``selection_sweep``; each kind's check is written once, in its
runner. The CLI's ``audit``, ``norm``, ``reduce-check`` (``wrapper_gap``) and
``sweep`` (``selection_sweep``) run their kinds. ``distinguish`` shares
:func:`learner_advantage` with its kind instead, as recorded outputs pin both
the CLI's ``"cli-distinguish"`` stream and the kind's trial-0 stream. Every
CSV, here and in the CLI, goes through :func:`write_rows_csv`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .baselines import (
    MODELS,
    PROBLEMS,
    ProblemInstance,
    _certify,
    _check_search,
    _private_means,
    feature_matrix,
    find_selection_threshold,
    true_means,
)
from .distributions import ParityIndex, densify, family_enumerate
from .errors import GuardError, _read_keys
from .mechanisms import (
    ShuffleProtocol,
    histogram_analyzer,
    mechanism_from_manifest,
    threshold_analyzer,
)
from .metrics import infty_to_2_norm_bruteforce, parity_family_norm_bound_sq
from .reductions import (
    LearnerDistinguisher,
    PlantedLearner,
    PlugInParityLearner,
    ShuffleToPanWrapper,
    ThresholdReport,
    threshold_distinguisher,
    wrapper_escape_mass,
)
from . import exact as ex
from .rng import _fold_seed, _ndtri, derive_seed

__all__ = [
    "ExperimentSpec",
    "RunResult",
    "run_spec",
    "fit_scaling",
    "ScalingFit",
    "write_rows_csv",
    "EXPERIMENT_KINDS",
    "learner_advantage",
]


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    experiment_id: str
    params: dict = field(default_factory=dict)
    trials: int = 1
    master_seed: int = 0
    workers: int = 1

    def canonical_json(self) -> str:
        payload = {
            "kind": self.kind,
            "experiment_id": self.experiment_id,
            "params": self.params,
            "trials": self.trials,
            "master_seed": self.master_seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunResult:
    csv_path: Path
    manifest_path: Path
    summary: dict


# exact built-in types skip the isinstance chain (type(True) is bool, so bools fall through)
_EXACT_FMT = {int: str, float: repr, str: str}


def _fmt(value) -> str:
    exact = _EXACT_FMT.get(type(value))
    if exact is not None:
        return exact(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    """Write rows with repr-serialized floats and unix newlines."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _trial_rng(spec: ExperimentSpec) -> Callable[[int], np.random.Generator]:
    """Trial index -> its generator, ``make_generator(master_seed, kind, experiment_id, trial)``.

    The run's (master_seed, kind, experiment_id) prefix is folded once, when
    this is called; each trial then folds only its index, by the same SplitMix
    arithmetic, so every trial gets the stream ``make_generator`` gives it.
    """
    prefix = derive_seed(spec.master_seed, spec.kind, spec.experiment_id)
    return lambda trial: np.random.Generator(np.random.PCG64(_fold_seed(prefix, trial)))


def _usable_cpus() -> int:
    """How many CPUs this process may run on; 1 on a platform without affinity masks."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pmap(fn, items: list, workers: int, order: list | None = None) -> list:
    """``[fn(i) for i in items]``, over ``workers`` processes when more than one.

    Each item is one task, submitted in ``order`` (default: ``items``); results
    are read back in the order of ``items``, so the output, and the error
    raised when items fail (the first failing one's), are the serial loop's
    whatever the scheduling. The pool is shut down before this returns.
    """
    if workers <= 1:
        return [fn(i) for i in items]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {i: pool.submit(fn, i) for i in (items if order is None else order)}
        return [futures[i].result() for i in items]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# the distinguish check, shared by its kind and the CLI (see the module doc)


def learner_advantage(
    trials: int, rng: np.random.Generator, *, d: int, k: int, alpha: float, epsilon: float,
    planted_subset: list[int], planted_sign: int, learner: str, n_learn: int,
    test_phase_scale: float,
) -> tuple[LearnerDistinguisher, ThresholdReport]:
    """Threshold advantage of the learner distinguisher, ``trials`` runs per world.

    Both worlds draw from ``rng``, the planted world first.
    """
    if trials < 1:
        raise ValueError(f"'trials' must be at least 1, got {trials!r}")
    planted = ParityIndex(tuple(planted_subset), planted_sign)
    planted.check_within(d)
    dist = LearnerDistinguisher(
        learner=PlugInParityLearner(d=d, k=k) if learner == "plugin"
        else PlantedLearner(index=planted),
        d=d, alpha=alpha, epsilon=epsilon, n_learn=n_learn, test_phase_scale=test_phase_scale,
    )
    z_p = dist.run_batch(planted, trials, rng)
    z_u = dist.run_batch(None, trials, rng)
    return dist, threshold_distinguisher(z_p, z_u, min_samples=min(trials, 10_000))


# ---------------------------------------------------------------------------
# experiment kinds: each runs on its spec and its params, read through its table


# a kind's CSV header and rows, its summary, and how many processes ran it
_KindResult = tuple[list[str], list[tuple], dict, int]

_TRIAL_BLOCK = 8  # mean_error trials per pool task: one trial a task doubles the pool's cost


def _mean_error_block(spec: ExperimentSpec, inst: ProblemInstance, truth: np.ndarray,
                      trials: range) -> list[tuple]:
    """One row per trial: the largest error of the private means against ``truth``."""
    rows, trial_rng = [], _trial_rng(spec)
    for trial in trials:
        rng = trial_rng(trial)
        features = feature_matrix(inst, inst.sample_data(rng))  # checks the signs once
        means = _private_means(features, inst.noise, rng)
        rows.append((trial, float(np.abs(means - truth).max())))
    return rows


def _run_mean_error(spec: ExperimentSpec, **fields) -> _KindResult:
    """Trials in blocks of eight, over at most ``workers`` processes, one per block and CPU."""
    inst = ProblemInstance(**fields)
    inst.member  # reads the truth descriptor before any trial runs
    if inst.noise[0] == "gaussian":  # certifies the noise once, here, before any trial runs
        _ndtri()  # scipy's ndtri, loaded before a pool forks, so no worker imports it
    blocks = [range(i, min(i + _TRIAL_BLOCK, spec.trials))
              for i in range(0, spec.trials, _TRIAL_BLOCK)]
    processes = min(spec.workers, len(blocks), _usable_cpus())
    found = _pmap(partial(_mean_error_block, spec, inst, true_means(inst)), blocks, processes)
    rows = [row for block in found for row in block]
    errs = np.array([r[1] for r in rows])
    summary = {
        "mean_err": float(errs.mean()),
        "median_err": float(np.median(errs)),
        "max_err": float(errs.max()),
    }
    return ["trial", "err_linf"], rows, summary, processes


def _run_audit(spec: ExperimentSpec, mechanism: dict, stream_a: list, stream_b: list,
               eps_grid: list[float], intrusion_times: list[int] | None) -> _KindResult:
    """Exact privacy curve of a mechanism manifest on one neighboring stream pair.

    List elements of the streams become tuples; ``intrusion_times``, when not
    empty, restricts the online views audited.
    """
    pair = tuple([tuple(x) if isinstance(x, list) else x for x in s] for s in (stream_a, stream_b))
    curve = ex.audit_privacy(mechanism_from_manifest(mechanism), pair, eps_grid,
                             intrusion_times=intrusion_times or None)
    columns = (curve.epsilons, curve.delta_forward, curve.delta_backward, curve.delta_max)
    rows = list(zip(*(c.tolist() for c in columns)))
    summary = {"worst_delta": float(curve.delta_max.max())}
    return ["epsilon", "delta_forward", "delta_backward", "delta_max"], rows, summary, 1


def _run_norm(spec: ExperimentSpec, d: int, k: int, alpha: float, family: str) -> _KindResult:
    """Brute-force family norm against its closed form; the summary adds ``witness_bits``."""
    members = [densify(m) for m in family_enumerate(d, k, alpha, family)]
    report = infty_to_2_norm_bruteforce(members, bound_sq=parity_family_norm_bound_sq(d, k, alpha))
    value, bound = report.value_sq, report.bound_sq
    rows = [(d, k, alpha, family, value, bound, value / bound)]
    summary = json.loads(report.to_json()) | {"tight": bool(abs(value - bound) < 1e-9)}
    return ["d", "k", "alpha", "family", "value_sq", "bound_sq", "ratio"], rows, summary, 1


def _run_distinguish(spec: ExperimentSpec, **params) -> _KindResult:
    dist, report = learner_advantage(spec.trials, _trial_rng(spec)(0), **params)
    rows = [(report.tau, report.advantage, report.ci_low, report.ci_high)]
    summary = report.to_json() | {"test_len": dist.test_len}
    return ["tau", "advantage", "ci_low", "ci_high"], rows, summary, 1


def _run_wrapper_gap(spec: ExperimentSpec, n: int, randomizer: dict, cutoff: int | None,
                     reference: dict[int, float], input: dict[int, float]) -> _KindResult:
    """Output-law gaps of the shuffle-to-pan wrapper around an n-user protocol.

    ``tv_null`` compares the wrapper and the protocol on the ``reference`` law
    (exactly 0 in theory); ``tv_real`` compares the wrapper on ``input`` with
    the protocol on the (2/9)-diluted mixture, which ``escape_bound`` bounds.
    The protocol declares no privacy budget: no gap depends on one.
    """
    protocol = ShuffleProtocol(
        randomizer=mechanism_from_manifest(randomizer),
        analyzer=histogram_analyzer() if cutoff is None else threshold_analyzer(cutoff), n=n,
    )
    wrapper = ShuffleToPanWrapper(protocol=protocol, reference=reference)
    diluted = {k: 2.0 / 9.0 * input.get(k, 0.0) + 7.0 / 9.0 * reference.get(k, 0.0)
               for k in set(input) | set(reference)}
    tv_null, tv_real = (ex.tv_dicts(wrapper.exact_output_distribution(law),
                                    ex.exact_output_distribution(protocol, [target] * n))
                        for law, target in ((reference, reference), (input, diluted)))
    gap = {"tv_null": tv_null, "tv_real": tv_real, "escape_bound": wrapper_escape_mass(n)}
    return ["n", "tv_null", "tv_real", "escape_bound"], [(n, *gap.values())], gap, 1


def _threshold_row(search: dict, d: int) -> tuple:
    """The sweep's CSV row for dimension ``d``; it draws only from streams keyed by ``d``."""
    res = find_selection_threshold(d=d, **search)
    return (d, res.n_star, res.success_at_n_star, res.corridor_n, res.corridor_success)


def _run_selection_sweep(spec: ExperimentSpec, dims: list[int], **search) -> _KindResult:
    """One threshold search per distinct dim, over up to one process per usable CPU.

    The dims go out largest first, one to a task, so the slowest search starts
    first; the rows come back in ``dims`` order, the same bytes at any count.
    """
    if len(dims) < 4:
        raise ValueError(f"selection_sweep needs at least 4 dims for its scaling fit, got {dims}")
    _check_search(search["epsilon"], search["delta"], search["alpha"], search["target"],
                  dims=min(dims), pilot_trials=search["pilot_trials"])
    # the model certifies its noise once, here: a budget it refuses starts no pool
    kind, _, _ = _certify(search["model"], search["epsilon"], search["delta"], min(dims), 1)
    if kind == "gaussian":
        _ndtri()  # scipy's ndtri, loaded before a pool forks, so no worker imports it
    search |= {"confirm_trials": spec.trials, "master_seed": spec.master_seed,
               "tag": spec.experiment_id}
    distinct = list(dict.fromkeys(dims))
    workers = min(len(distinct), _usable_cpus())
    found = _pmap(partial(_threshold_row, search), distinct, workers,
                  order=sorted(distinct, reverse=True))
    by_dim = dict(zip(distinct, found))
    rows = [by_dim[d] for d in dims]
    fit = fit_scaling(dims, [r[1] for r in rows])
    summary = {"slope": fit.slope, "intercept": fit.intercept, "stderr": fit.stderr,
               "model": search["model"]}
    return ["d", "n_star", "success", "corridor_n", "corridor_success"], rows, summary, workers


# kind -> (runner, its params as (wanted type, default); ``...`` marks a required param)
EXPERIMENT_KINDS = {
    "mean_error": (_run_mean_error, {
        "problem": (PROBLEMS, "sparse-mean"), "model": (MODELS, ...), "d": (int, ...),
        "k": (int, 1), "alpha": (float, ...), "n": (int, ...), "epsilon": (float, ...),
        "delta": (float, 1e-6), "truth": (dict, ...),
    }),
    "audit": (_run_audit, {
        "mechanism": (dict, ...), "stream_a": (list, ...), "stream_b": (list, ...),
        "eps_grid": (list[float], ...), "intrusion_times": (list[int], None),
    }),
    "norm": (_run_norm, {
        "d": (int, ...), "k": (int, ...), "alpha": (float, ...),
        "family": (("plain", "labeled"), "plain"),
    }),
    "distinguish": (_run_distinguish, {
        "d": (int, ...), "k": (int, 1), "alpha": (float, ...), "epsilon": (float, ...),
        "planted_subset": (list[int], (1,)), "planted_sign": (int, 1),
        "learner": (("planted", "plugin"), "planted"), "n_learn": (int, 0),
        "test_phase_scale": (float, 24.0),
    }),
    "wrapper_gap": (_run_wrapper_gap, {
        "n": (int, ...), "randomizer": (dict, ...), "cutoff": (int, None),
        "reference": (dict[int, float], ...), "input": (dict[int, float], ...),
    }),
    "selection_sweep": (_run_selection_sweep, {
        "dims": (list[int], ...), "model": (MODELS, "pan"), "epsilon": (float, 1.0),
        "delta": (float, 1e-6), "alpha": (float, 0.2), "target": (float, 0.9),
        "pilot_trials": (int, 300),
    }),
}

_SPEC_FIELDS = {"trials": (int, ...), "master_seed": (int, ...), "workers": (int, ...)}


def _run_kind(spec: ExperimentSpec) -> _KindResult:
    """Run the spec's kind once the spec's fields and params are read (see the module doc)."""
    if spec.kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {spec.kind!r}; "
                         f"known: {sorted(EXPERIMENT_KINDS)}")
    site = f"{spec.kind} spec {spec.experiment_id!r}"
    _read_keys(site, {name: getattr(spec, name) for name in _SPEC_FIELDS}, _SPEC_FIELDS)
    for name in ("trials", "workers"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{site}: {name!r} must be at least 1, got {getattr(spec, name)!r}")
    run, keys = EXPERIMENT_KINDS[spec.kind]
    return run(spec, **_read_keys(site, spec.params, keys))


def run_spec(spec: ExperimentSpec, out_dir) -> RunResult:
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
    above = next((p for p in out.parents if p.exists()), None)  # the nearest existing ancestor
    if above is not None and not above.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    started = time.time()
    header, rows, summary, processes = _run_kind(spec)
    wall = time.time() - started
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{spec.experiment_id}.csv"
    write_rows_csv(csv_path, header, rows)
    manifest = {
        "spec": json.loads(spec.canonical_json()),
        "spec_hash": spec.spec_hash(),
        "workers": spec.workers,
        "processes": processes,
        "summary": summary,
        "versions": {
            "package": _pkg_version,
            "numpy": np.__version__,
        },
        "wall_time_s": wall,
    }
    manifest_path = out / f"{spec.experiment_id}.manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(csv_path=csv_path, manifest_path=manifest_path, summary=summary)


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log2 x, log2 y) with a residual-based slope error."""

    slope: float
    intercept: float
    stderr: float
    n_points: int

    def to_json(self) -> dict:
        return asdict(self)


def fit_scaling(xs, ys) -> ScalingFit:
    """Fit log2(y) = slope * log2(x) + intercept by least squares.

    Needs at least four points, each positive and finite (the first that is
    not raises ``ValueError``); the slope's standard error comes from the
    residual variance, so a clean power law reports a tight band.
    """
    x, y = (np.asarray(v, dtype=np.float64) for v in (xs, ys))
    m = len(x)
    if m < 4 or len(y) != m:
        raise GuardError(f"need >= 4 matched points for a scaling fit, got {m}")
    for point in zip(x.tolist(), y.tolist()):
        if not all(0.0 < v < math.inf for v in point):
            raise ValueError(f"a scaling fit needs positive finite points, got (x, y) = {point}")
    lx, ly = np.log2(x), np.log2(y)
    a = np.vstack([lx, np.ones(m)]).T
    coef, residuals, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - a @ coef
    dof = m - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return ScalingFit(slope=slope, intercept=intercept, stderr=stderr, n_points=m)
