"""The benchmark's three workloads, built from a seed.

Each workload is a list of tasks run in order by one client (a closed loop).
A task does its work through the package's public modules and checks the
result against invariants that hold at every seed; it returns the values that
must not change: at the default seed, exact values are compared with the
stored reference values within 1e-12 and seeded CSVs by their digests, and
every pass in a process must return exactly the values of the first pass. A violated invariant raises
:class:`CheckFailed`.

Why these three:

* ``exact-online`` is pan-model state propagation (dict walks in ``exact``),
  dominated by the criterion-07 audit of a 769-state counter. An array-backed
  online engine should move almost all of it.
* ``exact-cohort`` uses the same ``exact`` layer through count-vector
  convolution, plus RR calibration and the norm enumeration. A faster RR audit
  or convolution shows here; an engine change that helps online propagation but
  slows convolution shows here too.
* ``seeded-mc`` is sampling-heavy and does no exact propagation inside its
  timed passes (the echo wrapper's kernels are built at set-up). Batched fits
  and batched wrapper emission show here; an ``exact``-only change should not.

Every random input (neighbour streams, reference laws, family strengths,
master seeds) comes from the workload seed, while the sizes that set the cost
stay fixed, so runs at different seeds cost the same.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from panshuffle import baselines as bl
from panshuffle import cli
from panshuffle import distributions as ds
from panshuffle import exact as ex
from panshuffle import harness as hs
from panshuffle import mechanisms as me
from panshuffle import metrics as mt
from panshuffle import reductions as rd
from panshuffle import rng as rg

DEFAULT_SEED = 0
SIZES = ("full", "smoke")


class CheckFailed(Exception):
    """A task's output broke one of its invariants."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], dict]


# ---------------------------------------------------------------------------
# helpers shared by the workloads


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _printed_floats(text: str, prefix: str) -> list[float]:
    """Floats printed as ``<prefix>=<repr>`` or ``<prefix> = <repr>`` by the CLI."""
    values = []
    for line in text.splitlines():
        for token in line.replace(" = ", "=").split():
            if token.startswith(prefix + "="):
                values.append(float(token.split("=", 1)[1]))
    return values


def _neighbours(rng, length: int, flip_at: int | None = None) -> tuple[list, list]:
    """A random bit stream and its neighbour differing in one position."""
    a = [int(v) for v in rng.integers(0, 2, size=length)]
    j = int(rng.integers(length)) if flip_at is None else flip_at
    b = list(a)
    b[j] ^= 1
    return a, b


def _sorted_law(law: dict) -> list[float]:
    return [law[k] for k in sorted(law)]


# ---------------------------------------------------------------------------
# exact-online


ONLINE = {
    "full": {"fine": (1.0 / 16, 24.0), "coarse": (0.25, 12.0), "audit_len": 8,
             "hybrid_n": 16, "six_n": 4, "cli_len": 6},
    "smoke": {"fine": (0.25, 6.0), "coarse": (0.5, 6.0), "audit_len": 4,
              "hybrid_n": 4, "six_n": 2, "cli_len": 4},
}


def exact_online(seed: int, size: str, work: Path) -> list[Task]:
    p = ONLINE[size]
    rng = rg.make_generator(seed, "bench", "exact-online")
    fine = me.quantized_laplace_counter(0.5, 0.5, step=p["fine"][0], span=p["fine"][1])
    if seed == DEFAULT_SEED:
        c07_pair = ([1, 0, 1, 0], [1, 0, 0, 0])
    else:
        c07_pair = _neighbours(rng, 4)

    coarse_manifest = {"type": "qlap_counter", "eps_update": 0.5, "eps_output": 0.5,
                       "step": p["coarse"][0], "span": p["coarse"][1]}
    coarse = me.mechanism_from_manifest(coarse_manifest)
    stream_a, stream_b = _neighbours(rng, p["audit_len"])
    eps_grid = [0.5, 1.0, 2.0]
    audit_spec = hs.ExperimentSpec("audit", "online-audit", {
        "mechanism": coarse_manifest, "stream_a": stream_a, "stream_b": stream_b,
        "eps_grid": eps_grid,
    })

    alpha = 0.25 if seed == DEFAULT_SEED else float(rng.uniform(0.15, 0.35))
    family = [ds.densify(m) for m in ds.family_enumerate(1, 1, alpha, "plain")]
    six = [
        ("qlap-coarse", me.quantized_laplace_counter(0.5, 0.5, step=0.25, span=12.0)),
        ("qlap-fine", me.quantized_laplace_counter(1.0, 0.3, step=0.5, span=10.0)),
        ("parity-chain-0.1", me.noisy_parity_chain(0.1)),
        ("parity-chain-0.3", me.noisy_parity_chain(0.3)),
        ("saturating", me.saturating_counter(cap=2)),
        ("constant", me.constant_mechanism(0)),
    ]

    flip = float(rng.uniform(0.2, 0.3))
    # the neighbours differ in the first element, so the time-1 state leaks at
    # rate (1 - flip) / flip > e^0.5 and the worst delta on the grid is positive
    cli_a, cli_b = _neighbours(rng, p["cli_len"], flip_at=0)
    cli_common = ["audit", "--mechanism", f'{{"type": "noisy_parity", "flip_p": {flip!r}}}',
                  "--neighbors", f'{{"a": {cli_a}, "b": {cli_b}}}', "--eps", "0.5,1.0,2.0"]

    def criterion07_audit() -> dict:
        curve = ex.audit_privacy(fine, c07_pair, [1.0])
        delta = float(curve.delta_max[0])
        slack = me.quantization_slack(fine, 1.0)
        require(delta <= slack, f"counter delta {delta!r} exceeds slack {slack!r}")
        return {"delta": delta}

    def coarse_audit() -> dict:
        result = hs.run_spec(audit_spec, work / "online-audit")
        rows = _csv_rows(result.csv_path)
        deltas = [float(r["delta_max"]) for r in rows]
        for row in rows:
            eps = float(row["epsilon"])
            slack = me.quantization_slack(coarse, eps)
            require(float(row["delta_max"]) <= slack,
                    f"delta at eps={eps} exceeds slack {slack!r}")
        return {"delta_max": deltas}

    def hybrid_certificates() -> dict:
        out = {}
        runs = [("qlap-coarse-long", coarse, p["hybrid_n"])]
        runs += [(name, alg, p["six_n"]) for name, alg in six]
        for name, alg, n in runs:
            report = ex.hybrid_tv_certificate(alg, family, n=n)
            require(report.ok, f"{name}: hybrid certificate not ok")
            require(report.endpoint_tv <= report.total_bound + 1e-10,
                    f"{name}: endpoint tv above the telescoped bound")
            out[name] = [report.endpoint_tv, report.min_slack, report.total_bound]
        return out

    def cli_audit() -> dict:
        code_pass, text = _run_cli(cli_common + ["--max-delta", "1.0"])
        require(code_pass == 0, f"audit with cap 1 exited {code_pass}")
        deltas = _printed_floats(text, "delta_max")
        require(len(deltas) == 3 and max(deltas) > 0.0, f"unexpected curve {deltas}")
        code_fail, _ = _run_cli(cli_common + ["--max-delta", "0.0"])
        require(code_fail == cli.CHECK_FAILED, f"audit with cap 0 exited {code_fail}")
        return {"delta_max": deltas}

    return [
        Task("criterion07-audit", criterion07_audit),
        Task("audit-kind-coarse", coarse_audit),
        Task("hybrid-certificates", hybrid_certificates),
        Task("cli-audit-parity", cli_audit),
    ]


# ---------------------------------------------------------------------------
# exact-cohort


COHORT = {
    "full": {"rr_n": (12, 60, 240), "echo_n": 90, "gap_n": (60, 240), "cli_gap_n": 60,
             "cal_n": (8, 12), "audit_n": (200, 400, 600), "norm": (4, 2), "labeled": (3, 2),
             "cli_norm": (4, 1)},
    "smoke": {"rr_n": (12, 24), "echo_n": 12, "gap_n": (12, 24), "cli_gap_n": 12,
              "cal_n": (8,), "audit_n": (30,), "norm": (3, 1), "labeled": (2, 1),
              "cli_norm": (2, 1)},
}


def _subset_count(d: int, k: int) -> int:
    return sum(math.comb(d, j) for j in range(1, k + 1))


def exact_cohort(seed: int, size: str, work: Path) -> list[Task]:
    p = COHORT[size]
    rng = rg.make_generator(seed, "bench", "exact-cohort")

    flip = float(rng.uniform(0.2, 0.3))
    rr = me.binary_randomized_response(flip)
    cohorts = {n: [int(v) for v in rng.integers(0, 2, size=n)] for n in p["rr_n"]}
    echo = me.echo_randomizer((0, 1, 2))
    law = rng.dirichlet(np.ones(3))
    echo_user = {i: float(law[i]) for i in range(3)}

    gap_specs = []
    for n in p["gap_n"]:
        ref_one = float(rng.uniform(0.3, 0.5))
        in_one = float(rng.uniform(0.7, 0.95))
        gap_specs.append(hs.ExperimentSpec("wrapper_gap", f"wrapper-gap-{n}", {
            "n": n, "randomizer": {"type": "binary_rr", "flip_p": flip}, "cutoff": n // 3,
            "reference": {"0": 1.0 - ref_one, "1": ref_one},
            "input": {"0": 1.0 - in_one, "1": in_one},
        }))
    cli_gap = ["reduce-check", "--n", str(p["cli_gap_n"]),
               "--flip-p", repr(float(rng.uniform(0.2, 0.35))),
               "--ref-one", repr(float(rng.uniform(0.3, 0.5))),
               "--input-one", repr(float(rng.uniform(0.7, 0.95)))]

    targets = [(n, float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.02, 0.08)))
               for n in p["cal_n"]]
    # fixed flips, not calibrated ones: no task calibrates above the exact-audit cap
    audited = [bl.CalibratedRR(flip_p=float(rng.uniform(0.02, 0.06)), epsilon=1.0,
                               delta=0.0, n=n, method="fixed")
               for n in p["audit_n"]]

    alpha = float(rng.uniform(0.1, 0.3))
    norm_spec = hs.ExperimentSpec("norm", "norm-plain",
                                  {"d": p["norm"][0], "k": p["norm"][1], "alpha": alpha})
    labeled = [ds.densify(m) for m in ds.family_enumerate(*p["labeled"], alpha, "labeled")]
    labeled_sq = 4.0 * alpha * alpha / (_subset_count(*p["labeled"]) + 1)
    cli_d, cli_k = p["cli_norm"]
    cli_norm = ["norm", "--d", str(cli_d), "--k", str(cli_k), "--alpha", repr(alpha)]

    def shuffle_counts() -> dict:
        out = {}
        for n, users in cohorts.items():
            counts = ex.exact_shuffle_counts(rr, users)
            total = sum(counts.values())
            mean = sum(pc * c[1] for c, pc in counts.items())
            want = sum((1.0 - flip) if u else flip for u in users)
            require(abs(total - 1.0) <= 1e-12, f"n={n}: law sums to {total!r}")
            require(abs(mean - want) <= 1e-9, f"n={n}: mean {mean!r} != {want!r}")
            out[f"rr-{n}"] = _sorted_law(counts)
        counts = ex.exact_shuffle_counts(echo, [echo_user] * p["echo_n"])
        require(abs(sum(counts.values()) - 1.0) <= 1e-12, "echo law does not sum to 1")
        marginal = np.zeros(p["echo_n"] + 1)
        for c, pc in counts.items():
            marginal[c[0]] += pc
        mean = float(marginal @ np.arange(p["echo_n"] + 1))
        require(abs(mean - p["echo_n"] * law[0]) <= 1e-9, "echo mean count is off")
        out[f"echo-{p['echo_n']}-marginal0"] = marginal.tolist()
        return out

    def wrapper_gaps() -> dict:
        out = {}
        for spec in gap_specs:
            summary = hs.run_spec(spec, work / "wrapper-gap").summary
            tv_null, tv_real = summary["tv_null"], summary["tv_real"]
            bound = summary["escape_bound"]
            require(tv_null <= 1e-10, f"{spec.experiment_id}: null tv {tv_null!r}")
            require(tv_real <= bound, f"{spec.experiment_id}: tv {tv_real!r} > {bound!r}")
            require(abs(bound - rd.wrapper_escape_mass(spec.params["n"])) <= 1e-12,
                    "escape bound moved")
            out[spec.experiment_id] = [tv_null, tv_real, bound]
        return out

    def cli_reduce_check() -> dict:
        code, text = _run_cli(cli_gap)
        require(code == 0, f"reduce-check exited {code}")
        tvs = [float(line.split(" = ")[1].split()[0]) for line in text.splitlines()
               if " tv on " in line]
        require(len(tvs) == 2, "reduce-check printed no tv lines")
        return {"tv": tvs}

    def calibrations() -> dict:
        out = {}
        for n, eps, delta in targets:
            cal = bl.calibrate_rr(eps, delta, n)
            require(cal.method == "exact-audit", f"n={n} calibrated by {cal.method}")
            audit = cal.audit_delta()
            require(audit <= delta, f"n={n}: flip re-audits at {audit!r} > {delta!r}")
            out[f"n{n}"] = [cal.flip_p, audit]
        return out

    def rr_audits() -> dict:
        out = {}
        for cal in audited:
            delta = cal.audit_delta()
            # the count law is a post-processing of the reports, so it can leak
            # no more than one user's randomized response does
            local = max(0.0, (1.0 - cal.flip_p) - math.exp(cal.epsilon) * cal.flip_p)
            require(0.0 <= delta <= local + 1e-12,
                    f"n={cal.n}: audit delta {delta!r} above the local level {local!r}")
            out[f"n{cal.n}"] = delta
        return out

    def norms() -> dict:
        summary = hs.run_spec(norm_spec, work / "norm").summary
        plain_sq = 4.0 * alpha * alpha / _subset_count(*p["norm"])
        require(abs(summary["value_sq"] - plain_sq) <= 1e-9, "plain norm off its closed form")
        report = mt.infty_to_2_norm_bruteforce(labeled)
        require(abs(report.value_sq - labeled_sq) <= 1e-9, "labeled norm off its closed form")
        code, text = _run_cli(cli_norm)
        require(code == 0, f"cli norm exited {code}")
        cli_sq = _printed_floats(text, "value_sq")
        want = 4.0 * alpha * alpha / _subset_count(cli_d, cli_k)
        require(len(cli_sq) == 1 and abs(cli_sq[0] - want) <= 1e-9, "cli norm off")
        return {"plain": summary["value_sq"], "labeled": report.value_sq, "cli": cli_sq[0]}

    return [
        Task("shuffle-counts", shuffle_counts),
        Task("wrapper-gap-kind", wrapper_gaps),
        Task("cli-reduce-check", cli_reduce_check),
        Task("calibrate-rr-exact", calibrations),
        Task("rr-audit-delta", rr_audits),
        Task("norms", norms),
    ]


# ---------------------------------------------------------------------------
# seeded-mc


SEEDED = {
    "full": {"pan_dims": [8, 16, 32, 64, 128], "local_dims": [8, 16, 32, 64],
             "pilot": 800, "confirm": 4000, "pan_slope": (0.35, 0.65),
             "local_slope": (1.8, 2.7), "planted_trials": 100_000,
             "plugin": (6, 2, 200, 4000), "mean_n": 2000, "mean_trials": 400,
             "wrapper_runs": 5000, "sample_rows": 1_000_000, "cli_rows": 20_000,
             "cli_trials": 20_000, "cli_sweep_trials": 2000},
    "smoke": {"pan_dims": [8, 16, 32, 64], "local_dims": [8, 16, 32, 64],
              "pilot": 200, "confirm": 500, "pan_slope": (0.2, 1.0),
              "local_slope": (1.0, 3.5), "planted_trials": 10_000,
              "plugin": (4, 1, 100, 300), "mean_n": 300, "mean_trials": 20,
              "wrapper_runs": 300, "sample_rows": 10_000, "cli_rows": 100,
              "cli_trials": 10_000, "cli_sweep_trials": 500},
}


def seeded_mc(seed: int, size: str, work: Path) -> list[Task]:
    p = SEEDED[size]
    rng = rg.make_generator(seed, "bench", "seeded-mc")

    def master() -> int:
        return int(rng.integers(1, 2**31))

    def sweep(model: str, dims: list[int]) -> hs.ExperimentSpec:
        return hs.ExperimentSpec("selection_sweep", f"sweep-{model}", {
            "dims": dims, "model": model, "epsilon": 1.0, "delta": 1e-6, "alpha": 0.2,
            "target": 0.9, "pilot_trials": p["pilot"],
        }, trials=p["confirm"], master_seed=master())

    sweeps = [(sweep("pan", p["pan_dims"]), p["pan_slope"]),
              (sweep("local", p["local_dims"]), p["local_slope"])]

    planted_spec = hs.ExperimentSpec("distinguish", "distinguish-planted", {
        "d": 10, "alpha": 0.2, "epsilon": 1.0, "planted_subset": [int(rng.integers(1, 11))],
    }, trials=p["planted_trials"], master_seed=master())
    d, k, n_learn, trials = p["plugin"]
    width = int(rng.integers(1, k + 1))
    subset = sorted(int(j) for j in rng.choice(np.arange(1, d + 1), size=width, replace=False))
    plugin_spec = hs.ExperimentSpec("distinguish", "distinguish-plugin", {
        "d": d, "k": k, "alpha": 0.2, "epsilon": 1.0, "learner": "plugin",
        "n_learn": n_learn, "planted_subset": subset,
    }, trials=trials, master_seed=master())

    truth = ds.member_descriptor(ds.ParametricHardDistribution(
        d=8, index=ds.ParityIndex((int(rng.integers(1, 9)),), 1), alpha=0.2), k=1)
    mean_master = master()

    def mean_spec(model: str, workers: int) -> hs.ExperimentSpec:
        return hs.ExperimentSpec("mean_error", f"mean-error-{model}", {
            "problem": "sparse-mean", "model": model, "d": 8, "alpha": 0.2,
            "n": p["mean_n"], "epsilon": 1.0, "delta": 1e-6, "truth": truth,
        }, trials=p["mean_trials"], master_seed=mean_master, workers=workers)

    # criterion-05 echo wrapper; as_pan_algorithm builds its exact kernels here
    echo_n = 30
    echo = me.ShuffleProtocol(randomizer=me.echo_randomizer((0, 1)),
                              analyzer=me.threshold_analyzer(echo_n // 3), n=echo_n)
    echo_alg = rd.ShuffleToPanWrapper(protocol=echo, reference={0: 1.0}).as_pan_algorithm()
    wrapper_master = master()

    sign = 1 if rng.random() < 0.5 else -1
    tilted = tuple(sorted(int(j) for j in rng.choice(np.arange(1, 13), size=2, replace=False)))
    alpha = float(rng.uniform(0.1, 0.3))
    member = ds.ParametricHardDistribution(d=12, index=ds.ParityIndex(tilted, sign), alpha=alpha)
    sample_master = master()

    desc = ('{"family": "plain", "d": 12, "k": 2, "ell": [%d, %d], "b": %d, "alpha": %r}'
            % (tilted[0], tilted[1], sign, alpha))
    cli_dir = work / "cli"
    cli_runs = [
        ("sample", ["sample", "--dist", desc, "--n", str(p["cli_rows"]),
                    "--seed", str(master()), "--out", str(cli_dir / "samples.csv"),
                    "--pmf-out", str(cli_dir / "pmf.csv")]),
        ("tv", ["tv", "--dist-a", desc, "--dist-b", '{"family": "uniform", "d": 12}',
                "--expect", repr(alpha)]),
        ("distinguish", ["distinguish", "--d", "8", "--trials", str(p["cli_trials"]),
                         "--seed", str(master()), "--min-advantage", "0.8"]),
        ("sweep", ["sweep", "--dims", "8,16,32,64", "--model", "pan",
                   "--seed", str(master()), "--trials", str(p["cli_sweep_trials"]),
                   "--out", str(cli_dir)]),
        ("fit", ["fit", "--csv", str(cli_dir / "selection-sweep.csv"),
                 "--slope-min", "0.2", "--slope-max", "1.2"]),
    ]

    def selection_sweeps() -> dict:
        out = {}
        for spec, (lo, hi) in sweeps:
            result = hs.run_spec(spec, work / "sweeps")
            slope = result.summary["slope"]
            require(lo <= slope <= hi,
                    f"{spec.experiment_id}: slope {slope!r} not in [{lo}, {hi}]")
            corridor = [float(r["corridor_success"]) for r in _csv_rows(result.csv_path)]
            require(max(corridor) < 0.9, f"{spec.experiment_id}: succeeds at n*/8")
            out[spec.experiment_id] = _digest(result.csv_path)
        return out

    def distinguishers() -> dict:
        out = {}
        for spec in (planted_spec, plugin_spec):
            result = hs.run_spec(spec, work / "distinguish")
            advantage = result.summary["advantage"]
            require(advantage >= 0.8, f"{spec.experiment_id}: advantage {advantage!r} < 0.8")
            out[spec.experiment_id] = _digest(result.csv_path)
        return out

    def mean_errors() -> dict:
        out = {}
        for model, workers in (("pan", 1), ("pan", 2), ("central", 1), ("local", 1)):
            result = hs.run_spec(mean_spec(model, workers), work / f"mean-w{workers}")
            errs = [float(r["err_linf"]) for r in _csv_rows(result.csv_path)]
            require(len(errs) == p["mean_trials"] and all(math.isfinite(e) for e in errs),
                    f"{model}: bad error rows")
            out[f"{model}-w{workers}"] = _digest(result.csv_path)
        require(out["pan-w1"] == out["pan-w2"], "pan CSV differs between workers 1 and 2")
        return out

    def wrapper_sampling() -> dict:
        gen = rg.make_generator(wrapper_master, "wrapper")
        runs = p["wrapper_runs"]
        stream = [1] * (echo_n // 3)
        wrapped = sum(me.run_pan(echo_alg, stream, t=1, rng=gen).output for _ in range(runs))
        require(wrapped == 0, f"wrapper output crossed the cutoff {wrapped} times")
        honest = 0
        for _ in range(runs):
            dataset = (gen.random(echo_n) < 2.0 / 9.0).astype(int).tolist()
            honest += int(me.run_shuffle(echo, dataset, rng=gen)[1])
        lo, hi = bl.wilson_interval(honest, runs, z=5.0)
        escape = rd.wrapper_escape_mass(echo_n)
        require(lo <= escape <= hi, f"honest rate {honest / runs} far from {escape!r}")
        return {"wrapped_hits": wrapped, "honest_hits": honest}

    def hard_samples() -> dict:
        rows = p["sample_rows"]
        x = ds.sample(member, rows, rg.make_generator(sample_master, "sample"))
        require(x.shape == (rows, 12) and bool(np.all(np.abs(x) == 1)), "samples not +-1")
        parity = float(x[:, [j - 1 for j in tilted]].prod(axis=1).mean())
        require(abs(parity - 2.0 * alpha * sign) <= 6.0 / math.sqrt(rows),
                f"tilted parity mean {parity!r} far from {2 * alpha * sign!r}")
        return {"digest": hashlib.sha256(x.tobytes()).hexdigest()}

    def cli_commands() -> dict:
        out = {}
        for name, argv in cli_runs:
            code, _ = _run_cli(argv)
            require(code == 0, f"cli {name} exited {code}")
        require(len(_csv_rows(cli_dir / "samples.csv")) == p["cli_rows"], "sample row count")
        # the pmf is exact: 2^-12 (1 + 2 alpha b x_l1 x_l2) within 1e-12, not a pinned digest
        for row in _csv_rows(cli_dir / "pmf.csv"):
            parity = math.prod(1 if row["x"][j - 1] == "+" else -1 for j in tilted)
            want = (1.0 + 2.0 * alpha * sign * parity) / 4096.0
            require(abs(float(row["prob"]) - want) <= 1e-12, f"pmf row {row['index']} off")
        for name in ("samples.csv", "selection-sweep.csv"):
            out[name] = _digest(cli_dir / name)
        return out

    return [
        Task("selection-sweeps", selection_sweeps),
        Task("distinguish-kind", distinguishers),
        Task("mean-error-kind", mean_errors),
        Task("wrapper-sampling", wrapper_sampling),
        Task("hard-sampling", hard_samples),
        Task("cli-seeded", cli_commands),
    ]


WORKLOADS = {
    "exact-online": exact_online,
    "exact-cohort": exact_cohort,
    "seeded-mc": seeded_mc,
}
