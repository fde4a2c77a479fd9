"""End-to-end acceptance: ten numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -rA`` to see every verdict line in
the summary (each test prints its line before asserting, so a failing
criterion still reports itself).
"""

import dataclasses
import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from panshuffle import harness
from panshuffle.baselines import (
    calibrate_rr,
    plug_in_solve,
    wilson_interval,
)
from panshuffle.distributions import (
    ParametricHardDistribution,
    ParityIndex,
    densify,
    family_enumerate,
    fourier_spectrum,
)
from panshuffle.exact import (
    audit_privacy,
    exact_shuffle_counts,
    hybrid_tv_certificate,
    push_through_analyzer,
    tv_dicts,
)
from panshuffle.harness import ExperimentSpec, run_spec
from panshuffle.mechanisms import (
    ShuffleProtocol,
    binary_randomized_response,
    constant_mechanism,
    echo_randomizer,
    noisy_parity_chain,
    quantization_slack,
    quantized_laplace_counter,
    run_pan,
    run_shuffle,
    saturating_counter,
    threshold_analyzer,
)
from panshuffle.metrics import (
    infty_to_2_norm_bruteforce,
    parity_family_norm_bound_sq,
    tv_distance,
)
from panshuffle.reductions import (
    LearnerDistinguisher,
    PlantedLearner,
    ShuffleToPanWrapper,
    threshold_distinguisher,
    wrapper_escape_mass,
)
from panshuffle.rng import laplace, make_generator

from oracles.advantage_oracle import FROZEN_ADVANTAGE
from oracles.facts import fact_markov_check, fact_tv_chain_check, pinsker_check
from oracles.instances import random_instance
from oracles.norm_oracle import labeled_norm_sq, plain_norm_sq
from oracles.solve_oracle import solve

MASTER_SEED = 20260817


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} [{name}]: {detail}"


def _member_pmf(d: int, subset: tuple, sign: int, alpha: float) -> np.ndarray:
    member = ParametricHardDistribution(
        d=d, index=ParityIndex(subset, sign), alpha=alpha, family="plain"
    )
    return densify(member).probs


def test_criterion_01_exact_family_identities():
    worst = 0.0
    checks = 0
    for d in range(2, 7):
        uniform = np.full(2**d, 2.0**-d)
        for alpha in (0.05, 0.1, 0.25):
            pmfs = {
                (j, b): _member_pmf(d, (j,), b, alpha)
                for j in range(1, d + 1)
                for b in (1, -1)
            }
            for (j, b), pmf in pmfs.items():
                worst = max(worst, abs(tv_distance(uniform, pmf) - alpha))
                checks += 1
            for j, jp in combinations(range(1, d + 1), 2):
                for b in (1, -1):
                    for bp in (1, -1):
                        got = tv_distance(pmfs[(j, b)], pmfs[(jp, bp)])
                        worst = max(worst, abs(got - alpha))
                        checks += 1
            for j in range(1, d + 1):
                got = tv_distance(pmfs[(j, 1)], pmfs[(j, -1)])
                worst = max(worst, abs(got - 2 * alpha))
                checks += 1
    _verdict(
        1, "exact family identities", worst <= 1e-12,
        f"{checks} identities, worst deviation {worst:.3e}",
    )


def _is_signed_character(witness) -> bool:
    spec = fourier_spectrum(np.asarray(witness, dtype=np.float64))
    nz = np.flatnonzero(np.abs(spec) > 1e-9)
    return nz.size == 1 and abs(abs(spec[nz[0]]) - len(witness)) < 1e-9


def test_criterion_02_norm_tightness():
    worst_gap = 0.0
    all_chars = True
    labeled_ok = True
    for d, k in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        for alpha in (0.1, 0.25):
            members = [densify(m).probs for m in family_enumerate(d, k, alpha, "plain")]
            bound = parity_family_norm_bound_sq(d, k, alpha)
            report = infty_to_2_norm_bruteforce(members, bound_sq=bound)
            worst_gap = max(worst_gap, abs(report.value_sq - plain_norm_sq(d, k, alpha)))
            all_chars = all_chars and _is_signed_character(report.witness)
    for d, k in [(2, 1), (3, 1)]:
        for alpha in (0.1, 0.25):
            members = [densify(m).probs for m in family_enumerate(d, k, alpha, "labeled")]
            bound = parity_family_norm_bound_sq(d, k, alpha)
            report = infty_to_2_norm_bruteforce(members, bound_sq=bound)
            labeled_ok = labeled_ok and report.value_sq <= bound + 1e-12
            worst_gap = max(
                worst_gap, abs(report.value_sq - labeled_norm_sq(d, k, alpha))
            )
            all_chars = all_chars and _is_signed_character(report.witness)
    ok = worst_gap <= 1e-9 and all_chars and labeled_ok
    _verdict(
        2, "norm tightness", ok,
        f"worst |value - closed form| {worst_gap:.3e}, "
        f"witnesses all characters: {all_chars}",
    )


def test_criterion_03_hybrid_certificate():
    family = [densify(m) for m in family_enumerate(1, 1, 0.25, "plain")]
    mechanisms = [
        ("qlap-coarse", quantized_laplace_counter(0.5, 0.5, step=0.25, span=12.0)),
        ("qlap-fine", quantized_laplace_counter(1.0, 0.3, step=0.5, span=10.0)),
        ("parity-chain-0.1", noisy_parity_chain(0.1)),
        ("parity-chain-0.3", noisy_parity_chain(0.3)),
        ("saturating", saturating_counter(cap=2)),
        ("constant", constant_mechanism(0)),
    ]
    worst_slack = math.inf
    all_ok = True
    for _, alg in mechanisms:
        report = hybrid_tv_certificate(alg, family, n=4)
        worst_slack = min(worst_slack, report.min_slack)
        all_ok = all_ok and report.ok
        all_ok = all_ok and report.endpoint_tv <= report.total_bound + 1e-10
    ok = all_ok and worst_slack >= -1e-10
    _verdict(
        3, "hybrid certificate", ok,
        f"{len(mechanisms)} mechanisms at n=4, min per-step slack {worst_slack:.3e}",
    )


def test_criterion_04_facts_suite():
    rng = make_generator(MASTER_SEED, "acceptance", "facts")
    failures = 0
    for _ in range(500):
        a, b = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        marg = rng.dirichlet(np.ones(a))
        c1 = rng.dirichlet(np.ones(b), size=a)
        c2 = rng.dirichlet(np.ones(b), size=a)
        if not fact_tv_chain_check(marg[:, None] * c1, marg[:, None] * c2):
            failures += 1
        na, nb, nc = (int(rng.integers(2, 5)) for _ in range(3))
        pc = rng.dirichlet(np.ones(nc))
        pa_c = rng.dirichlet(np.ones(na), size=nc)
        pb_c = rng.dirichlet(np.ones(nb), size=nc)
        joint = np.einsum("c,ca,cb->abc", pc, pa_c, pb_c)
        if not fact_markov_check(joint):
            failures += 1
    for _ in range(500):
        m_in, m_out = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(m_in))
        q = rng.dirichlet(np.ones(m_in))
        channel = rng.dirichlet(np.ones(m_out), size=m_in)
        if tv_distance(p @ channel, q @ channel) > tv_distance(p, q) + 1e-12:
            failures += 1
        if not pinsker_check(p, q):
            failures += 1
    _verdict(
        4, "facts suite", failures == 0,
        f"500 joint pairs x 2 facts, 500 channels, 500 divergence pairs; "
        f"{failures} failures",
    )


def test_criterion_05_wrapper_fidelity():
    # (a) exact identity at n=6 on a binary alphabet
    ref = {1: 0.3, 0: 0.7}
    proto = ShuffleProtocol(
        randomizer=binary_randomized_response(0.25),
        analyzer=threshold_analyzer(3),
        n=6,
    )
    wrapper = ShuffleToPanWrapper(protocol=proto, reference=ref)
    honest = push_through_analyzer(
        exact_shuffle_counts(proto.randomizer, [ref] * 6), proto.analyzer
    )
    tv_null = tv_dicts(wrapper.exact_output_distribution(ref), honest)

    # (b) dilution gap estimates on the worst-case echo construction
    rng = make_generator(MASTER_SEED, "acceptance", "wrapper")
    trials = 1_000_000
    estimates = {}
    bands = {}
    for n in (30, 60, 120, 240):
        budget = np.minimum(rng.binomial(n, 2.0 / 9.0, size=trials), n // 3)
        wrapper_exceed = float(np.mean(budget > n // 3))
        honest_hits = int(np.sum(rng.binomial(n, 2.0 / 9.0, size=trials) > n // 3))
        honest_rate = honest_hits / trials
        estimates[n] = honest_rate - wrapper_exceed
        lo, hi = wilson_interval(honest_hits, trials)
        bands[n] = (lo, hi)
    ordered = [estimates[n] for n in (30, 60, 120, 240)]
    nonincreasing = all(x >= y for x, y in zip(ordered, ordered[1:]))
    small_enough = all(estimates[n] < 1.0 / 6.0 for n in (60, 120, 240))
    inside = all(
        bands[n][0] <= wrapper_escape_mass(n) <= bands[n][1] for n in (30, 60, 120, 240)
    )

    # cross-check the sufficient-statistic sampler against the package paths
    n_check = 30
    echo = ShuffleProtocol(
        randomizer=echo_randomizer((0, 1)),
        analyzer=threshold_analyzer(n_check // 3),
        n=n_check,
    )
    echo_wrapper = ShuffleToPanWrapper(protocol=echo, reference={0: 1.0})
    alg = echo_wrapper.as_pan_algorithm()
    check_rng = make_generator(MASTER_SEED, "acceptance", "wrapper-check")
    wrapped_hits = sum(
        run_pan(alg, [1] * (n_check // 3), t=1, rng=check_rng).output
        for _ in range(20_000)
    )
    honest_pkg_hits = 0
    for _ in range(20_000):
        dataset = (check_rng.random(n_check) < 2.0 / 9.0).astype(int).tolist()
        honest_pkg_hits += run_shuffle(echo, dataset, rng=check_rng)[1]
    pkg_gap = honest_pkg_hits / 20_000 - wrapped_hits / 20_000
    lo_pkg, hi_pkg = wilson_interval(honest_pkg_hits, 20_000)
    cross_ok = wrapped_hits == 0 and lo_pkg <= wrapper_escape_mass(n_check) <= hi_pkg

    ok = tv_null <= 1e-10 and nonincreasing and small_enough and inside and cross_ok
    _verdict(
        5, "wrapper fidelity", ok,
        f"null tv {tv_null:.2e}; gaps {[f'{estimates[n]:.4f}' for n in (30, 60, 120, 240)]} "
        f"nonincreasing={nonincreasing}, <1/6 beyond n=60={small_enough}; "
        f"package cross-check gap {pkg_gap:.4f}",
    )


def test_criterion_06_distinguisher_law():
    alpha, eps = 0.2, 1.0
    planted = ParityIndex(subset=(1,), sign=1)
    law_dist = LearnerDistinguisher(
        learner=PlantedLearner(index=planted), d=10, alpha=alpha, epsilon=eps,
        n_learn=0, test_phase_scale=4.0,
    )
    t = law_dist.test_len
    t_ok = t == math.ceil(4.0 / (alpha * eps)) == 20
    draws = 100_000
    rng = make_generator(MASTER_SEED, "acceptance", "distinguisher")
    z_q = law_dist.run_batch(planted, draws, rng)
    z_u = law_dist.run_batch(None, draws, rng)
    ref_q = (
        rng.binomial(t, 0.5 + alpha, size=draws)
        + laplace(rng, 1.0 / eps, size=draws)
        + laplace(rng, 1.0 / eps, size=draws)
    )
    ref_u = (
        rng.binomial(t, 0.5, size=draws)
        + laplace(rng, 1.0 / eps, size=draws)
        + laplace(rng, 1.0 / eps, size=draws)
    )
    p_q = ks_2samp(z_q, ref_q).pvalue
    p_u = ks_2samp(z_u, ref_u).pvalue

    full_dist = dataclasses.replace(law_dist, test_phase_scale=24.0)
    zp = full_dist.run_batch(planted, draws, rng)
    zu = full_dist.run_batch(None, draws, rng)
    report = threshold_distinguisher(zp, zu)
    oracle_gap = abs(report.advantage - FROZEN_ADVANTAGE[full_dist.test_len])
    ok = t_ok and p_q >= 1e-3 and p_u >= 1e-3 and report.advantage >= 0.8 and oracle_gap < 0.01
    _verdict(
        6, "distinguisher law", ok,
        f"T={t}, KS p-values {p_q:.3f}/{p_u:.3f}, advantage {report.advantage:.4f} "
        f"(exact law optimum {FROZEN_ADVANTAGE[full_dist.test_len]:.4f})",
    )


def test_criterion_07_privacy_audits():
    # (a) single-user randomized response at its exact pure level
    flip_p = 0.2
    eps_star = math.log((1 - flip_p) / flip_p)
    rz = binary_randomized_response(flip_p)
    curve = audit_privacy(rz, ([1], [0]), [0.999 * eps_star, eps_star])
    at_level = float(curve.delta_max[1])
    below_level = float(curve.delta_max[0])
    single_ok = at_level <= 1e-9 and below_level > 0.0

    # (b) the shuffled-cohort calibration re-certifies under the exact audit
    cal = calibrate_rr(1.0, 0.05, 8)
    rz_cal = binary_randomized_response(cal.flip_p)
    worst = 0.0
    for k in range(8):
        pair = ([1] * k + [0] * (8 - k), [1] * (k + 1) + [0] * (7 - k))
        worst = max(worst, float(audit_privacy(rz_cal, pair, [1.0]).delta_max[0]))
    shuffled_ok = worst <= 0.05 + 1e-12

    # (c) online counter: worst-case over intrusions, within quantization slack
    ctr = quantized_laplace_counter(0.5, 0.5, step=1.0 / 16, span=24.0)
    slack = quantization_slack(ctr, 1.0)
    pan_curve = audit_privacy(ctr, ([1, 0, 1, 0], [1, 0, 0, 0]), [1.0])
    pan_delta = float(pan_curve.delta_max[0])
    pan_ok = pan_delta <= slack

    ok = single_ok and shuffled_ok and pan_ok
    _verdict(
        7, "privacy audits", ok,
        f"single-user delta {at_level:.2e} at eps*, cohort worst {worst:.4f} <= 0.05, "
        f"counter delta {pan_delta:.2e} <= slack {slack:.2e}",
    )


def _sweep_spec() -> ExperimentSpec:
    return ExperimentSpec(
        kind="selection_sweep",
        experiment_id="selection-sweep-pan",
        params={
            "dims": [8, 16, 32, 64, 128],
            "model": "pan",
            "epsilon": 1.0,
            "delta": 1e-6,
            "alpha": 0.2,
            "target": 0.9,
            "pilot_trials": 800,
        },
        trials=4000,
        master_seed=MASTER_SEED,
    )


def test_criterion_08_scaling_reproduction(tmp_path):
    res = run_spec(_sweep_spec(), tmp_path)
    slope = res.summary["slope"]
    rows = [line.split(",") for line in res.csv_path.read_text().splitlines()[1:]]
    corridor = {int(r[0]): float(r[4]) for r in rows}
    corridor_ok = all(v < 0.9 for v in corridor.values())
    ok = 0.35 <= slope <= 0.65 and corridor_ok
    _verdict(
        8, "scaling reproduction", ok,
        f"slope {slope:.4f} in [0.35, 0.65], stderr {res.summary['stderr']:.4f}, "
        f"success at n*/8 all < 0.9 (max {max(corridor.values()):.3f})",
    )


def test_criterion_09_solver_reductions():
    rng = make_generator(MASTER_SEED, "acceptance", "solvers")
    mismatches = 0
    for trial in range(100):
        inst = dataclasses.replace(random_instance(rng), epsilon=math.inf)
        samples = inst.sample_data(make_generator(MASTER_SEED, "solver-data", trial))
        got = solve(inst, samples, make_generator(MASTER_SEED, "solver-noise", trial))
        want = plug_in_solve(inst, samples)
        same = np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        mismatches += 0 if same else 1
    _verdict(
        9, "solver reductions", mismatches == 0,
        f"100 random instances at infinite budget, {mismatches} disagreements",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    def digest(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    sweep_digests = set()
    for cpus in (1, 2):
        # the sweep runs its dims over one process per usable CPU
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        for rep in (0, 1):
            result = run_spec(_sweep_spec(), tmp_path / f"sweep-{cpus}-{rep}")
            sweep_digests.add(digest(result.csv_path))

    def mean_error_spec(workers: int) -> ExperimentSpec:
        from panshuffle.distributions import member_descriptor

        member = ParametricHardDistribution(d=4, index=ParityIndex((2,), 1), alpha=0.2)
        return ExperimentSpec(
            kind="mean_error",
            experiment_id="acceptance-mean-error",
            params={
                "problem": "sparse-mean",
                "model": "pan",
                "d": 4,
                "alpha": 0.2,
                "n": 200,
                "epsilon": 1.0,
                "delta": 1e-6,
                "truth": member_descriptor(member, k=1),
            },
            trials=48,
            master_seed=MASTER_SEED,
            workers=workers,
        )

    mean_digests = {
        digest(run_spec(mean_error_spec(w), tmp_path / f"mean-{w}-{rep}").csv_path)
        for w in (1, 8)
        for rep in (0, 1)
    }
    ok = len(sweep_digests) == 1 and len(mean_digests) == 1
    _verdict(
        10, "determinism", ok,
        f"sweep digests {len(sweep_digests)} distinct (4 runs, 1 and 2 processes), "
        f"trial-parallel digests {len(mean_digests)} distinct (4 runs, workers 1 and 8)",
    )
