"""Baselines: calibration, estimators, problem instances, selection thresholds."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import panshuffle
import panshuffle.baselines as baselines_mod
from panshuffle.baselines import (
    EXACT_AUDIT_MAX_N,
    MODELS,
    CalibratedRR,
    PROBLEMS,
    ProblemInstance,
    calibrate_rr,
    decide,
    empirical_means,
    feature_matrix,
    find_selection_threshold,
    pan_noise_parameters,
    plug_in_solve,
    private_means,
    rr_count_pmf,
    score,
    selection_success_fast,
    true_means,
    wilson_interval,
)
from panshuffle.distributions import ParametricHardDistribution, ParityIndex, member_descriptor
from panshuffle.errors import GuardError
from panshuffle.rng import make_generator

from oracles.feature_oracle import feature_matrix_by_columns
from oracles.pld_oracle import full_length_reading
from oracles.release_oracle import release_audit_delta
from oracles.sign_matrix_oracle import feature_matrix_by_gather
from oracles.instances import random_instance
from oracles.solve_oracle import solve


def test_rr_count_pmf_is_binomial_convolution():
    p = 0.3
    pmf = rr_count_pmf(4, 3, p)
    assert pmf.shape == (8,)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    direct = np.convolve(binom.pmf(np.arange(5), 4, 1 - p), binom.pmf(np.arange(4), 3, p))
    assert np.allclose(pmf, direct, atol=1e-12)


@pytest.mark.parametrize("ones, zeros, flip", [
    (4, 3, 0.3), (2000, 1000, 0.2), (0, 5, 0.1), (7, 0, 0.45), (0, 0, 0.2), (13, 400, 0.05),
])
def test_rr_count_pmf_keeps_the_bits_of_the_table_rows(ones, zeros, flip):
    rows = baselines_mod._binomial_rows(max(ones, zeros), flip)
    want = np.convolve(rows[ones, ones::-1], rows[zeros, : zeros + 1])
    assert rr_count_pmf(ones, zeros, flip).tobytes() == want.tobytes()


def test_rr_count_pmf_builds_two_rows_not_the_table():
    # the (n + 1) x (n + 1) table is 32 MB at n = 2,000
    tracemalloc.start()
    try:
        pmf = rr_count_pmf(2000, 1000, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pmf) == 3001 and abs(pmf.sum() - 1.0) <= 1e-12
    assert peak <= 1e6, peak


def test_calibrate_rr_pure_regime_is_local_level():
    cal = calibrate_rr(1.2, 0.0, 500)
    assert cal.flip_p == pytest.approx(1.0 / (1.0 + math.exp(1.2)), abs=1e-15)
    assert cal.method == "closed-form"
    # d reports at the local level of eps / d each
    cal = calibrate_rr(1.2, 0.0, 500, 4)
    assert cal.flip_p == pytest.approx(1.0 / (1.0 + math.exp(0.3)), abs=1e-15)
    assert (cal.method, cal.d) == ("closed-form", 4)


def test_calibrate_rr_exact_audit_regime():
    cal = calibrate_rr(1.0, 0.05, 8)
    assert cal.method == "exact-audit"
    assert cal.n == 8 and cal.epsilon == 1.0 and cal.delta == 0.05
    assert cal.audit_delta() <= 0.05 + 1e-12
    # amplification: the certified flip rate beats the pure local requirement
    assert cal.flip_p < 1.0 / (1.0 + math.e)
    # near-minimal: shaving two percent off the rate breaks the audit
    looser = dataclasses.replace(cal, flip_p=cal.flip_p * 0.98)
    assert looser.audit_delta() > 0.05


@pytest.mark.parametrize("n", list(range(2, 41)) + [60])
def test_the_blanket_bound_is_at_least_the_exact_audit(n):
    for flip in (0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
        for eps in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
            exact = baselines_mod._rr_audit_delta(n, flip, eps)
            assert baselines_mod._blanket_delta(n, flip, eps) >= exact - 2.2e-16, (flip, eps)


@pytest.mark.parametrize("n", [400, 1200])
def test_the_blanket_bound_is_at_least_the_exact_audit_where_it_steps_over_c(n):
    # here C's sd reaches 8, so each step of the sum covers 2 or more counts of C
    for flip in (0.05, 0.2, 0.4):
        for eps in (0.05, 0.3, 1.0):
            exact = baselines_mod._rr_audit_delta(n, flip, eps)
            assert baselines_mod._blanket_delta(n, flip, eps) >= exact - 2.2e-16, (flip, eps)


_BLANKET_TARGETS = [(n, eps, delta) for n in (EXACT_AUDIT_MAX_N + 1, 40, 200)
                    for eps, delta in ((0.1, 1e-2), (1.0, 1e-6), (4.0, 1e-3))]


@pytest.mark.parametrize("n, eps, delta", _BLANKET_TARGETS)
def test_a_blanket_flip_re_audits_within_its_delta(n, eps, delta):
    cal = calibrate_rr(eps, delta, n)
    assert cal.method == "blanket" and 0.0 < cal.flip_p < 0.5
    assert cal.audit_delta() <= delta


@pytest.mark.parametrize("n, eps, delta", _BLANKET_TARGETS)
def test_a_blanket_flip_two_percent_lower_breaks_the_bound(n, eps, delta):
    cal = calibrate_rr(eps, delta, n)
    assert baselines_mod._blanket_delta(n, 0.98 * cal.flip_p, eps) > delta


@pytest.mark.parametrize("n, eps, delta, flip", [
    # the flips the blanket bound certifies where the exact audit gives 0.0307, 0.0482, 0.244
    (200, 1.0, 1e-2, 0.0366), (600, 1.0, 1e-6, 0.0559), (2000, 0.1, 1e-6, 0.273),
])
def test_blanket_flips_on_large_cohorts(n, eps, delta, flip):
    assert calibrate_rr(eps, delta, n).flip_p == pytest.approx(flip, abs=5e-4)


# (n, d, eps, delta): cohorts small enough for the exact audit of the whole release
_RELEASE_TARGETS = [(8, 2, 1.0, 1e-2), (11, 2, 0.5, 1e-2), (12, 2, 1.0, 1e-3),
                    (10, 3, 1.0, 1e-2), (9, 3, 2.0, 1e-3), (12, 3, 4.0, 1e-3)]


@pytest.mark.parametrize("n, d, eps, delta", _RELEASE_TARGETS)
def test_a_composed_flip_bounds_the_exact_audit_of_the_whole_release(n, d, eps, delta):
    cal = calibrate_rr(eps, delta, n, d)
    assert (cal.method, cal.d) == ("composed", d)
    exact = release_audit_delta(n, cal.flip_p, [eps], d)[0]
    composed = baselines_mod._composed_delta(n, cal.flip_p, eps, d)
    # measured 1.36-1.63: at n <= 12 the blanket alone is up to 1.36x the exact audit
    # of one coordinate, and composition carries that slack to every coordinate
    assert exact <= composed <= delta
    assert composed <= 1.7 * exact


@pytest.mark.parametrize("n", [8, 10, 12])
def test_the_release_oracle_at_one_coordinate_is_the_count_audit(n):
    for flip in (0.05, 0.2, 0.4):
        exact = [baselines_mod._rr_audit_delta(n, flip, eps) for eps in (0.1, 1.0)]
        assert np.allclose(release_audit_delta(n, flip, [0.1, 1.0], 1), exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, d", [(8, 2), (10, 2), (12, 2), (8, 3), (10, 3)])
def test_the_composed_bound_is_at_least_the_exact_release_audit(n, d):
    epsilons = [0.1, 0.5, 1.0, 2.0]
    for flip in (0.05, 0.2, 0.4):
        for eps, exact in zip(epsilons, release_audit_delta(n, flip, epsilons, d)):
            assert baselines_mod._composed_delta(n, flip, eps, d) >= exact, (flip, eps)


@pytest.mark.parametrize("n, eps, flip", [(13, 0.5, 0.2), (200, 1.0, 0.0366), (600, 1.0, 0.0559),
                                          (2000, 0.1, 0.273), (40, 2.0, 0.1)])
def test_one_composed_coordinate_lies_within_a_grid_step_of_the_blanket_bound(n, eps, flip):
    # rounding each loss up by less than the step h can move the curve at most from eps to eps - h
    composed = baselines_mod._composed_delta(n, flip, eps, 1)
    assert baselines_mod._blanket_delta(n, flip, eps) <= composed
    assert composed <= baselines_mod._blanket_delta(n, flip, eps - baselines_mod._LOSS_STEP) + 1e-10


_COMPOSED_TARGETS = [(40, 4, 4.0, 1e-3), (228, 8, 1.0, 1e-6), (1136, 128, 1.0, 1e-6)]


@pytest.mark.parametrize("n, d, eps, delta", _COMPOSED_TARGETS)
def test_a_composed_flip_re_certifies_and_two_percent_lower_breaks_the_bound(n, d, eps, delta):
    cal = calibrate_rr(eps, delta, n, d)
    assert cal.method == "composed" and 0.0 < cal.flip_p < 0.5
    assert baselines_mod._composed_delta(n, cal.flip_p, eps, d) <= delta
    assert baselines_mod._composed_delta(n, 0.98 * cal.flip_p, eps, d) > delta


@pytest.mark.parametrize("n, d, flip", [
    # the flips the exact-law predictions give at eps = 1, delta = 1e-6 for d = 8 and 128
    (228, 8, 0.269), (1136, 128, 0.354),
])
def test_composed_flips_match_the_exact_law_predictions(n, d, flip):
    assert calibrate_rr(1.0, 1e-6, n, d).flip_p == pytest.approx(flip, rel=0.02)


@pytest.mark.parametrize("n, d, flip", [(228, 8, 0.269), (1136, 128, 0.354)])
def test_the_windowed_fft_matches_the_full_length_fft(n, d, flip):
    losses, weights, _ = baselines_mod._blanket_loss(n, flip)
    reading, rounding = baselines_mod._composed_reading(losses, weights, 1.0, d)
    full = full_length_reading(losses, weights, 1.0, d, baselines_mod._LOSS_STEP)
    # measured 1.3e-10 and 5.2e-9 relative: both FFTs' rounding, which the bound covers
    assert abs(reading - full) <= min(rounding, 2e-8 * full)


def test_the_composed_bound_refuses_an_fft_past_the_path_guard():
    # at n = 1000 the first bisection step's loss spreads over 2^24 grid steps at d = 10^6
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match=r"^composed privacy loss \(d=1000000\): "
                                             r".*; reduce d or raise the cohort n$"):
            calibrate_rr(1.0, 1e-6, 1000, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak  # the 2^24-point transform alone would take 134 MB


def test_calibrate_rr_rejects_bad_inputs():
    with pytest.raises(ValueError):
        calibrate_rr(0.0, 0.1, 10)
    with pytest.raises(ValueError):
        calibrate_rr(1.0, 0.1, 0)
    with pytest.raises(ValueError, match="'d' must be at least 1, got 0"):
        calibrate_rr(1.0, 0.1, 10, 0)
    # a per-feature budget above 1 is certified too
    cal = calibrate_rr(2.0, 1e-6, 100)
    assert cal.method == "blanket" and cal.audit_delta() <= 1e-6


@pytest.mark.parametrize("n", [8, 100])
def test_calibrate_rr_refuses_an_overflowing_epsilon_before_any_bound(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bound ran")

    monkeypatch.setattr(baselines_mod, "_rr_audit_delta", refuse)
    monkeypatch.setattr(baselines_mod, "_blanket_delta", refuse)
    with pytest.raises(ValueError, match=r"^e\^eps overflows float64 at eps = 800\.0; "):
        calibrate_rr(800.0, 1e-6, n)


def test_the_blanket_bound_refuses_a_cohort_past_the_path_guard():
    # at eps = 1e-4 the Bin(C, 1/2) rows of 10^10 users would span about 4e7 entries
    with pytest.raises(GuardError, match=r"^privacy-blanket bound \(n=10000000000\): .*; reduce the cohort n$"):
        calibrate_rr(1e-4, 1e-6, 10**10)


@pytest.mark.parametrize("m", [1, 2, 5, 12, 50, 100, 1000, 10_000, 100_000])
@pytest.mark.parametrize("q", [1e-4, 0.1, 0.5, 0.9])
def test_log_binomial_matches_scipy_within_ten_sd(m, q):
    sd = math.sqrt(m * q * (1.0 - q))
    lo, hi = max(0, math.floor(m * q - 10 * sd)), min(m, math.ceil(m * q + 10 * sd))
    got = baselines_mod._log_binomial(m, q, lo, hi - lo + 1)
    # a log-pmf gap is the pmf's relative error
    gap = np.abs(got - binom.logpmf(np.arange(lo, hi + 1), m, q)).max()
    assert gap <= (1e-12 if m <= 100 else baselines_mod._LOG_PMF_RTOL), gap


def test_log_binomial_rows_are_their_own_calls_and_read_minus_inf_above_m():
    rows = baselines_mod._log_binomial(np.array([7, 30, 31]), 0.5, np.array([3, 16, 0]), 6)
    for row, m, lo in zip(rows, (7, 30, 31), (3, 16, 0)):
        assert np.array_equal(row, baselines_mod._log_binomial(m, 0.5, lo, 6))
    assert np.isneginf(rows[0, 5]) and np.isfinite(rows[0, :5]).all()
    assert np.allclose(np.exp(rows[0, :5]), binom.pmf(np.arange(3, 8), 7, 0.5), rtol=1e-13)


_EPS_GRID = [0.0, 1e-300, 1e-9, 0.01, 0.5, 1.0, 2.0, 10.0, 100.0, 700.0,
             math.log(np.finfo(np.float64).max)]


@pytest.mark.parametrize("n", range(1, EXACT_AUDIT_MAX_N + 1))
def test_the_rr_audit_at_flip_one_half_reads_zero(n):
    # both neighbors' count laws are then one array, so every gap is x - fl(e^eps x) <= 0
    assert [baselines_mod._rr_audit_delta(n, 0.5, eps) for eps in _EPS_GRID] == [0.0] * len(_EPS_GRID)


@pytest.mark.parametrize("n", range(1, EXACT_AUDIT_MAX_N + 1))
def test_calibrate_rr_meets_any_delta_on_a_small_cohort(n):
    cal = calibrate_rr(1.0, 1e-300, n)
    assert cal.method == "exact-audit" and cal.flip_p <= 0.5
    assert cal.audit_delta() <= 1e-300


def test_a_calibration_with_a_negative_epsilon_refuses_its_audit():
    cal = CalibratedRR(flip_p=0.25, epsilon=-1.0, delta=0.1, n=4, method="exact-audit")
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        cal.audit_delta()


@pytest.mark.parametrize("epsilon, delta, named", [
    (math.nan, 1e-6, "'epsilon' must be positive, got nan"),
    (0.0, 1e-6, "'epsilon' must be positive, got 0.0"),
    (-1.0, 0.0, "'epsilon' must be positive, got -1.0"),
    (0.5, 1.5, "'delta' must be in [0, 1), got 1.5"),
    (1.0, 1.0, "'delta' must be in [0, 1), got 1.0"),
    (1.0, -1.0, "'delta' must be in [0, 1), got -1.0"),
    (1.0, math.nan, "'delta' must be in [0, 1), got nan"),
], ids=["epsilon-nan", "epsilon-zero", "epsilon-negative", "delta-above-one", "delta-one",
        "delta-negative", "delta-nan"])
def test_every_budget_reader_refuses_an_out_of_range_budget_before_any_work(
        epsilon, delta, named, monkeypatch):
    # at the parent calibrate_rr(nan, 1e-6, 5) certified flip 4.3e-19 by "exact-audit",
    # calibrate_rr(0.5, 1.5, 1000) gave 0.055 and pan_noise_parameters(1, -1, 4) Laplace noise
    def refuse(*args, **kwargs):
        raise AssertionError("an out-of-range budget was audited or tried")

    monkeypatch.setattr(baselines_mod, "_rr_audit_delta", refuse)
    monkeypatch.setattr(baselines_mod, "_blanket_delta", refuse)
    monkeypatch.setattr(baselines_mod, "selection_success_fast", refuse)
    instance = dict(problem="sparse-mean", model="central", d=3, k=1, alpha=0.2, n=50,
                    truth={"family": "uniform", "d": 3})
    calls = [
        lambda: calibrate_rr(epsilon, delta, 5),
        lambda: calibrate_rr(epsilon, delta, 1000),
        lambda: pan_noise_parameters(epsilon, delta, 4),
        lambda: ProblemInstance(epsilon=epsilon, delta=delta, **instance),
        lambda: find_selection_threshold(3, "pan", epsilon, delta, 0.2),
        lambda: private_means(np.ones((4, 3)), "local", epsilon, delta, rng=make_generator(1)),
        lambda: selection_success_fast(3, 100, "local", epsilon, delta, 0.2, 10, make_generator(1)),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == named


def test_an_infinite_epsilon_is_a_budget():
    assert calibrate_rr(math.inf, 0.0, 5).flip_p == 0.0
    assert pan_noise_parameters(math.inf, 1e-6, 4) == ("gaussian", 0.0)
    ProblemInstance(problem="sparse-mean", model="pan", d=3, k=1, alpha=0.2, n=50,
                    epsilon=math.inf, delta=0.0, truth={"family": "uniform", "d": 3})


@pytest.mark.parametrize("search, named", [
    ({"alpha": 0.5}, "'alpha' must be in (0, 1/2), got 0.5"),
    ({"alpha": 0.7}, "'alpha' must be in (0, 1/2), got 0.7"),
    ({"alpha": 0.0}, "'alpha' must be in (0, 1/2), got 0.0"),
    ({"target": 1.5}, "'target' must be in (0, 1], got 1.5"),
    ({"target": 0.0}, "'target' must be in (0, 1], got 0.0"),
    # unchecked, d = 0 raised IndexError, pilot_trials = 0 doubled n 24 times to a
    # GuardError, confirm_trials = 0 failed every confirmation, and a negative count
    # reached numpy's "negative dimensions are not allowed"
    ({"d": 0}, "'d' must be at least 1, got 0"),
    ({"d": -2}, "'d' must be at least 1, got -2"),
    ({"pilot_trials": 0}, "'pilot_trials' must be at least 1, got 0"),
    ({"pilot_trials": -5}, "'pilot_trials' must be at least 1, got -5"),
    ({"confirm_trials": 0}, "'confirm_trials' must be at least 1, got 0"),
], ids=["alpha-half", "alpha-above-half", "alpha-zero", "target-above-one", "target-zero",
        "d-zero", "d-negative", "pilot-trials-zero", "pilot-trials-negative",
        "confirm-trials-zero"])
def test_find_selection_threshold_refuses_an_unusable_search_before_any_trial(
        search, named, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(baselines_mod, "selection_success_fast", refuse)
    with pytest.raises(ValueError) as info:
        find_selection_threshold(**({"d": 3, "model": "central", "epsilon": 1.0, "delta": 1e-6,
                                     "alpha": 0.2} | search))
    assert str(info.value) == named


@pytest.mark.parametrize("d, model, delta, trials, named", [
    # shuffle refuses a pure budget, so no 1-count may be drawn before the
    # certificate is asked for
    (8, "shuffle", 0.0, 50,
     "the shuffle model needs delta in (0, 1); at delta = 0 use the local model"),
    (0, "central", 1e-6, 50, "'d' must be at least 1, got 0"),
    (8, "central", 1e-6, 0, "'trials' must be at least 1, got 0"),  # not a nan rate
    (8, "pan", 1e-6, -1, "'trials' must be at least 1, got -1"),
], ids=["shuffle-delta-zero", "d-zero", "trials-zero", "trials-negative"])
def test_selection_success_fast_refuses_before_its_first_draw(d, model, delta, trials, named):
    gen = make_generator(26, "refusal")
    before = gen.bit_generator.state
    with pytest.raises(ValueError) as info:
        selection_success_fast(d, 100, model, 1.0, delta, 0.2, trials, gen)
    assert str(info.value).startswith(named)
    assert gen.bit_generator.state == before


def test_empirical_means_exact_and_deterministic():
    x = np.array([[1, -1], [1, 1], [-1, 1], [1, 1]])
    means = empirical_means(x)
    assert np.array_equal(means, np.array([0.5, 0.5]))
    assert np.array_equal(means, empirical_means(x.copy()))
    assert np.array_equal(empirical_means(np.empty((0, 3), dtype=np.int64)), np.zeros(3))
    with pytest.raises(ValueError, match="signs"):
        empirical_means(np.array([[1, 0]]))


@pytest.mark.parametrize("model", MODELS)
def test_infinite_budget_collapses_to_empirical(model):
    rng = make_generator(31, "inf-budget")
    x = (rng.integers(0, 2, size=(64, 4)) * 2 - 1).astype(np.int64)
    assert np.array_equal(private_means(x, model, math.inf, 1e-6, rng), empirical_means(x))


def test_noisy_estimators_concentrate_near_truth():
    rng = make_generator(32, "estimators")
    member = ParametricHardDistribution(
        d=3, index=ParityIndex((2,), 1), alpha=0.25, family="plain"
    )
    from panshuffle.distributions import sample as draw_from

    x = draw_from(member, 6000, rng)
    truth = np.array([member.parity_mean((j,)) for j in range(1, 4)])
    assert np.allclose(empirical_means(x), truth, atol=0.05)
    assert np.allclose(private_means(x, "central", 5.0, rng=rng), truth, atol=0.05)
    assert np.allclose(private_means(x, "local", 12.0, rng=rng), truth, atol=0.1)
    assert np.allclose(private_means(x, "shuffle", 4.0, 1e-4, rng), truth, atol=0.2)
    assert np.allclose(private_means(x, "pan", 20.0, 1e-4, rng), truth, atol=0.15)


def test_estimators_reject_empty_input():
    empty = np.empty((0, 2), dtype=np.int64)
    rng = make_generator(33)
    for model in ("central", "local", "shuffle"):
        with pytest.raises(ValueError, match="at least one sample"):
            private_means(empty, model, 1.0, 1e-6, rng)
    # pan divides the noisy sums by max(n, 1)
    assert private_means(empty, "pan", 1.0, 1e-6, rng).shape == (2,)
    with pytest.raises(ValueError, match="central"):
        private_means(np.ones((3, 2)), "federated", 1.0)
    with pytest.raises(ValueError, match="signs"):
        private_means(np.zeros((3, 2)), "central", 1.0)


def test_pan_noise_parameters_values():
    kind, scale = pan_noise_parameters(1.0, 1e-6, 8)
    assert kind == "gaussian"
    expected = 2.0 * math.sqrt(8) * math.sqrt(2.0 * math.log(1.25 / 5e-7)) / 0.5
    assert scale == pytest.approx(expected, rel=1e-15)
    kind, scale = pan_noise_parameters(1.0, 0.0, 8)
    assert kind == "laplace"
    assert scale == pytest.approx(32.0, rel=1e-15)


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(90, 100)
    assert 0.0 <= lo < 0.9 < hi <= 1.0
    lo2, hi2 = wilson_interval(900, 1000)
    assert hi2 - lo2 < hi - lo


def test_problem_instance_validation():
    base = dict(d=3, k=1, alpha=0.2, n=50, epsilon=1.0, delta=1e-6,
                truth={"family": "uniform", "d": 3})
    with pytest.raises(ValueError, match="unknown problem"):
        ProblemInstance(problem="sorting", model="central", **base)
    with pytest.raises(ValueError, match="unknown model"):
        ProblemInstance(problem="selection", model="federated", **base)


def test_instance_candidates_shapes():
    def inst(problem, truth=None):
        return ProblemInstance(
            problem=problem, model="central", d=4, k=2, alpha=0.2, n=10,
            epsilon=1.0, delta=1e-6, truth=truth or {"family": "uniform", "d": 4},
        )

    width_one = ParametricHardDistribution(d=4, index=ParityIndex((2,), 1), alpha=0.2)
    selection = inst("selection", member_descriptor(width_one, k=2))
    assert selection.candidates == ((1,), (2,), (3,), (4,))
    release = inst("parity-release").candidates
    assert release[0] == (1,) and len(release) == 4 + 6
    learning = inst("parity-learning").candidates
    assert learning[0] == () and len(learning) == 1 + 4 + 6


def test_feature_matrix_values_and_validation():
    inst = ProblemInstance(
        problem="parity-learning", model="central", d=2, k=1, alpha=0.2, n=2,
        epsilon=1.0, delta=1e-6, truth={"family": "uniform", "d": 3},
    )
    rows = np.array([[1, -1, -1], [-1, -1, 1]], dtype=np.int64)
    feats = feature_matrix(inst, rows)
    # candidates (), (1,), (2,); each column is parity * label
    assert np.array_equal(feats, np.array([[-1, -1, 1], [1, -1, -1]]))
    with pytest.raises(ValueError, match="width"):
        feature_matrix(inst, rows[:, :2])


def _feature_instance(problem: str, d: int, k: int) -> ProblemInstance:
    if problem == "selection":
        member = ParametricHardDistribution(d=d, index=ParityIndex((1,), 1), alpha=0.2)
        truth = member_descriptor(member, k=1)
    else:
        truth = {"family": "uniform", "d": d + (problem == "parity-learning")}
    return ProblemInstance(
        problem=problem, model="central", d=d, k=k, alpha=0.2, n=0,
        epsilon=1.0, delta=1e-6, truth=truth,
    )


_FEATURE_SHAPES = {
    "selection": [(d, 1) for d in range(1, 11)] + [(128, 1)],
    "sparse-mean": [(d, 1) for d in range(1, 11)],
    "hypothesis-test": [(d, 1) for d in range(1, 11)],
    "parity-release": [(d, k) for d in range(1, 11) for k in range(4)],
    "parity-learning": [(d, k) for d in range(1, 11) for k in range(4)] + [(70, 1)],
}


@pytest.mark.parametrize("problem", PROBLEMS)
def test_feature_matrix_matches_the_column_loop_oracle(problem):
    """Same values, int64 dtype and n x m shape as one column per candidate, and the
    same bytes as the one (n, m, span) gather, on int8, int64 and +-1.0 float samples."""
    rng = make_generator(17, "feature-oracle", problem)
    for d, k in _FEATURE_SHAPES[problem]:
        inst = _feature_instance(problem, d, k)
        width = d + (problem == "parity-learning")
        cands = inst.candidates
        for n in (0, 1, 2, 199):
            rows = (rng.integers(0, 2, size=(n, width), dtype=np.int8) * 2 - 1).astype(np.int8)
            for samples in (rows, rows.astype(np.int64), rows.astype(np.float64)):
                got = feature_matrix(inst, samples)
                want = feature_matrix_by_columns(problem, d, cands, samples)
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape == (n, len(cands))
                assert np.array_equal(got, want), (d, k, n, samples.dtype)
                assert got.tobytes() == feature_matrix_by_gather(problem, d, cands, samples).tobytes()


# each holds a value that is no sign, but that a cast to int64 turns into one (1.7 -> 1)
# or that an int64 check refuses only after a wider cast (int8 -128, uint8 255)
_NOT_SIGNS = [
    [[1.7, -1.2], [1.0, -1.9]],
    np.array([[1.5, -1.0]]),
    np.array([[1.0, -0.5]]),
    np.array([[1, -128]], dtype=np.int8),
    np.array([[127, -1]], dtype=np.int8),
    np.array([[255, 1]], dtype=np.uint8),
    np.array([[1, 3], [-1, 1]], dtype=np.int64),
    np.array([[0, 1]], dtype=np.int64),
]


@pytest.mark.parametrize("samples", _NOT_SIGNS, ids=lambda x: str(np.asarray(x).dtype))
def test_sign_checks_look_at_the_values_before_any_cast(samples):
    inst = _feature_instance("sparse-mean", 2, 1)
    checks = [empirical_means, lambda x: private_means(x, "central", 1.0, 0.0, rng=1),
              lambda x: private_means(x, "local", math.inf), lambda x: feature_matrix(inst, x),
              lambda x: plug_in_solve(inst, x)]
    for check in checks:
        with pytest.raises(ValueError, match="samples must be"):
            check(samples)


def test_sign_checks_take_signs_in_any_numeric_dtype():
    rows = np.array([[1, -1], [-1, -1], [1, 1]], dtype=np.int8)
    inst = _feature_instance("sparse-mean", 2, 1)
    want = np.array([1.0, -1.0]) / 3
    for samples in (rows, rows.astype(np.int64), rows.astype(np.float64), rows.tolist()):
        assert empirical_means(samples).tobytes() == want.tobytes()
        assert private_means(samples, "pan", math.inf).tobytes() == want.tobytes()
        assert feature_matrix(inst, samples).tobytes() == rows.astype(np.int64).tobytes()
    assert empirical_means(np.ones((2, 3), dtype=np.uint8)).tolist() == [1.0, 1.0, 1.0]


def test_decide_selection_breaks_ties_low():
    inst = ProblemInstance(
        problem="selection", model="central", d=3, k=1, alpha=0.2, n=10,
        epsilon=1.0, delta=1e-6,
        truth=member_descriptor(
            ParametricHardDistribution(d=3, index=ParityIndex((1,), 1), alpha=0.2), k=1
        ),
    )
    assert decide(inst, np.array([0.4, 0.4, 0.1])) == 1
    assert decide(inst, np.array([0.1, 0.4, 0.4])) == 2
    assert score(inst, 1) and not score(inst, 2)


def test_decide_hypothesis_test_indexing():
    inst = ProblemInstance(
        problem="hypothesis-test", model="central", d=2, k=1, alpha=0.25, n=10,
        epsilon=1.0, delta=1e-6, truth={"family": "uniform", "d": 2},
    )
    assert decide(inst, np.zeros(2)) == 0
    assert score(inst, 0) and not score(inst, 1)
    assert decide(inst, np.array([0.5, 0.0])) == 1   # +coordinate 1
    assert decide(inst, np.array([-0.5, 0.0])) == 2  # -coordinate 1
    assert decide(inst, np.array([0.0, 0.5])) == 3
    signed = ProblemInstance(
        problem="hypothesis-test", model="central", d=2, k=1, alpha=0.25, n=10,
        epsilon=1.0, delta=1e-6,
        truth=member_descriptor(
            ParametricHardDistribution(d=2, index=ParityIndex((2,), -1), alpha=0.25), k=1
        ),
    )
    assert score(signed, 4) and not score(signed, 3)


def test_decide_parity_learning_picks_largest_magnitude():
    inst = ProblemInstance(
        problem="parity-learning", model="central", d=3, k=1, alpha=0.2, n=10,
        epsilon=1.0, delta=1e-6, truth={"family": "uniform", "d": 4},
    )
    # candidates (), (1,), (2,), (3,)
    assert decide(inst, np.array([0.1, -0.8, 0.2, 0.3])) == ((1,), -1)
    assert decide(inst, np.array([0.5, 0.5, 0.1, 0.1])) == ((), 1)


def test_score_sparse_mean_and_parity_release():
    member = ParametricHardDistribution(d=3, index=ParityIndex((2,), 1), alpha=0.2)
    inst = ProblemInstance(
        problem="sparse-mean", model="central", d=3, k=1, alpha=0.2, n=10,
        epsilon=1.0, delta=1e-6, truth=member_descriptor(member, k=1),
    )
    truth_mu = np.array([member.parity_mean((j,)) for j in range(1, 4)])
    assert score(inst, truth_mu + 0.1)
    assert not score(inst, truth_mu + np.array([0.0, 0.25, 0.0]))
    release = dataclasses.replace(inst, problem="parity-release")
    truths = np.array([member.parity_mean(s) for s in release.candidates])
    assert score(release, truths + 0.19)
    assert not score(release, truths + 0.21)


def test_score_parity_learning_and_true_means():
    member = ParametricHardDistribution(
        d=3, index=ParityIndex((1, 3), -1), alpha=0.2, family="labeled"
    )
    inst = ProblemInstance(
        problem="parity-learning", model="central", d=3, k=2, alpha=0.2, n=10,
        epsilon=1.0, delta=1e-6, truth=member_descriptor(member, k=2),
    )
    cands = inst.candidates
    want = np.zeros(len(cands))
    want[cands.index((1, 3))] = -0.4  # the label is part of the tilted parity
    assert np.array_equal(true_means(inst), want)
    assert score(inst, ((1, 3), -1))
    assert not score(inst, ((1, 3), 1)) and not score(inst, ((1,), -1))
    null = dataclasses.replace(inst, truth={"family": "uniform", "d": 4})
    assert np.array_equal(true_means(null), np.zeros(len(cands)))
    assert score(null, ((2,), 1))
    with pytest.raises(ValueError, match="one member"):
        true_means(dataclasses.replace(inst, truth={"family": "labeled", "d": 3, "k": 2,
                                                    "alpha": 0.2}))


def test_truth_must_describe_one_member():
    """A family descriptor (no ``ell``) is not a truth: selection rejects it when
    built, and sparse-mean when its truth is first read."""
    family = {"family": "plain", "d": 3, "k": 1, "alpha": 0.2}
    fields = dict(model="central", d=3, k=1, alpha=0.2, n=10, epsilon=1.0, delta=1e-6,
                  truth=family)
    with pytest.raises(ValueError, match="truth must describe one member"):
        ProblemInstance(problem="selection", **fields)
    inst = ProblemInstance(problem="sparse-mean", **fields)
    with pytest.raises(ValueError, match="truth must describe one member"):
        true_means(inst)
    with pytest.raises(ValueError, match="truth must describe one member"):
        score(inst, np.zeros(3))


_BAD_SELECTION_TRUTH = """
from panshuffle.baselines import ProblemInstance
from panshuffle.distributions import ParametricHardDistribution, ParityIndex, member_descriptor
member = ParametricHardDistribution(d=3, index=ParityIndex((1, 2), -1), alpha=0.2)
try:
    ProblemInstance(problem="selection", model="central", d=3, k=2, alpha=0.2, n=10,
                    epsilon=1.0, delta=1e-6, truth=member_descriptor(member, k=2))
    print("constructed")
except ValueError as err:
    print("ValueError:", err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_score_rejects_bad_selection_truth(flags):
    """A selection truth that is not one width-1, sign +1 member fails construction.

    It raises before any data is sampled or solved (so ``score`` never sees it),
    also under -O.
    """
    src = str(Path(panshuffle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _BAD_SELECTION_TRUTH],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.startswith("ValueError: a selection truth must be")


def test_random_instances_are_well_formed():
    rng = make_generator(34, "instances")
    for _ in range(50):
        inst = random_instance(rng)
        assert 3 <= inst.d <= 6
        assert inst.truth_distribution is not None
        data = inst.sample_data(make_generator(35, inst.problem, inst.model))
        width = inst.d + (1 if inst.problem == "parity-learning" else 0)
        assert data.shape == (inst.n, width)


def test_infinite_budget_solver_matches_plug_in():
    rng = make_generator(36, "solver-agreement")
    for trial in range(25):
        inst = dataclasses.replace(random_instance(rng), epsilon=math.inf)
        samples = inst.sample_data(make_generator(37, "solver-data", trial))
        got = solve(inst, samples, make_generator(38, "solver-noise", trial))
        want = plug_in_solve(inst, samples)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("model", MODELS)
def test_solve_is_decide_of_private_means(model):
    rng = make_generator(42, "solve-pipeline", model)
    for trial in range(8):
        inst = random_instance(rng, model=model)
        samples = inst.sample_data(make_generator(43, "solve-data", trial))
        got = solve(inst, samples, make_generator(44, "solve-noise", trial))
        means = private_means(
            feature_matrix(inst, samples), model, inst.epsilon, inst.delta,
            make_generator(44, "solve-noise", trial),
        )
        want = decide(inst, means)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("epsilon", [1.0, math.inf])
def test_solve_checks_signs_once(monkeypatch, epsilon):
    import panshuffle.baselines as bl

    calls = []
    checked = bl._as_sign_matrix
    monkeypatch.setattr(bl, "_as_sign_matrix", lambda x: calls.append(1) or checked(x))
    inst = dataclasses.replace(random_instance(make_generator(45), model="pan"), epsilon=epsilon)
    solve(inst, inst.sample_data(make_generator(46)), make_generator(47))
    assert len(calls) == 1


def test_plug_in_solver_succeeds_on_clean_data():
    member = ParametricHardDistribution(d=4, index=ParityIndex((3,), 1), alpha=0.3)
    inst = ProblemInstance(
        problem="selection", model="central", d=4, k=1, alpha=0.3, n=4000,
        epsilon=math.inf, delta=1e-6, truth=member_descriptor(member, k=1),
    )
    samples = inst.sample_data(make_generator(39, "clean"))
    assert score(inst, plug_in_solve(inst, samples))


def test_selection_success_fast_limits():
    rng = make_generator(40, "fast-limits")
    high = selection_success_fast(4, 50_000, "central", 1.0, 1e-6, 0.2, 400, rng)
    assert high > 0.99
    low = selection_success_fast(8, 2, "central", 0.5, 1e-6, 0.2, 4000, rng)
    assert abs(low - 1.0 / 8) < 0.05
    with pytest.raises(ValueError, match="unknown model"):
        selection_success_fast(4, 10, "federated", 1.0, 1e-6, 0.2, 10, rng)


@pytest.mark.parametrize("model", ["central", "local", "shuffle", "pan"])
def test_selection_success_fast_runs_every_model(model):
    rng = make_generator(41, "fast-models", model)
    rate = selection_success_fast(4, 3000, model, 1.0, 1e-6, 0.2, 300, rng)
    assert 0.0 <= rate <= 1.0


@pytest.mark.parametrize("model", MODELS)
def test_selection_success_fast_at_an_infinite_budget_adds_no_noise(model):
    rate = selection_success_fast(4, 5000, model, math.inf, 1e-6, 0.02, 300,
                                  make_generator(48, "fast-inf"))
    mu = np.array([0.04, 0.0, 0.0, 0.0])
    ones = make_generator(48, "fast-inf").binomial(5000, (1.0 + mu) / 2.0, size=(300, 4))
    assert rate == float(np.mean(np.argmax(ones, axis=1) == 0))


def test_find_selection_threshold_reproducible_and_sane():
    kwargs = dict(
        d=4, model="central", epsilon=1.0, delta=1e-6, alpha=0.2,
        target=0.9, pilot_trials=400, confirm_trials=1500,
        master_seed=123, tag="unit",
    )
    res = find_selection_threshold(**kwargs)
    again = find_selection_threshold(**kwargs)
    assert res == again
    assert res.success_at_n_star >= 0.87
    assert res.corridor_n == max(1, res.n_star // 8)
    assert res.corridor_success < res.success_at_n_star


_DRAWS_GOLDEN = Path(__file__).parent / "draws_golden.json"


def _seeded_draws() -> dict:
    """Seeded outputs of both noise paths, each with a probe of the generator's next state.

    ``private_means`` runs on one 12 x 4 sign matrix at (4, 1e-3) under every
    model; ``selection_success_fast`` runs at d = 3 for n = 12 and n = 5000.
    Shuffle takes the composed blanket flip for its 4 or 3 coordinates.
    """
    signs = make_generator(11, "draws-golden", "signs").choice([-1, 1], size=(12, 4))
    out: dict = {"private_means": {}, "selection_success_fast": {}}
    for model in MODELS:
        gen = make_generator(11, "draws-golden", model)
        means = private_means(signs, model, 4.0, 1e-3, gen)
        out["private_means"][model] = [means.tolist(), int(gen.integers(0, 2**62))]
        for n in (12, 5000):
            gen = make_generator(11, "draws-golden", "selection", model, n)
            rate = selection_success_fast(3, n, model, 4.0, 1e-3, 0.1, 200, gen)
            out["selection_success_fast"][f"{model}-{n}"] = [rate, int(gen.integers(0, 2**62))]
    return out


def test_seeded_draws_match_golden():
    """Both noise paths draw the same values in the same order as when recorded."""
    assert _seeded_draws() == json.loads(_DRAWS_GOLDEN.read_text())


def test_selection_success_fast_rejects_unknown_model_before_drawing():
    gen = make_generator(42, "unknown-model")
    with pytest.raises(ValueError, match="unknown model"):
        selection_success_fast(4, 10, "federated", 1.0, 1e-6, 0.2, 10, gen)
    assert gen.integers(0, 2**62) == make_generator(42, "unknown-model").integers(0, 2**62)
