"""Exact-enumeration engine: count laws, pan views, audits, hybrid certificate."""

import json
import math
import sys

import numpy as np
import pytest

import panshuffle.exact as exact_mod
from panshuffle.errors import GuardError
from panshuffle.exact import (
    audit_privacy,
    convolve_counts,
    exact_output_distribution,
    exact_pan_output,
    exact_pan_states,
    exact_pan_view,
    exact_shuffle_counts,
    hockey_dicts,
    hybrid_tv_certificate,
    outcome_dict,
    push_through_analyzer,
    tv_dicts,
)
from panshuffle.mechanisms import (
    Analyzer,
    PrivacyBudget,
    ShuffleProtocol,
    asymmetric_binary_randomizer,
    binary_randomized_response,
    constant_mechanism,
    noisy_parity_chain,
    quantized_laplace_counter,
    saturating_counter,
    threshold_analyzer,
)
from panshuffle.distributions import FiniteDistribution, ParityIndex
from panshuffle.reductions import LearnerDistinguisher, PlantedLearner
from panshuffle.rng import make_generator

from oracles.toy_mechanisms import kernel_randomizer, last_element_echo
from oracles.wrapper_oracle import count_pmf


def _total(dist: dict) -> float:
    return float(sum(dist.values()))


def test_convolve_counts_adds_tuples():
    a = {(1, 0): 0.5, (0, 1): 0.5}
    out = convolve_counts(a, a)
    assert out == pytest.approx({(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})


def test_repeat_convolve_matches_binomial():
    kernel = {(1, 0): 0.7, (0, 1): 0.3}
    out = exact_shuffle_counts(kernel_randomizer(kernel, 2), [0] * 6)
    for counts, p in out.items():
        k = counts[1]
        assert p == pytest.approx(math.comb(6, k) * 0.3**k * 0.7 ** (6 - k))
    assert _total(out) == pytest.approx(1.0)


def test_outcome_dict_accepts_dicts_and_finite_distributions():
    assert outcome_dict({0: 0.25, 1: 0.75}) == {0: 0.25, 1: 0.75}
    cube = outcome_dict(FiniteDistribution(np.array([0.25, 0.75]), dim=1))
    assert cube == {(1,): 0.25, (-1,): 0.75}


def test_exact_shuffle_counts_fixed_inputs_match_convolution():
    p11, p10 = 0.8, 0.3
    rz = asymmetric_binary_randomizer(p11, p10)
    one_col = rz.alphabet.index(1)

    def convolved(ones: int, zeros: int, k: int) -> float:
        return sum(
            math.comb(ones, j) * p11**j * (1 - p11) ** (ones - j)
            * math.comb(zeros, k - j) * p10 ** (k - j) * (1 - p10) ** (zeros - k + j)
            for j in range(max(0, k - zeros), min(ones, k) + 1)
        )

    for n, ones in [(5, 5), (6, 2), (7, 0)]:
        law = exact_shuffle_counts(rz, [1] * ones + [0] * (n - ones))
        assert _total(law) == pytest.approx(1.0, abs=1e-12)
        for counts, p in law.items():
            assert sum(counts) == n
            assert p == pytest.approx(convolved(ones, n - ones, counts[one_col]), abs=1e-12)


def test_exact_shuffle_counts_iid_inputs_match_oracle():
    p11, p10, w, n = 0.8, 0.3, 0.4, 6
    rz = asymmetric_binary_randomizer(p11, p10)
    one_col = rz.alphabet.index(1)
    law = exact_shuffle_counts(rz, [{1: w, 0: 1 - w}] * n)
    for counts, p in law.items():
        assert p == pytest.approx(count_pmf(n, w, p11, p10, counts[one_col]), abs=1e-12)


def test_exact_shuffle_counts_accepts_per_user_distributions():
    rz = binary_randomized_response(0.25)
    mixed = exact_shuffle_counts(rz, [{1: 0.5, 0: 0.5}] * 4)
    averaged: dict = {}
    for ones in range(5):
        law = exact_shuffle_counts(rz, [1] * ones + [0] * (4 - ones))
        w = math.comb(4, ones) / 16
        for c, p in law.items():
            averaged[c] = averaged.get(c, 0.0) + w * p
    assert tv_dicts(mixed, averaged) == pytest.approx(0.0, abs=1e-12)


def test_push_through_analyzer_threshold():
    law = {(3, 1): 0.5, (1, 3): 0.5}
    out = push_through_analyzer(law, threshold_analyzer(2))
    assert out == pytest.approx({0: 0.5, 1: 0.5})


def test_exact_output_distribution_dispatch():
    rz = binary_randomized_response(0.2)
    proto = ShuffleProtocol(randomizer=rz, analyzer=threshold_analyzer(1), n=3)
    reduced = exact_output_distribution(proto, [1, 1, 0])
    raw = exact_shuffle_counts(rz, [1, 1, 0])
    assert set(reduced) <= {0, 1}
    assert push_through_analyzer(raw, proto.analyzer) == pytest.approx(reduced)
    pan = exact_output_distribution(saturating_counter(cap=2), [1, 1, 1])
    assert pan == {2: 1.0}
    with pytest.raises(TypeError):
        exact_output_distribution(object(), [1])


def test_exact_pan_states_and_output_normalize():
    alg = noisy_parity_chain(0.1)
    states = exact_pan_states(alg, [1, 0, 1])
    assert _total(states) == pytest.approx(1.0, abs=1e-12)
    out = exact_pan_output(alg, [1, 0, 1])
    assert _total(out) == pytest.approx(1.0, abs=1e-12)


def test_exact_pan_view_marginals():
    alg = noisy_parity_chain(0.2)
    stream = [1, 1, 0]
    view = exact_pan_view(alg, stream, t=2)
    assert _total(view) == pytest.approx(1.0, abs=1e-12)
    state_marg: dict = {}
    out_marg: dict = {}
    for (s, o), p in view.items():
        state_marg[s] = state_marg.get(s, 0.0) + p
        out_marg[o] = out_marg.get(o, 0.0) + p
    assert state_marg == pytest.approx(exact_pan_states(alg, stream[:2]))
    assert out_marg == pytest.approx(exact_pan_output(alg, stream))


def test_exact_pan_view_time_bounds():
    alg = last_element_echo()
    with pytest.raises(ValueError):
        exact_pan_view(alg, [1, 0], t=0)
    with pytest.raises(ValueError):
        exact_pan_view(alg, [1, 0], t=3)


def test_exact_matches_sampled_shuffle_frequencies():
    rz = binary_randomized_response(0.3)
    proto = ShuffleProtocol(randomizer=rz, analyzer=threshold_analyzer(2), n=4)
    law = exact_output_distribution(proto, [1, 1, 0, 0])
    rng = make_generator(77, "exact-vs-sampled")
    from panshuffle.mechanisms import run_shuffle

    hits = sum(run_shuffle(proto, [1, 1, 0, 0], rng=rng)[1] for _ in range(40_000))
    assert hits / 40_000 == pytest.approx(law.get(1, 0.0), abs=0.01)


def test_tv_dicts_and_hockey_dicts():
    p = {0: 0.7, 1: 0.3}
    q = {0: 0.4, 2: 0.6}
    assert tv_dicts(p, q) == pytest.approx(0.6)
    assert tv_dicts(p, p) == 0.0
    assert tv_dicts({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
    assert hockey_dicts(p, q, 0.0) == pytest.approx(tv_dicts(p, q))
    # mass on an outcome absent from q never decays, however large eps gets
    assert hockey_dicts(p, q, 50.0) == pytest.approx(0.3, abs=1e-12)
    shared = {0: 0.55, 1: 0.45}
    assert hockey_dicts(p, shared, 50.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        hockey_dicts(p, q, -0.1)


def test_audit_single_user_rr_closed_form():
    flip_p = 0.2
    eps_star = math.log((1 - flip_p) / flip_p)
    rz = binary_randomized_response(flip_p)
    curve = audit_privacy(rz, ([1], [0]), eps_grid=[0.0, eps_star / 2, eps_star])
    for j, eps in enumerate([0.0, eps_star / 2, eps_star]):
        expected = max(0.0, (1 - flip_p) - math.exp(eps) * flip_p)
        assert curve.delta_max[j] == pytest.approx(expected, abs=1e-9)
    assert curve.delta_max[-1] == pytest.approx(0.0, abs=1e-9)


def test_audit_worst_direction_is_symmetric_for_rr():
    rz = binary_randomized_response(0.25)
    curve = audit_privacy(rz, ([1], [0]), eps_grid=[0.0, 0.5, 1.0])
    assert np.allclose(curve.delta_forward, curve.delta_backward)


def test_a_curve_reads_only_the_epsilons_it_audited():
    curve = audit_privacy(binary_randomized_response(0.25), ([1], [0]), eps_grid=[0.0, 0.5, 1.0])
    assert curve.delta_at(0.5) == curve.delta_max[1]
    with pytest.raises(ValueError, match="epsilon 0.75 not on the audited grid"):
        curve.delta_at(0.75)


def test_audit_refuses_an_online_algorithm_that_only_samples():
    alg = LearnerDistinguisher(learner=PlantedLearner(ParityIndex((1,), 1)), d=2, alpha=0.2,
                               epsilon=1.0, n_learn=4).as_pan_algorithm()
    assert not alg.has_exact and alg.view_sample is not None
    with pytest.raises(ValueError, match="lacks exact kernels"):
        audit_privacy(alg, ([0] * 3, [1] * 3), [0.0])


def test_audit_refuses_a_protocol_and_names_its_randomizer():
    proto = ShuffleProtocol(randomizer=binary_randomized_response(0.3),
                            analyzer=threshold_analyzer(2), n=3)
    with pytest.raises(TypeError, match=r"cannot audit ShuffleProtocol; audit its \.randomizer"):
        audit_privacy(proto, ([1, 1, 0], [1, 0, 0]), [0.0, 0.5])


COUNTER = quantized_laplace_counter(0.5, 0.5, step=0.5, span=6.0)


# the counter cases have steps that leave every state at its index on both
# streams: zeros in both, the dead-rows pair, and a common prefix of ones
@pytest.mark.parametrize("alg, pair", [
    (noisy_parity_chain(0.15), ([1, 0, 1], [0, 0, 1])),
    (COUNTER, ([0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 1, 0])),
    (COUNTER, ([1, 1, 1, 0], [0, 0, 0, 0])),
    (COUNTER, ([1, 1, 1, 0, 1], [1, 1, 1, 1, 1])),
], ids=["noisy-parity", "counter-zeros", "dead-rows", "equal-prefix"])
def test_audit_pan_maximizes_over_intrusions(alg, pair):
    grid = [0.0, 0.5, 1.0]
    full = audit_privacy(alg, pair, grid)
    singles = [audit_privacy(alg, pair, grid, intrusion_times=[t])
               for t in range(1, len(pair[0]) + 1)]
    for side in ("delta_forward", "delta_backward"):
        stacked = np.max([getattr(c, side) for c in singles], axis=0)
        assert getattr(full, side).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_audit_rejects_a_negative_or_non_finite_epsilon_before_propagating(bad, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a law was propagated")

    monkeypatch.setattr(exact_mod, "_shuffle_law", refuse)
    monkeypatch.setattr(exact_mod, "_pan_views", refuse)
    for mech in (binary_randomized_response(0.2), noisy_parity_chain(0.2)):
        with pytest.raises(ValueError, match="finite non-negative epsilons") as err:
            audit_privacy(mech, ([1], [0]), [0.5, bad])
        assert str(err.value).endswith(f"got [{bad!r}]")


@pytest.mark.parametrize("big", [math.nextafter(math.log(sys.float_info.max), math.inf), 710.0])
def test_audit_refuses_an_epsilon_whose_exponential_overflows_before_propagating(big,
                                                                                 monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a law was propagated")

    largest = math.log(sys.float_info.max)
    monkeypatch.setattr(exact_mod, "_shuffle_law", refuse)
    monkeypatch.setattr(exact_mod, "_propagate", refuse)
    for mech in (binary_randomized_response(0.2), noisy_parity_chain(0.2)):
        with pytest.raises(ValueError, match=f"the largest eps accepted is {largest!r}$"):
            audit_privacy(mech, ([1], [0]), [0.5, big])


def test_audit_accepts_the_largest_epsilon_whose_exponential_is_finite():
    largest = math.log(sys.float_info.max)
    for mech in (binary_randomized_response(0.2), noisy_parity_chain(0.2)):
        curve = audit_privacy(mech, ([1], [0]), [0.0, largest])
        assert curve.delta_max[1] == 0.0 < curve.delta_max[0]


@pytest.mark.parametrize("params, named", [
    ({"intrusion_times": []}, "no intrusion time to audit; None audits every time"),
    ({"intrusion_times": [1, 1.5]}, r"intrusion time 1.5 is not an integer in \[1, 3\]"),
    ({"eps_grid": []}, r"eps_grid must hold finite non-negative epsilons, got \[\]"),
], ids=["no-times", "fractional-time", "no-epsilons"])
def test_audit_refuses_to_audit_nothing_before_propagating(params, named, monkeypatch):
    # with no time audited the counter's curve read [0, 0]; over every time it is [0.215, 0.0004]
    def refuse(*args, **kwargs):
        raise AssertionError("a law was propagated")

    monkeypatch.setattr(exact_mod, "_shuffle_law", refuse)
    monkeypatch.setattr(exact_mod, "_propagate", refuse)
    counter = quantized_laplace_counter(1.0, 1.0, step=0.25, span=8.0)
    mechs = [counter]
    if "intrusion_times" not in params:
        mechs.append(binary_randomized_response(0.2))
    for mech in mechs:
        with pytest.raises(ValueError, match=named):
            audit_privacy(mech, ([1, 0, 1], [0, 0, 1]), **({"eps_grid": [0.5, 1.0]} | params))


def test_audit_rejects_unequal_lengths():
    rz = binary_randomized_response(0.2)
    with pytest.raises(ValueError):
        audit_privacy(rz, ([1, 0], [1]), [0.0])


def _binary_family(alpha: float) -> list[dict]:
    return [
        {1: 0.5 + alpha, 0: 0.5 - alpha},
        {1: 0.5 - alpha, 0: 0.5 + alpha},
    ]


def test_hybrid_certificate_on_counter():
    alg = quantized_laplace_counter(eps_update=0.5, eps_output=0.5, step=0.25, span=12.0)
    report = hybrid_tv_certificate(alg, _binary_family(0.25), n=3)
    assert report.ok
    assert report.min_slack >= -1e-10
    assert report.endpoint_tv <= sum(report.per_step_tv) + 1e-10
    assert len(report.per_step_tv) == 3
    assert report.total_bound >= report.endpoint_tv - 1e-10


def test_hybrid_certificate_on_parity_chain():
    report = hybrid_tv_certificate(noisy_parity_chain(0.2), _binary_family(0.3), n=4)
    assert report.ok and report.min_slack >= -1e-10


def test_hybrid_certificate_trivial_for_constant_output():
    report = hybrid_tv_certificate(constant_mechanism(0), _binary_family(0.25), n=2)
    assert report.ok
    assert report.endpoint_tv == pytest.approx(0.0, abs=1e-12)


def test_hybrid_certificate_rejects_empty_family():
    with pytest.raises(ValueError):
        hybrid_tv_certificate(noisy_parity_chain(0.1), [], n=2)


def test_paths_guard_trips(monkeypatch):
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 4)
    rz = binary_randomized_response(0.25)
    with pytest.raises(GuardError):
        exact_shuffle_counts(rz, [1] * 12)
