"""The array cohort engine against the dict-walk oracle, its guards and its invariants."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panshuffle.baselines as baselines_mod
import panshuffle.exact as exact_mod
from panshuffle.baselines import _rr_audit_delta, calibrate_rr, rr_count_pmf
from panshuffle.errors import GuardError
from panshuffle.exact import CountLaw, audit_privacy, convolve_counts, exact_shuffle_counts
from panshuffle.mechanisms import (
    ShuffleProtocol,
    asymmetric_binary_randomizer,
    binary_randomized_response,
    echo_randomizer,
    histogram_analyzer,
    threshold_analyzer,
)
from panshuffle.metrics import hockey_stick
from panshuffle.reductions import ShuffleToPanWrapper

from oracles import cohort_oracle, count_oracle
from oracles.toy_mechanisms import kernel_randomizer, one_count_analyzer

ECHO3 = echo_randomizer((0, 1, 2))
ECHO4 = echo_randomizer((0, 1, 2, 3))
ECHO5 = echo_randomizer((0, 1, 2, 3, 4))

# (randomizer, cohort)
COHORTS = {
    "binary-rr": (binary_randomized_response(0.2), [1, 0, 1, 1, 0, 1, 0]),
    "binary-rr-dict-users": (
        binary_randomized_response(0.35),
        [{1: 0.3, 0: 0.7}, 1, {1: 0.9, 0: 0.1}, 0, {1: 0.5, 0: 0.5}],
    ),
    "asymmetric": (asymmetric_binary_randomizer(0.8, 0.3), [1, 1, 0, 1, 0, 0]),
    "asymmetric-dict-users": (
        asymmetric_binary_randomizer(0.9, 0.05),
        [{1: 0.25, 0: 0.75}, 0, {1: 1.0}, {0: 0.6, 1: 0.4}],
    ),
    "echo3-dict-users": (
        ECHO3,
        [{0: 0.2, 1: 0.5, 2: 0.3}, 1, {2: 0.9, 0: 0.1}, {0: 0.4, 1: 0.6}] * 3,
    ),
}


def _assert_same_law(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, p in want.items():
        assert abs(got[key] - p) <= 1e-12, key


@pytest.mark.parametrize("case", sorted(COHORTS))
def test_shuffle_counts_match_oracle(case):
    randomizer, users = COHORTS[case]
    law = exact_shuffle_counts(randomizer, users)
    _assert_same_law(law, cohort_oracle.shuffle_counts(randomizer, users))
    assert all(type(c) is int for key in law for c in key)


def test_convolve_and_repeat_match_oracle():
    a = {(2, 0, 1): 0.25, (0, 3, 0): 0.5, (1, 1, 1): 0.25}
    b = {(1, 0, 0): 0.1, (0, 0, 1): 0.9}
    _assert_same_law(convolve_counts(a, b), cohort_oracle.convolve_counts(a, b))
    # a cohort of one repeated user is the kernel's repeated convolution
    _assert_same_law(exact_shuffle_counts(kernel_randomizer(a, 3), [0] * 5),
                     cohort_oracle.repeat_convolve(a, 5, 3))
    _assert_same_law(exact_shuffle_counts(kernel_randomizer(b, 3), []), {(0, 0, 0): 1.0})


def test_zero_probability_keys_are_kept():
    # a user whose input law puts zero mass on an input still contributes its key
    rz = binary_randomized_response(0.0)
    users = [{1: 0.0, 0: 1.0}, 1, 0]
    _assert_same_law(exact_shuffle_counts(rz, users), cohort_oracle.shuffle_counts(rz, users))


@pytest.mark.parametrize("n", [1, 2, 7, 20, 60])
@pytest.mark.parametrize("flip", [0.0, 0.03, 0.2, 0.5])
@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
def test_rr_audit_matches_oracle(n, flip, eps):
    got = _rr_audit_delta(n, flip, eps)
    assert abs(got - cohort_oracle.rr_audit_delta(n, flip, eps)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 12, 13, 60, 61, 200])
@pytest.mark.parametrize("flip", [0.0, 0.013, 0.27, 0.5])
def test_half_range_rr_audit_matches_every_k_oracle(n, flip):
    # the audit runs k <= (n - 1) // 2 only; the oracle audits every k, both directions
    for eps in (0.0, 0.3, 1.0):
        got = _rr_audit_delta(n, flip, eps)
        assert abs(got - cohort_oracle.rr_audit_delta(n, flip, eps)) <= 1e-15


def _exact_rr_count_pmf(n_ones: int, n_zeros: int, flip: Fraction) -> list:
    """Bin(n_ones, 1 - flip) + Bin(n_zeros, flip) in rationals."""
    law = [Fraction(1)]
    for keep in [1 - flip] * n_ones + [flip] * n_zeros:
        law = [a * (1 - keep) + b * keep for a, b in zip(law + [0], [0] + law)]
    return law


@pytest.mark.parametrize("n", [2, 5, 8])
def test_mirrored_neighbor_pairs_swap_directions(n):
    # P_k has k ones among the other m = n - 1 users and the differing user at 0,
    # Q_k the same users with the differing user at 1; P_{m-k} = reverse(Q_k) exactly
    m = n - 1
    for flip in (Fraction(1, 10), Fraction(37, 100)):
        pairs = [(_exact_rr_count_pmf(k, n - k, flip), _exact_rr_count_pmf(k + 1, m - k, flip))
                 for k in range(n)]
        for k, (p_law, q_law) in enumerate(pairs):
            p_mirror, q_mirror = pairs[m - k]
            assert p_mirror == q_law[::-1] and q_mirror == p_law[::-1]
            p_law, q_law, p_mirror, q_mirror = (
                np.array(law, dtype=np.float64) for law in (p_law, q_law, p_mirror, q_mirror)
            )
            for eps in (0.0, 0.5, 2.0):
                fwd_mirror = hockey_stick(p_mirror, q_mirror, eps)
                assert abs(fwd_mirror - hockey_stick(q_law, p_law, eps)) <= 1e-15


@pytest.mark.parametrize("ones, zeros", [(0, 0), (4, 3), (0, 9), (11, 0), (25, 40)])
def test_rr_count_pmf_matches_oracle(ones, zeros):
    got = rr_count_pmf(ones, zeros, 0.27)
    want = cohort_oracle.rr_count_pmf(ones, zeros, 0.27)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 8, 12])
def test_calibrate_rr_matches_oracle_bisection(n):
    cal = calibrate_rr(1.0, 0.05, n)
    assert cal.method == "exact-audit"
    assert abs(cal.flip_p - cohort_oracle.calibrated_flip(1.0, 0.05, n)) <= 1e-12


def test_multiset_audit_matches_oracle():
    rz = asymmetric_binary_randomizer(0.8, 0.3)
    a, b = [1, 0, 1, 1, 0], [1, 0, 0, 1, 0]
    grid = [0.0, 0.5, 1.0]
    curve = audit_privacy(rz, (a, b), grid)
    pa, pb = cohort_oracle.shuffle_counts(rz, a), cohort_oracle.shuffle_counts(rz, b)
    for e, fwd, bwd in zip(grid, curve.delta_forward, curve.delta_backward):
        keys = sorted(set(pa) | set(pb))
        va = np.array([pa.get(k, 0.0) for k in keys])
        vb = np.array([pb.get(k, 0.0) for k in keys])
        assert abs(fwd - np.clip(va - math.exp(e) * vb, 0, None).sum()) <= 1e-12
        assert abs(bwd - np.clip(vb - math.exp(e) * va, 0, None).sum()) <= 1e-12


@pytest.mark.parametrize("n", [6, 30, 60])
def test_wrapper_law_matches_oracle(n):
    proto = ShuffleProtocol(
        randomizer=binary_randomized_response(0.2), analyzer=threshold_analyzer(n // 3), n=n
    )
    wrapper = ShuffleToPanWrapper(protocol=proto, reference={0: 0.6, 1: 0.4})
    for input_dist in ({0: 0.6, 1: 0.4}, {0: 0.1, 1: 0.9}):
        _assert_same_law(
            wrapper.exact_output_distribution(input_dist),
            cohort_oracle.wrapper_output_law(wrapper, input_dist),
        )


@pytest.mark.parametrize("analyzer", [histogram_analyzer(), one_count_analyzer()])
def test_wrapper_law_matches_oracle_on_count_vectors(analyzer):
    rz = ECHO3 if analyzer.name == "histogram" else binary_randomized_response(0.3)
    reference = {0: 0.5, 1: 0.3, 2: 0.2} if rz is ECHO3 else {0: 0.5, 1: 0.5}
    wrapper = ShuffleToPanWrapper(
        protocol=ShuffleProtocol(randomizer=rz, analyzer=analyzer, n=9), reference=reference
    )
    planted = {1: 1.0}
    _assert_same_law(
        wrapper.exact_output_distribution(planted),
        cohort_oracle.wrapper_output_law(wrapper, planted),
    )


def test_wrapper_kernels_match_oracle():
    proto = ShuffleProtocol(randomizer=ECHO3, analyzer=histogram_analyzer(), n=12)
    wrapper = ShuffleToPanWrapper(protocol=proto, reference={0: 0.5, 1: 0.3, 2: 0.2})
    init = wrapper.init_kernel()
    pad = cohort_oracle.repeat_convolve(wrapper._reference_kernel, 4, 3)
    budget = wrapper.budget_distribution
    want = {(b, c): pb * pc for b, pb in budget.items() for c, pc in pad.items()}
    _assert_same_law(init, want)
    for state in [(0, (4, 0, 0)), (2, (1, 2, 3)), (4, (0, 0, 8))]:
        _assert_same_law(
            wrapper.output_kernel(state), cohort_oracle.wrapper_output_kernel(wrapper, state)
        )


# ---------------------------------------------------------------------------
# bit identity with the per-step convolution (one stride vector per product)

RR = binary_randomized_response(0.23)
CHANNEL = asymmetric_binary_randomizer(0.8, 0.3)
ECHO_USER = {0: 0.2, 1: 0.5, 2: 0.3}
ECHO4_USER = {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}

# (randomizer, cohort, analyzer)
CODE_COHORTS = {
    "rr-fixed-60": (RR, [1, 0, 0, 1, 1, 0] * 10, threshold_analyzer(20)),
    "rr-fixed-240": (RR, [1, 1, 0] * 80, threshold_analyzer(100)),
    "rr-empty": (RR, [], threshold_analyzer(0)),
    "echo-dict-users": (ECHO3, [ECHO_USER] * 40, histogram_analyzer()),
    "echo-mixed-dict-users": (ECHO3, COHORTS["echo3-dict-users"][1] * 2, histogram_analyzer()),
    "channel": (CHANNEL, [1, 0, {1: 0.3, 0: 0.7}, 1] * 6, one_count_analyzer()),
}


def _same_bits(got, want) -> None:
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.probs.tobytes() == want.probs.tobytes()


def _same_dict(got: dict, want: dict) -> None:
    # keys, their order and every probability's bits
    assert [(k, v.hex()) for k, v in got.items()] == [(k, v.hex()) for k, v in want.items()]


@pytest.mark.parametrize("case", sorted(CODE_COHORTS))
def test_cohort_laws_are_bit_identical_to_per_step_strides(case):
    randomizer, users, analyzer = CODE_COHORTS[case]
    [law] = exact_mod._shuffle_law(randomizer, users)
    want = count_oracle.shuffle_law(randomizer, users)
    _same_bits(law, want)
    _same_dict(law.push(analyzer), want.push(analyzer))
    _same_dict(exact_shuffle_counts(randomizer, users), want.as_dict())


def test_repeated_users_and_pair_convolutions_are_bit_identical_to_per_step_strides():
    a = {(2, 0, 1): 0.25, (0, 3, 0): 0.5, (1, 1, 1): 0.25}
    b = {(1, 0, 0): 0.1, (0, 0, 1): 0.9}
    rr = {(1, 0): 0.77, (0, 1): 0.23}
    for dist, width, times in [(rr, 2, 240), (a, 3, 7), (b, 3, 0)]:
        [law] = exact_mod._shuffle_law(kernel_randomizer(dist, width), [0] * times)
        _same_bits(law, count_oracle.CountLaw.of(dist, width).power(times))
    want = count_oracle.CountLaw.of(a, 3).convolve(count_oracle.CountLaw.of(b, 3))
    _same_dict(convolve_counts(a, b), want.as_dict())


@pytest.mark.parametrize("n", [6, 30, 60])
@pytest.mark.parametrize("rz, reference, inputs", [
    (RR, {0: 0.6, 1: 0.4}, [{0: 0.6, 1: 0.4}, {0: 0.1, 1: 0.9}]),
    (ECHO3, {0: 0.5, 1: 0.3, 2: 0.2}, [{1: 1.0}, {0: 0.1, 1: 0.2, 2: 0.7}]),
    (ECHO4, {0: 0.4, 1: 0.3, 2: 0.2, 3: 0.1}, [{3: 1.0}, {0: 0.1, 2: 0.2, 3: 0.7}]),
], ids=["rr", "echo3", "echo4"])
def test_wrapper_laws_are_bit_identical_to_per_step_strides(n, rz, reference, inputs):
    # the histogram analyzer pushes the count law to itself, row by row
    for analyzer in (histogram_analyzer(), one_count_analyzer()):
        wrapper = ShuffleToPanWrapper(
            protocol=ShuffleProtocol(randomizer=rz, analyzer=analyzer, n=n), reference=reference
        )
        for input_dist in inputs:
            want = count_oracle.wrapper_law(wrapper, input_dist)
            _same_dict(wrapper.exact_output_distribution(input_dist), want.push(analyzer))
        _same_bits(wrapper._pad_law, count_oracle.pad_law(wrapper))
        state = (n // 6, (n // 3,) + (0,) * (len(rz.alphabet) - 1))
        _same_dict(wrapper.output_kernel(state), count_oracle.wrapper_output_kernel(wrapper, state))


@pytest.mark.parametrize("rz, a, b", [
    (CHANNEL, [1, 0, 1, 1, 0], [1, 0, 0, 1, 0]),
    (RR, [1] * 30 + [0] * 10, [1] * 29 + [0] * 11),
    (ECHO3, [0, 1, 2, ECHO_USER, ECHO_USER], [1, 1, 2, ECHO_USER, ECHO_USER]),
    (ECHO3, [], []),
    (ECHO4, [0, 3, ECHO4_USER, ECHO4_USER] * 3, [1, 3, ECHO4_USER, ECHO4_USER] * 3),
    (ECHO5, [0, 4, ECHO_USER] * 3, [1, 4, ECHO_USER] * 3),
], ids=["channel", "rr", "echo3", "empty", "echo4", "echo5"])
def test_multiset_audits_are_bit_identical_to_per_step_strides(rz, a, b):
    grid = [0.0, 0.3, 1.0, 2.0]
    _, _, pa, pb = exact_mod._union(*exact_mod._shuffle_law(rz, a, b))
    _, want_a, want_b = count_oracle.union(
        count_oracle.shuffle_law(rz, a), count_oracle.shuffle_law(rz, b)
    )
    assert (pa.tobytes(), pb.tobytes()) == (want_a.tobytes(), want_b.tobytes())
    got, want = audit_privacy(rz, (a, b), grid), exact_mod._curve([(want_a, want_b)], grid)
    assert got.delta_forward.tobytes() == want.delta_forward.tobytes()
    assert got.delta_backward.tobytes() == want.delta_backward.tobytes()


# ---------------------------------------------------------------------------
# one-total chains on one dense grid

TWO_MESSAGES = {(2, 0): 0.2, (1, 1): 0.5, (0, 2): 0.3}


def _on_grid(*kernels: dict) -> bool:
    width = len(next(iter(kernels[0])))
    randomizer = dataclasses.replace(kernel_randomizer(kernels[0], width),
                                     kernel_fn=kernels.__getitem__)
    return _cohort_on_grid(randomizer, range(len(kernels)))


def _cohort_on_grid(randomizer, users) -> bool:
    zero, _ = exact_mod._chain(randomizer, [users], "test")
    return type(zero) is exact_mod._Grid


def _same_cohort_bits(randomizer, users) -> None:
    [law] = exact_mod._shuffle_law(randomizer, users)
    want = count_oracle.shuffle_law(randomizer, users)
    _same_bits(law, want)
    _same_dict(exact_shuffle_counts(randomizer, users), want.as_dict())


def test_zero_weight_entries_stay_in_the_support_on_a_line():
    assert _on_grid({(1, 0): 1.0, (0, 1): 0.0})
    _same_cohort_bits(kernel_randomizer({(1, 0): 1.0, (0, 1): 0.0}, 2), [0] * 4)
    assert len(exact_shuffle_counts(kernel_randomizer({(1, 0): 1.0, (0, 1): 0.0}, 2), [0] * 4)) == 5
    _same_cohort_bits(binary_randomized_response(0.0), [{1: 0.0, 0: 1.0}, 1, 0, {0: 0.0, 1: 1.0}])
    # a reference input of zero probability keeps its codes in the pad and wrapper laws
    wrapper = ShuffleToPanWrapper(
        protocol=ShuffleProtocol(binary_randomized_response(0.0), histogram_analyzer(), 12),
        reference={0: 1.0, 1: 0.0},
    )
    _same_bits(wrapper._pad_law, count_oracle.pad_law(wrapper))
    assert len(wrapper._pad_law) == 5
    for input_dist in ({0: 0.0, 1: 1.0}, {0: 0.5, 1: 0.5}):
        want = count_oracle.wrapper_law(wrapper, input_dist).push(histogram_analyzer())
        _same_dict(wrapper.exact_output_distribution(input_dist), want)


@pytest.mark.parametrize("randomizer, users", [
    (binary_randomized_response(0.0), [1, 0, 1, 1, 0]),
    (binary_randomized_response(0.5), [1, 0] * 20),
    (binary_randomized_response(0.2), []),
    (kernel_randomizer({(0, 1): 1.0}, 2), [0] * 3),
], ids=["single-entry", "flip-half", "empty", "one-vector"])
def test_single_entry_half_flip_and_empty_cohorts_on_a_line(randomizer, users):
    _same_cohort_bits(randomizer, users)


@pytest.mark.parametrize("n", [3, 12, 40])
def test_two_message_kernel_adds_its_largest_shift_first(n):
    # a cell takes up to three terms; any other order moves the last bits of some
    assert _on_grid(TWO_MESSAGES)
    randomizer = kernel_randomizer(TWO_MESSAGES, 2)
    _same_cohort_bits(randomizer, [0] * n)
    [law] = exact_mod._shuffle_law(randomizer, [0] * n)
    _same_dict(law.push(one_count_analyzer()),
               count_oracle.shuffle_law(randomizer, [0] * n).push(one_count_analyzer()))


def test_unequal_message_totals_take_the_sorted_merge():
    kernel = {(1, 0): 0.5, (1, 1): 0.5}
    assert not _on_grid(kernel)
    assert not _on_grid({(1, 0): 0.5, (0, 1): 0.5}, TWO_MESSAGES)
    assert not _on_grid({(1, 0, 0): 0.5, (1, 1, 0): 0.5})
    _same_cohort_bits(kernel_randomizer(kernel, 2), [0] * 12)


def test_one_total_chains_of_at_most_four_symbols_run_on_the_grid(monkeypatch):
    assert _on_grid({(1, 0, 0): 0.5, (0, 1, 0): 0.5})
    assert _on_grid({(2, 0, 1): 0.5, (0, 3, 0): 0.5}, {(1, 1, 1): 1.0})
    assert _on_grid({(0, 0, 0, 2): 0.25, (1, 0, 1, 0): 0.75})
    assert _cohort_on_grid(ECHO3, [0, ECHO_USER, 2])
    assert _cohort_on_grid(ECHO4, [ECHO4_USER] * 30)
    # five symbols and more take the merge, as do unequal totals and an empty cohort
    assert not _cohort_on_grid(ECHO5, [ECHO_USER] * 30)
    assert not _cohort_on_grid(echo_randomizer(tuple(range(30))), [{0: 0.5, 29: 0.5}] * 3)
    assert not _on_grid({(1, 0, 0, 0): 0.5, (1, 0, 0, 1): 0.5})
    assert not _cohort_on_grid(ECHO3, [])
    # a box of more cells than ``_GRID_CELLS`` takes the merge, with the same bits
    assert _cohort_on_grid(ECHO4, [ECHO4_USER] * 12)  # 13**3 cells
    monkeypatch.setattr(exact_mod, "_GRID_CELLS", 13**3 - 1)
    assert not _cohort_on_grid(ECHO4, [ECHO4_USER] * 12)
    _same_cohort_bits(ECHO4, [ECHO4_USER] * 12)


@pytest.mark.parametrize("randomizer, users", [
    (ECHO3, [ECHO_USER] * 90),
    (ECHO3, [0, 1, 2, ECHO_USER, {2: 0.9, 0: 0.1}] * 6),
    (ECHO4, [ECHO4_USER] * 24),
    (ECHO4, [3, {0: 0.5, 3: 0.5}, ECHO4_USER, {1: 0.0, 2: 1.0}] * 5),
    (kernel_randomizer({(0, 0, 0, 2): 0.25, (1, 0, 1, 0): 0.75, (0, 1, 0, 1): 0.0}, 4), [0] * 15),
], ids=["echo3-90", "echo3-mixed", "echo4-24", "echo4-mixed", "two-messages-4"])
def test_three_and_four_symbol_cohorts_on_the_grid_keep_their_bits(randomizer, users):
    assert _cohort_on_grid(randomizer, users)
    _same_cohort_bits(randomizer, users)


def test_line_guards_raise_at_the_same_step_with_the_same_message(monkeypatch):
    sizes: list = []
    check = exact_mod._check_paths

    def spy(size, *args):
        sizes.append(size)
        check(size, *args)

    monkeypatch.setattr(exact_mod, "_check_paths", spy)
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 9)
    rr = binary_randomized_response(0.2)
    with pytest.raises(GuardError) as err:
        exact_shuffle_counts(rr, [1, 0] * 3 + [1])
    assert str(err.value) == (
        "cohort of n=7, user 5: 10 paths exceed the 9 guard; reduce the cohort size n")
    assert sizes == [2, 4, 6, 8, 10]
    sizes.clear()
    wrapper = ShuffleToPanWrapper(ShuffleProtocol(rr, histogram_analyzer(), 6), {0: 0.6, 1: 0.4})
    with pytest.raises(GuardError) as err:
        wrapper.exact_output_distribution({0: 0.1, 1: 0.9})
    assert str(err.value) == "wrapper law (n=6): 10 paths exceed the 9 guard; reduce the cohort size n"
    # Horner: real^1, then G_0 * ref; real^2, then G_1 * ref; then three more refs
    assert sizes == [2, 2, 4, 4, 6, 8, 10]


def test_grid_mixture_sums_are_the_merges_in_either_order():
    # two cohorts of one chain, as the wrapper's Horner loop adds them: either law may start lower
    cohorts = [[0, ECHO_USER, 0], [2, ECHO_USER, 1]]
    zero, kernels = exact_mod._chain(ECHO3, cohorts, "test")
    assert type(zero) is exact_mod._Grid
    laws = []
    for users in cohorts:
        law = zero
        for user in users:
            law = law.convolve(kernels[id(user)])
        laws.append(law)
    a, b = laws[0].scaled(0.25), laws[1].scaled(0.75)
    want_a, want_b = (count_oracle.shuffle_law(ECHO3, users) for users in cohorts)
    want = want_a.scaled(0.25) + want_b.scaled(0.75)
    _same_bits((a + b).settled(), want)
    _same_bits((b + a).settled(), want)


@st.composite
def one_total_chains(draw):
    width, total = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    vectors = [v for v in itertools.product(range(total + 1), repeat=width) if sum(v) == total]

    def kernel():
        keys = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=len(vectors),
                             unique=True))
        weights = draw(st.lists(st.integers(0, 5), min_size=len(keys), max_size=len(keys)))
        scale = sum(weights) or 1
        return {key: w / scale for key, w in zip(keys, weights)}

    kernels = [kernel() for _ in range(draw(st.integers(1, 3)))]
    inputs = st.integers(0, len(kernels) - 1)
    user = st.one_of(inputs, st.dictionaries(inputs, st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                              min_size=1))
    randomizer = dataclasses.replace(kernel_randomizer(kernels[0], width),
                                     kernel_fn=kernels.__getitem__)
    return randomizer, draw(st.lists(user, max_size=12))


@settings(max_examples=80, deadline=None)
@given(one_total_chains())
def test_one_total_chains_equal_the_oracle_bit_for_bit(chain):
    randomizer, users = chain
    assert _cohort_on_grid(randomizer, users) == bool(users)
    _same_cohort_bits(randomizer, users)


# ---------------------------------------------------------------------------
# guards


def test_cohort_guard_raises_before_an_oversized_product(monkeypatch):
    sizes: list = []
    argsort = np.argsort

    # every product is merged by one stable sort of its pairwise code sums
    def spy(codes, *args, **kwargs):
        sizes.append(len(codes))
        return argsort(codes, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    users = [{0: 0.2, 1: 0.5, 2: 0.3}] * 10
    # supports 1, 3, 6, 10 times a 3-entry kernel: the fourth product (30 pairs) trips
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 20)
    with pytest.raises(GuardError, match=r"cohort size n.*") as err:
        exact_shuffle_counts(ECHO5, users)
    assert "n=10, user 4" in str(err.value)
    assert sizes == [3, 9, 18]

    sizes.clear()
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 2)
    with pytest.raises(GuardError, match="cohort size n"):
        exact_shuffle_counts(ECHO5, users)
    assert sizes == []


def _guard_trace(monkeypatch, run) -> tuple:
    """The sizes ``run`` checks against ``MAX_PATHS`` and the message it is refused with."""
    sizes: list = []
    check = exact_mod._check_paths

    def spy(size, *args):
        sizes.append(size)
        check(size, *args)

    with monkeypatch.context() as patch, pytest.raises(GuardError) as err:
        patch.setattr(exact_mod, "_check_paths", spy)
        run()
    return sizes, str(err.value)


def test_grid_guards_fire_at_the_merges_user_with_its_message(monkeypatch):
    # ECHO3 runs on the grid and ECHO5 on the merge; their kernels have the same supports
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 20)
    users = [{0: 0.2, 1: 0.5, 2: 0.3}] * 10
    traces = [_guard_trace(monkeypatch, lambda rz=rz: exact_shuffle_counts(rz, users))
              for rz in (ECHO3, ECHO5)]
    assert traces[0] == traces[1] == ([3, 9, 18, 30], (
        "cohort of n=10, user 4: 30 paths exceed the 20 guard; reduce the cohort size n"))
    traces = []
    for rz in (ECHO3, ECHO5):
        wrapper = ShuffleToPanWrapper(ShuffleProtocol(rz, histogram_analyzer(), 6),
                                      {0: 0.5, 1: 0.3, 2: 0.2})
        traces.append(_guard_trace(monkeypatch,
                                   lambda w=wrapper: w.exact_output_distribution({1: 0.4, 2: 0.6})))
    assert traces[0] == traces[1]
    assert traces[0][1] == (
        "wrapper law (n=6): 30 paths exceed the 20 guard; reduce the cohort size n")
    # past int64, a one-total 4-symbol chain (the grid's) and one of mixed totals (the
    # merge's) with the same count bounds are refused before any product, alike
    n = 55_108  # (n + 1)**4 codes overflow int64; n**4 do not
    mixed = kernel_randomizer({(1, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.25, (1, 1, 1, 1): 0.25}, 4)
    traces = [_guard_trace(monkeypatch, lambda rz=rz, u=u: exact_shuffle_counts(rz, [u] * n))
              for rz, u in ((ECHO4, ECHO4_USER), (mixed, 0))]
    assert traces[0] == traces[1] == ([], (
        f"cohort of n={n}: {(n + 1)**4} count-vector codes overflow int64; "
        "reduce the alphabet width (4) or the cohort size n"))


def test_count_codes_refuse_int64_overflow():
    wide = echo_randomizer(tuple(range(70)))
    user = {x: 1.0 / 70 for x in range(70)}
    with pytest.raises(GuardError, match=r"alphabet width \(70\)"):
        exact_shuffle_counts(wide, [user])


def test_int64_guard_fires_before_the_first_product(monkeypatch):
    sizes: list = []
    argsort = np.argsort

    def spy(codes, *args, **kwargs):
        sizes.append(len(codes))
        return argsort(codes, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    # 30 columns of digits 0..3 fit in int64 (4**30 codes); the fourth user's 5**30 do not
    wide = echo_randomizer(tuple(range(30)))
    user = {x: 1.0 / 30 for x in range(30)}
    assert len(exact_shuffle_counts(wide, [user] * 3)) == math.comb(32, 3)
    sizes.clear()
    with pytest.raises(GuardError, match=r"cohort of n=4: .*alphabet width \(30\) or the cohort"):
        exact_shuffle_counts(wide, [user] * 4)
    assert sizes == []


def test_count_laws_name_an_empty_law_or_a_width_mismatch():
    for d1, d2 in [({}, {(1, 0): 1.0}), ({(1, 0): 1.0}, {})]:
        with pytest.raises(ValueError, match="count law: the law is empty"):
            convolve_counts(d1, d2)
    with pytest.raises(ValueError, match=r"count tuples of width \[3\], expected 2"):
        convolve_counts({(1, 0): 1.0}, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="count law: the law is empty"):
        CountLaw.of({}, 2)
    with pytest.raises(ValueError, match=r"count tuples of width \[1, 2\], expected 2"):
        CountLaw.of({(1, 0): 0.5, (1,): 0.5}, 2)


def test_rr_audit_guard_raises_before_the_binomial_rows(monkeypatch):
    def fail(*args):
        raise AssertionError("binomial rows built past the guard")

    monkeypatch.setattr(baselines_mod, "_binomial_rows", fail)
    monkeypatch.setattr(exact_mod, "MAX_PATHS", 99)
    with pytest.raises(GuardError, match="n=10.*cohort size n"):
        _rr_audit_delta(10, 0.1, 1.0)


# ---------------------------------------------------------------------------
# invariants

RANDOMIZERS = [
    binary_randomized_response(0.15),
    asymmetric_binary_randomizer(0.7, 0.2),
    ECHO3,
]


@st.composite
def cohorts(draw):
    randomizer = draw(st.sampled_from(RANDOMIZERS))
    inputs = list(range(len(randomizer.alphabet)))

    def user():
        weights = draw(st.lists(st.integers(0, 4), min_size=len(inputs), max_size=len(inputs)))
        if sum(weights) == 0:
            return draw(st.sampled_from(inputs))
        return {x: w / sum(weights) for x, w in zip(inputs, weights)}

    return randomizer, [user() for _ in range(draw(st.integers(0, 7)))]


@settings(max_examples=40, deadline=None)
@given(cohorts())
def test_shuffle_law_sums_to_one_and_has_the_right_mean(cohort):
    randomizer, users = cohort
    law = exact_shuffle_counts(randomizer, users)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    mean = sum(p * np.array(c, dtype=float) for c, p in law.items())
    want = np.zeros(len(randomizer.alphabet))
    for user in users:
        for x, px in (user if isinstance(user, dict) else {user: 1.0}).items():
            for c, pc in randomizer.kernel(x).items():
                want += px * pc * np.array(c, dtype=float)
    assert np.max(np.abs(mean - want)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 80),
    st.floats(0.0, 0.5, allow_nan=False),
    st.floats(0.0, 3.0, allow_nan=False),
)
def test_rr_audit_lies_between_zero_and_the_local_level(n, flip, eps):
    delta = _rr_audit_delta(n, flip, eps)
    # the count law post-processes the reports, so it leaks no more than one report
    local = max(0.0, (1.0 - flip) - math.exp(eps) * flip)
    assert 0.0 <= delta <= local + 1e-12
