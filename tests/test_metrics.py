"""Information metrics, the brute-force norm, and the supporting facts."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.facts import fact_markov_check, fact_tv_chain_check, pinsker_check
from oracles.norm_oracle import (
    FROZEN_LABELED,
    FROZEN_PLAIN,
    envelope_sq,
    labeled_norm_sq,
    matmul_norm,
)
from panshuffle.distributions import (
    ParametricHardDistribution,
    ParityIndex,
    densify,
    family_enumerate,
    fourier_spectrum,
    parity_values,
)
import panshuffle.metrics as metrics_mod
from panshuffle.errors import GuardError
from panshuffle.metrics import (
    _hockey,
    hockey_stick,
    infty_to_2_norm_bruteforce,
    kl_divergence,
    mutual_information,
    parity_family_norm_bound_sq,
    tv_distance,
)
from panshuffle.rng import make_generator

simplex = arrays(
    np.float64,
    st.integers(min_value=2, max_value=6),
    elements=st.floats(min_value=0.01, max_value=1.0),
).map(lambda v: v / v.sum())


def random_simplex(rng, size):
    v = rng.random(size) + 1e-3
    return v / v.sum()


# ---------------------------------------------------------------------------
# scalar divergences


def test_tv_basic_values():
    p = np.array([0.5, 0.5])
    q = np.array([0.75, 0.25])
    assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)
    assert tv_distance(p, p) == 0.0


def test_tv_rejects_mismatched_domains():
    with pytest.raises(ValueError):
        tv_distance(np.array([0.5, 0.5]), np.array([1.0 / 3] * 3))


def test_kl_known_value_and_edge():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0)
    )
    assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


def test_hockey_stick_binary():
    p = np.array([0.8, 0.2])
    q = np.array([0.5, 0.5])
    assert hockey_stick(p, q, 0.0) == pytest.approx(0.3, abs=1e-15)
    # at eps = ln(0.8/0.5) the first outcome stops contributing
    eps = math.log(1.6)
    assert hockey_stick(p, q, eps) == pytest.approx(0.0, abs=1e-12)
    assert hockey_stick(p, q, 10.0) == 0.0


# _BLOCK values: every grid point in one block, two then one (a short last
# block), and one grid point a block
@pytest.mark.parametrize("block", [1 << 21, 216, 1])
def test_hockey_rows_match_one_row_at_a_time(block, monkeypatch):
    monkeypatch.setattr(metrics_mod, "_BLOCK", block)
    rng = np.random.default_rng(5)
    a, b = rng.random((4, 3, 9)), rng.random((4, 3, 9))
    eps = [0.0, 0.25, 1.0]
    fwd, bwd = _hockey(a, b, eps)
    assert fwd.shape == bwd.shape == (4, 3, 3)
    for i in range(4):
        for j in range(3):
            assert np.array_equal(np.stack([fwd[i, j], bwd[i, j]]),
                                  _hockey(a[i, j], b[i, j], eps))
            for got, x, y in ((fwd, a, b), (bwd, b, a)):
                want = [np.clip(x[i, j] - math.exp(e) * y[i, j], 0.0, None).sum() for e in eps]
                assert np.array_equal(got[i, j], want)


def test_hockey_in_place_is_the_clipped_sum_on_a_long_pair():
    # long enough that numpy's pairwise sum recurses: the in-place temporary
    # must sum exactly as a fresh clipped array does, in both directions
    rng = np.random.default_rng(11)
    a, b = rng.random(300_007), rng.random(300_007)
    a[::7] = 0.0
    eps = [0.0, 0.1, 0.7, 3.0]
    got = _hockey(a, b, eps)
    for row, (x, y) in zip(got, ((a, b), (b, a))):
        want = [np.clip(x - math.exp(e) * y, 0.0, None).sum() for e in eps]
        assert row.tobytes() == np.array(want).tobytes()


def test_hockey_refuses_an_epsilon_whose_exponential_overflows():
    p, q = np.array([0.8, 0.2]), np.array([0.5, 0.5])
    largest = math.log(sys.float_info.max)
    assert math.isfinite(math.exp(largest))
    assert hockey_stick(p, q, largest) == 0.0
    for eps in (math.nextafter(largest, math.inf), 710.0, 800.0):
        with pytest.raises(ValueError, match=f"the largest eps accepted is {largest!r}"):
            hockey_stick(p, q, eps)


@given(simplex, simplex)
def test_pinsker_property(p, q):
    if p.size != q.size:
        return
    assert pinsker_check(p, q)


@settings(max_examples=40)
@given(simplex)
def test_tv_self_zero_and_symmetry(p):
    rng = np.random.default_rng(0)
    q = random_simplex(rng, p.size)
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
    assert tv_distance(p, p) == 0.0


# ---------------------------------------------------------------------------
# mutual information


def test_mutual_information_independent_is_zero():
    joint = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_copy_channel():
    joint = np.diag([0.25, 0.25, 0.25, 0.25])
    assert mutual_information(joint) == pytest.approx(math.log(4.0), rel=1e-12)


def test_mutual_information_data_processing():
    rng = make_generator(4, "dpi-mi")
    for _ in range(50):
        joint = rng.random((3, 4))
        joint /= joint.sum()
        # postprocess the second coordinate through a random stochastic map
        t = rng.random((4, 3))
        t /= t.sum(axis=1, keepdims=True)
        pushed = joint @ t
        assert mutual_information(pushed) <= mutual_information(joint) + 1e-10


# ---------------------------------------------------------------------------
# brute-force norm


def is_signed_character(witness):
    spec = fourier_spectrum(np.asarray(witness, dtype=np.float64))
    nz = np.flatnonzero(np.abs(spec) > 1e-9)
    return nz.size == 1 and abs(abs(spec[nz[0]]) - len(witness)) < 1e-9


@pytest.mark.parametrize("key,expected", sorted(FROZEN_PLAIN.items()))
def test_norm_plain_matches_oracle(key, expected):
    d, k, alpha = key
    fam = [densify(m) for m in family_enumerate(d, k, alpha, "plain")]
    report = infty_to_2_norm_bruteforce(fam, bound_sq=envelope_sq(d, k, alpha))
    assert report.value_sq == pytest.approx(expected, abs=1e-12)
    assert report.value_sq <= report.bound_sq + 1e-12
    assert is_signed_character(report.witness)


@pytest.mark.parametrize("key,expected", sorted(FROZEN_LABELED.items()))
def test_norm_labeled_matches_oracle(key, expected):
    d, k, alpha = key
    fam = [densify(m) for m in family_enumerate(d, k, alpha, "labeled")]
    report = infty_to_2_norm_bruteforce(fam, bound_sq=envelope_sq(d, k, alpha))
    assert report.value_sq == pytest.approx(expected, abs=1e-12)
    # the shared envelope is met strictly, not attained
    assert report.value_sq < report.bound_sq - 1e-12
    assert is_signed_character(report.witness)


def test_norm_bound_helper_matches_oracle():
    for (d, k, alpha), expected in FROZEN_PLAIN.items():
        assert parity_family_norm_bound_sq(d, k, alpha) == pytest.approx(expected)


def test_norm_explicit_reference_and_guard():
    fam = [densify(m) for m in family_enumerate(2, 1, 0.25, "plain")]
    uniform = np.full(4, 0.25)
    by_default = infty_to_2_norm_bruteforce(fam)
    by_explicit = infty_to_2_norm_bruteforce(fam, reference=uniform)
    assert by_default.value_sq == pytest.approx(by_explicit.value_sq, abs=1e-15)
    with pytest.raises(GuardError):
        infty_to_2_norm_bruteforce([np.full(1 << 17, 2.0**-17)])


def test_norm_witness_is_first_character_in_lexicographic_order():
    # chi_(2,3) and chi_(1,4) both attain the maximum 4 alpha^2 / 2 = 0.08;
    # (1, 4) comes first in family_enumerate's (size, lexicographic) order
    fam = [
        densify(ParametricHardDistribution(d=4, index=ParityIndex(s, b), alpha=0.2))
        for s in [(2, 3), (1, 4)]
        for b in (1, -1)
    ]
    report = infty_to_2_norm_bruteforce(fam)
    assert report.value_sq == pytest.approx(0.08, abs=1e-15)
    assert np.array_equal(report.witness, parity_values((1, 4), 4))


# every plain (2^d points) and labeled (2^(d+1) points) family with a domain of at most 16
HARD_FAMILIES = [
    (family, d, k)
    for family, d_max in (("plain", 4), ("labeled", 3))
    for d in range(1, d_max + 1)
    for k in range(1, d + 1)
]


@pytest.mark.parametrize("family, d, k", HARD_FAMILIES)
def test_norm_matches_the_matmul_enumeration_bit_for_bit(family, d, k):
    for alpha in (0.05, 0.2, 0.3, 0.45):
        fam = [densify(m) for m in family_enumerate(d, k, alpha, family)]
        report = infty_to_2_norm_bruteforce(fam)
        value_sq, witness = matmul_norm(fam)
        assert report.value_sq.hex() == value_sq.hex()
        assert np.array_equal(report.witness, witness)


def test_norm_matches_the_matmul_enumeration_on_random_families():
    rng = make_generator(20261019, "norm-butterfly")
    for trial in range(60):
        m, members = int(rng.integers(1, 17)), int(rng.integers(1, 41))
        if trial % 2:
            fam = rng.dirichlet(np.ones(m), size=members)
        else:
            # coarse grid: many test functions tie exactly
            fam = np.round(rng.dirichlet(np.ones(m), size=members) * 8) / 8
        report = infty_to_2_norm_bruteforce(list(fam))
        value_sq, witness = matmul_norm(list(fam))
        assert report.value_sq.hex() == value_sq.hex()
        assert np.array_equal(report.witness, witness)


def test_norm_witness_of_a_sign_only_tie_is_the_lower_index():
    # on 5 points no character is tried, and only functions 9 and 22 = 31 - 9 tie: the
    # witness is function 9, whose top point is +1, in the lower half of the cube
    fam = [np.array([0.3, 0.1, 0.2, 0.25, 0.15]), np.array([0.1, 0.3, 0.25, 0.05, 0.3])]
    report = infty_to_2_norm_bruteforce(fam)
    value_sq, witness = matmul_norm(fam)
    assert report.value_sq.hex() == value_sq.hex()
    assert np.array_equal(report.witness, witness)
    assert report.witness[-1] == 1


def test_norm_refuses_a_zero_width_domain():
    with pytest.raises(ValueError, match="domain size 0"):
        infty_to_2_norm_bruteforce([np.zeros(0), np.zeros(0)])


def test_norm_report_json_includes_witness_bits():
    fam = [densify(m) for m in family_enumerate(2, 1, 0.1, "plain")]
    report = infty_to_2_norm_bruteforce(fam, bound_sq=0.02)
    blob = json.loads(report.to_json())
    assert set(blob) >= {"value_sq", "bound_sq", "witness_bits"}
    assert set(blob["witness_bits"]) <= {0, 1}
    assert report.value == pytest.approx(math.sqrt(report.value_sq))


# ---------------------------------------------------------------------------
# facts


def shared_marginal_joints(rng, na, nb):
    marg = random_simplex(rng, na)
    b1 = np.stack([random_simplex(rng, nb) for _ in range(na)])
    b2 = np.stack([random_simplex(rng, nb) for _ in range(na)])
    return marg[:, None] * b1, marg[:, None] * b2


def test_fact_tv_chain_random_and_rejects():
    rng = make_generator(5, "chain")
    for _ in range(100):
        j1, j2 = shared_marginal_joints(rng, 3, 4)
        assert fact_tv_chain_check(j1, j2)
    bad1 = np.outer([0.9, 0.1], [0.5, 0.5])
    bad2 = np.outer([0.1, 0.9], [0.5, 0.5])
    with pytest.raises(ValueError):
        fact_tv_chain_check(bad1, bad2)


def ci_joint(rng, na, nb, nc):
    pc = random_simplex(rng, nc)
    pa_c = np.stack([random_simplex(rng, na) for _ in range(nc)])
    pb_c = np.stack([random_simplex(rng, nb) for _ in range(nc)])
    joint = np.zeros((na, nb, nc))
    for c in range(nc):
        joint[:, :, c] = pc[c] * np.outer(pa_c[c], pb_c[c])
    return joint


def test_fact_markov_random_and_rejects():
    rng = make_generator(6, "markov")
    for _ in range(100):
        assert fact_markov_check(ci_joint(rng, 3, 3, 4))
    dependent = rng.random((2, 2, 2))
    dependent /= dependent.sum()
    with pytest.raises(ValueError):
        fact_markov_check(dependent)
