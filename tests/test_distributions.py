"""Hard-family construction, enumeration, encoding, and sampling."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panshuffle.distributions import (
    _popcount,
    FiniteDistribution,
    ParametricHardDistribution,
    ParityIndex,
    binom_sum,
    densify,
    family_enumerate,
    family_size,
    fourier_spectrum,
    from_descriptor,
    index_to_vectors,
    member_descriptor,
    parity_values,
    pmf_eval,
    sample,
    subset_mask,
    uniform_hypercube,
    vectors_to_index,
)
from panshuffle.errors import GuardError
from panshuffle.rng import make_generator

from oracles.sign_matrix_oracle import generator_probe, sample_by_expression


def member(d, subset, sign, alpha, family="plain"):
    return ParametricHardDistribution(
        d=d, index=ParityIndex(tuple(subset), sign), alpha=alpha, family=family
    )


# ---------------------------------------------------------------------------
# index encoding


def test_index_zero_is_all_plus_one():
    signs = index_to_vectors(0, 3)[0]
    assert np.array_equal(signs, np.array([1, 1, 1]))


def test_first_coordinate_is_most_significant():
    # flipping coordinate 1 moves the index by 2^(d-1)
    d = 4
    base = index_to_vectors(0, d)[0]
    flipped = base.copy()
    flipped[0] = -1
    assert vectors_to_index(flipped[None, :])[0] == 1 << (d - 1)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_index_roundtrip(d, data):
    idx = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    signs = index_to_vectors(idx, d)
    assert vectors_to_index(signs)[0] == idx


def test_subset_mask_and_parity_values():
    d = 3
    mask = subset_mask((1, 3), d)
    assert mask == 0b101
    par = parity_values((1, 3), d)
    signs = index_to_vectors(np.arange(1 << d), d)
    assert np.array_equal(par, signs[:, 0] * signs[:, 2])


# ---------------------------------------------------------------------------
# member pmfs


def test_plain_member_pmf_formula():
    d, alpha = 3, 0.2
    p = member(d, (2,), 1, alpha)
    dense = densify(p)
    signs = index_to_vectors(np.arange(1 << d), d)
    expected = (1.0 + 2.0 * alpha * signs[:, 1]) / (1 << d)
    np.testing.assert_allclose(dense.probs, expected, atol=1e-15)
    assert dense.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_plain_member_rejects_empty_subset():
    with pytest.raises(ValueError):
        member(3, (), 1, 0.2)


def test_labeled_member_allows_empty_subset():
    q = member(3, (), 1, 0.2, family="labeled")
    dense = densify(q)
    assert dense.dim == 4
    # tilt is carried by the label coordinate alone
    assert q.parity_mean((4,)) == pytest.approx(0.4)
    assert q.parity_mean((1,)) == pytest.approx(0.0)


def test_labeled_member_tilts_subset_times_label():
    d, alpha = 2, 0.25
    q = member(d, (1,), -1, alpha, family="labeled")
    assert q.parity_mean((1, 3)) == pytest.approx(-2 * alpha)
    assert q.parity_mean((1,)) == pytest.approx(0.0)
    assert q.parity_mean((3,)) == pytest.approx(0.0)


def test_degenerate_alpha_guard():
    with pytest.raises(ValueError):
        member(2, (1,), 1, 0.5)


def test_parity_mean_matches_tilt():
    p = member(4, (2, 3), -1, 0.1)
    assert p.parity_mean((2, 3)) == pytest.approx(-0.2)


def test_pmf_eval_agrees_with_densify():
    p = member(3, (1, 2), 1, 0.15)
    signs = index_to_vectors(np.arange(8), 3)
    np.testing.assert_allclose(pmf_eval(p, signs), densify(p).probs, atol=1e-15)


def test_pmf_eval_of_a_dense_law_equals_its_member():
    p = member(3, (1, 2), 1, 0.15)
    signs = index_to_vectors(np.arange(8), 3)
    dense = densify(p)
    assert isinstance(dense, FiniteDistribution)
    np.testing.assert_allclose(pmf_eval(dense, signs), pmf_eval(p, signs), atol=1e-15)
    assert pmf_eval(dense, signs[5]) == pytest.approx(pmf_eval(p, signs[5]), abs=1e-15)


# ---------------------------------------------------------------------------
# families


def test_family_size_formulas():
    for d, k in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        c = sum(math.comb(d, j) for j in range(1, k + 1))
        assert family_size(d, k, "plain") == 2 * c
        assert family_size(d, k, "labeled") == 2 * c + 2


def test_family_enumerate_order_and_uniqueness():
    fam = family_enumerate(3, 2, 0.1, "plain")
    assert len(fam) == family_size(3, 2, "plain")
    keys = [(len(m.index.subset), m.index.subset, -m.index.sign) for m in fam]
    assert keys == sorted(keys)
    assert len(set((m.index.subset, m.index.sign) for m in fam)) == len(fam)


def test_labeled_family_includes_empty_subset_members():
    fam = family_enumerate(3, 1, 0.1, "labeled")
    subsets = [m.index.subset for m in fam]
    assert subsets.count(()) == 2
    assert len(fam) == 2 * 3 + 2


def test_family_equal_mixture_is_uniform():
    for family in ("plain", "labeled"):
        fam = family_enumerate(3, 2, 0.2, family)
        avg = np.mean([densify(m).probs for m in fam], axis=0)
        np.testing.assert_allclose(avg, np.full(avg.size, 1.0 / avg.size), atol=1e-15)


def test_binom_sum():
    assert binom_sum(4, 2) == 10
    assert binom_sum(3, 3) == 7
    with pytest.raises(ValueError):
        binom_sum(5, 0)


# ---------------------------------------------------------------------------
# fourier


def test_fourier_coefficient_picks_out_tilt():
    p = member(3, (1, 3), 1, 0.2)
    dense = densify(p)
    mask = subset_mask((1, 3), 3)
    spec = fourier_spectrum(dense.probs)
    assert spec[mask] == pytest.approx(0.4, abs=1e-12)
    assert spec[0] == pytest.approx(1.0)
    nz = np.flatnonzero(np.abs(spec) > 1e-12)
    assert set(nz) == {0, mask}


def test_fourier_spectrum_requires_power_of_two():
    with pytest.raises(ValueError):
        fourier_spectrum(np.ones(3) / 3.0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_shape_and_alphabet():
    p = member(3, (2,), -1, 0.25)
    rows = sample(p, 100, make_generator(0, "s"))
    assert rows.shape == (100, 3)
    assert set(np.unique(rows)) <= {-1, 1}


def test_sample_matches_pmf_chi_square():
    p = member(3, (1, 2), 1, 0.25)
    n = 200_000
    rows = sample(p, n, make_generator(1, "chi"))
    idx = vectors_to_index(rows)
    observed = np.bincount(idx, minlength=8)
    expected = densify(p).probs * n
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 7 degrees of freedom; 1e-4 upper quantile is ~29.9
    assert chi2 < 29.9


def _members_to_pin():
    """Members of both families, d = 1..12, subset widths up to 3, both signs."""
    pick = make_generator(23, "members-to-pin")
    for family in ("plain", "labeled"):
        for d in range(1, 13):
            for width in range(0 if family == "labeled" else 1, min(3, d) + 1):
                drawn = pick.choice(np.arange(1, d + 1), size=width, replace=False)
                subsets = {tuple(range(1, width + 1)), tuple(range(d - width + 1, d + 1)),
                           tuple(sorted(drawn.tolist()))}
                alpha = float(pick.uniform(0.05, 0.45))
                for subset in sorted(subsets):
                    for sign in (1, -1):
                        yield member(d, subset, sign, alpha, family)


def test_sample_builds_the_expression_oracles_matrix():
    """The in-place sampler: the bytes, dtype and shape of the out-of-place expression,
    and the generator left where that expression leaves it."""
    for i, m in enumerate(_members_to_pin()):
        for n in (0, 1, 257):
            ours, theirs = make_generator(29, "pin", i, n), make_generator(29, "pin", i, n)
            got, want = sample(m, n, ours), sample_by_expression(m, n, theirs)
            assert got.dtype == want.dtype == np.int8 and got.shape == want.shape == (n, m.dim)
            assert got.tobytes() == want.tobytes(), (m, n)
            assert generator_probe(ours) == generator_probe(theirs)


def test_sample_from_uniform():
    u = uniform_hypercube(2)
    rows_u = sample(u, 50, make_generator(2, "u"))
    assert rows_u.shape == (50, 2)


# ---------------------------------------------------------------------------
# descriptors and csv


def test_descriptor_roundtrip_member():
    p = member(4, (1, 3), -1, 0.1)
    desc = member_descriptor(p, k=2)
    back = from_descriptor(json.loads(json.dumps(desc)))
    assert isinstance(back, ParametricHardDistribution)
    assert back.index == p.index
    assert back.alpha == p.alpha
    np.testing.assert_allclose(densify(back).probs, densify(p).probs)


def test_descriptor_roundtrip_family_and_uniform():
    fam = from_descriptor({"family": "plain", "d": 3, "k": 2, "alpha": 0.1, "ell": None})
    assert isinstance(fam, list) and len(fam) == 12
    u = from_descriptor({"family": "uniform", "d": 3})
    assert densify(u).probs.sum() == pytest.approx(1.0)


def test_densify_guard_on_large_dim():
    big = uniform_hypercube(2)
    assert densify(big).dim == 2
    with pytest.raises(GuardError):
        densify(member(21, (1,), 1, 0.1))


# ---------------------------------------------------------------------------
# exact identity properties


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from([0.05, 0.1, 0.2, 0.25]),
    st.data(),
)
def test_tv_from_uniform_is_alpha(d, alpha, data):
    j = data.draw(st.integers(min_value=1, max_value=d))
    b = data.draw(st.sampled_from([-1, 1]))
    p = densify(member(d, (j,), b, alpha)).probs
    u = np.full(1 << d, 1.0 / (1 << d))
    assert 0.5 * np.abs(p - u).sum() == pytest.approx(alpha, abs=1e-12)


def test_numpy_floor_is_declared_and_popcount_counts_bits():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    # np.bitwise_count, behind _popcount, first shipped in numpy 2.0
    assert "numpy>=2.0" in deps
    values = make_generator(0, "popcount").integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=500)
    got = _popcount(values)
    assert got.tolist() == [bin(int(v)).count("1") for v in values]
