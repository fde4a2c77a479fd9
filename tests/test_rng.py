"""Seed-derivation and noise-sampler contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from panshuffle import rng
from panshuffle.rng import (
    as_generator,
    derive_seed,
    draw_words,
    fnv1a64,
    gaussian,
    laplace,
    laplace_from_words,
    make_generator,
    splitmix64,
)

# These pins are load-bearing: archived CSVs encode streams derived from these
# exact constants, so any drift here silently invalidates every recorded run.
FROZEN_DERIVATIONS = {
    (0, ()): 16294208416658607535,
    (0, ("trial", 0)): 7993375472502247583,
    (20260817, ("selection-sweep-pan", "pan", 128, "confirm", 3456)): 6676995095381646557,
}


def test_splitmix64_known_vector():
    # first output of the reference sequence seeded at 0
    assert splitmix64(0) == 16294208416658607535


def test_fnv1a64_known_vector():
    # FNV-1a of the empty string is the offset basis
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


@pytest.mark.parametrize("key,expected", sorted(FROZEN_DERIVATIONS.items(), key=str))
def test_derive_seed_frozen(key, expected):
    master, components = key
    assert derive_seed(master, *components) == expected


_COMPONENT = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=12))


@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(_COMPONENT, max_size=4),
       st.lists(_COMPONENT, max_size=4))
def test_a_folded_prefix_derives_the_whole_seed(master, prefix, rest):
    assert rng._fold_seed(derive_seed(master, *prefix), *rest) == derive_seed(master, *prefix, *rest)


def test_derive_seed_component_order_matters():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_make_generator_reproducible():
    a = make_generator(7, "x", 3).integers(0, 1 << 30, size=5)
    b = make_generator(7, "x", 3).integers(0, 1 << 30, size=5)
    assert np.array_equal(a, b)


def test_as_generator_passthrough_and_seed():
    gen = make_generator(1)
    assert as_generator(gen) is gen
    assert isinstance(as_generator(5), np.random.Generator)
    assert isinstance(as_generator(None), np.random.Generator)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_derive_seed_in_range(master):
    s = derive_seed(master, "tag", 9)
    assert 0 <= s < (1 << 64)


def test_laplace_zero_scale():
    gen = make_generator(3)
    assert laplace(gen, 0.0) == 0.0
    assert np.array_equal(laplace(gen, 0.0, size=4), np.zeros(4))


def test_laplace_rejects_negative_scale():
    with pytest.raises(ValueError):
        laplace(make_generator(3), -1.0)


def test_laplace_matches_reference_law():
    draws = laplace(make_generator(11, "lap"), 2.0, size=200_000)
    res = stats.kstest(draws, stats.laplace(scale=2.0).cdf)
    assert res.pvalue > 1e-3
    assert abs(float(np.median(draws))) < 0.02


def test_gaussian_matches_reference_law():
    draws = gaussian(make_generator(11, "gau"), 1.5, size=200_000)
    res = stats.kstest(draws, stats.norm(scale=1.5).cdf)
    assert res.pvalue > 1e-3


def test_gaussian_zero_scale_and_negative():
    gen = make_generator(3)
    assert gaussian(gen, 0.0) == 0.0
    with pytest.raises(ValueError):
        gaussian(gen, -0.5)


TOP_WORDS = np.array([(1 << 64) - 1, (1 << 64) - 1024, (1 << 64) - 1025], dtype=np.uint64)


class _Words:
    """A generator stub that hands out the given words.

    Its ``bit_generator`` is no numpy bit generator, so ``draw_words`` asks its
    ``integers`` for the words.
    """

    bit_generator = None

    def __init__(self, words):
        self.words = words

    def integers(self, low, high, size=None, dtype=None):
        return self.words.copy()


def test_top_words_draw_finite_noise():
    lap = laplace_from_words(TOP_WORDS, 1.0)
    gau = gaussian(_Words(TOP_WORDS), 1.0, size=3)
    assert np.all(np.isfinite(lap)) and np.all(np.isfinite(gau))
    # the words past 2**64 - 1025 take its u = 1 - 2**-53, whose draw does not move
    u = 1.0 - 2.0**-53
    assert np.all(lap == -np.log1p(-2.0 * (u - 0.5)))
    assert np.all(gau == gau[2]) and gau[2] > 8.0


_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                   np.random.MT19937]
# draws made before the words: none, bounded small integers (buffered 32-bit halves on
# some generators), bounded uint32, and doubles
_DRAWS_BEFORE = {
    "none": lambda g: None,
    "int8": lambda g: g.integers(0, 2, size=5, dtype=np.int8),
    "uint32": lambda g: g.integers(0, 1000, size=3, dtype=np.uint32),
    "float": lambda g: g.random(3),
}


def _same_state(a, b) -> bool:
    """Equal bit-generator states; some hold arrays, compared element by element."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("size", [None, 0, 1, (4000, 2)], ids=str)
@pytest.mark.parametrize("before", list(_DRAWS_BEFORE))
@pytest.mark.parametrize("bits", _BIT_GENERATORS, ids=lambda b: b.__name__)
def test_draw_words_are_the_integers_words_and_leave_the_generator_there(bits, before, size):
    ours, theirs = (np.random.Generator(bits(20261020)) for _ in range(2))
    for gen in (ours, theirs):
        _DRAWS_BEFORE[before](gen)
    got = draw_words(ours, size)
    want = theirs.integers(0, 1 << 64, size=size, dtype=np.uint64)
    assert type(got) is type(want) and got.dtype == want.dtype and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert _same_state(ours.bit_generator.state, theirs.bit_generator.state)
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)
    assert ours.random() == theirs.random()


def test_every_stream_built_here_reads_raw_words():
    for gen in (make_generator(3, "words"), as_generator(3), as_generator(None)):
        assert type(gen.bit_generator) in rng._raw_words()
    assert np.random.MT19937 not in rng._raw_words()  # its raw output is 32 bits


def test_noise_is_pure_function_of_stream():
    # one 64-bit word per draw: identical generators give identical draws,
    # and interleaving another consumer shifts them deterministically
    a = laplace(make_generator(5, "s"), 1.0, size=8)
    b = laplace(make_generator(5, "s"), 1.0, size=8)
    assert np.array_equal(a, b)
    g = make_generator(5, "s")
    g.integers(0, 1 << 64, dtype=np.uint64)
    shifted = laplace(g, 1.0, size=7)
    assert np.array_equal(shifted, a[1:])


def test_gaussian_matches_scipy_ndtri_bit_for_bit():
    words = np.concatenate([
        make_generator(17, "ndtri").integers(0, 1 << 64, size=100_000, dtype=np.uint64),
        np.array([0, (1 << 64) - 1], dtype=np.uint64),
    ])
    u = np.minimum((words.astype(np.float64) + 0.5) * 2.0**-64, 1.0 - 2.0**-53)
    draws = gaussian(_Words(words), 1.7, size=words.size)
    assert draws.tobytes() == (1.7 * ndtri(u)).tobytes()


def _refuse_ndtri():
    raise AssertionError("scipy's ndtri was asked for")


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_noise_refuses_a_bad_scale_before_any_draw(scale, monkeypatch):
    monkeypatch.setattr(rng, "_ndtri", _refuse_ndtri)
    gen = make_generator(3, "bad-scale")
    before = gen.bit_generator.state
    for draw in (laplace, gaussian):
        for size in (None, 3):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                draw(gen, scale, size)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        laplace_from_words(np.arange(3, dtype=np.uint64), scale)
    assert gen.bit_generator.state == before


def test_zero_scale_draws_no_word_and_loads_no_scipy(monkeypatch):
    monkeypatch.setattr(rng, "_ndtri", _refuse_ndtri)
    gen = make_generator(3, "zero-scale")
    before = gen.bit_generator.state
    assert laplace(gen, 0.0) == gaussian(gen, 0.0) == 0.0
    assert np.array_equal(gaussian(gen, 0.0, size=2), np.zeros(2))
    assert gen.bit_generator.state == before
