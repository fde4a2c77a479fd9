"""Deterministic random-stream management.

Every randomized routine in this package takes either a ``numpy.random.Generator``
or an integer seed. Experiments derive one independent stream per trial from a
master seed with :func:`derive_seed`, so results are reproducible at any level of
parallelism: the stream for trial ``i`` depends only on ``(master, tags..., i)``,
never on execution order.

Seed derivation rule (fixed; changing it changes every archived result):

* strings are hashed with FNV-1a (64-bit, offset 0xcbf29ce484222325,
  prime 0x100000001b3) over their UTF-8 bytes;
* integers are reduced mod 2**64;
* components are folded left to right through SplitMix64:
  ``state = splitmix64(state XOR component)`` starting from
  ``state = splitmix64(master)``.

The result seeds a PCG64 generator. A string's hash is computed once per
process, and a caller deriving many streams that share a prefix of components
folds that prefix once (:func:`_fold_seed`), with the same arithmetic.

Noise is drawn as 64-bit words (:func:`draw_words`): the words
``integers(0, 2**64, dtype=uint64)`` returns, read straight from the bit
generator's raw output for the generators whose raw output is that word
(PCG64, PCG64DXSM, Philox, SFC64; every stream built here is one), and through
``integers`` for any other.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One SplitMix64 scrambling step (Steele, Lea, Flood 2014 constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=1024)
def fnv1a64(text: str) -> int:
    """FNV-1a (64-bit) of the UTF-8 bytes; each tag is hashed once per process."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(master: int, *components: int | str) -> int:
    """Mix a master seed with tag/index components into one 64-bit seed."""
    return _fold_seed(splitmix64(int(master) & _MASK), *components)


def _fold_seed(state: int, *components: int | str) -> int:
    """Fold more components into a derived seed, left to right.

    ``_fold_seed(derive_seed(master, *a), *b) == derive_seed(master, *a, *b)``,
    so streams sharing the prefix ``a`` fold it once.
    """
    for comp in components:
        value = fnv1a64(comp) if isinstance(comp, str) else int(comp) & _MASK
        state = splitmix64(state ^ value)
    return state


def make_generator(master: int, *components: int | str) -> np.random.Generator:
    """PCG64 generator for the stream identified by (master, components)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *components)))


def as_generator(rng: int | np.random.Generator | None) -> np.random.Generator:
    """Accept a Generator, an integer seed, or None (fresh OS entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@functools.cache
def _raw_words() -> frozenset:
    """Bit generators whose raw output is the word ``integers(0, 2**64, dtype=uint64)`` returns.

    MT19937's raw output is 32 bits, so it is not one of them. Built on the
    first call, so importing the package does not load ``numpy.random``.
    """
    return frozenset({np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64})


def draw_words(rng: np.random.Generator, size=None) -> np.ndarray:
    """The generator's next 64-bit words, one per :func:`laplace` or :func:`gaussian` draw.

    Value for value the words ``rng.integers(0, 2**64, size=size,
    dtype=np.uint64)`` returns, leaving ``rng`` where that call leaves it. For
    a bit generator in :func:`_raw_words` they are its raw output, read without
    ``integers``' per-call work; any other generator is asked through
    ``integers``.
    """
    bits = rng.bit_generator
    if type(bits) not in _raw_words():
        return rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
    return np.uint64(bits.random_raw()) if size is None else bits.random_raw(size)


def _unit(words: np.ndarray) -> np.ndarray:
    """u = (k + 0.5) / 2**64 for word k, capped at word 2**64 - 1025's 1 - 2**-53: inside (0, 1)."""
    return np.minimum((words.astype(np.float64) + 0.5) * 2.0**-64, 1.0 - 2.0**-53)


def _check_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")


@functools.cache
def _ndtri():
    """``scipy.special.ndtri``, imported on the first call: only Gaussian draws load scipy."""
    from scipy.special import ndtri

    return ndtri


def laplace_from_words(words: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(0, scale) values of 64-bit ``words`` by the inverse CDF of :func:`laplace`.

    Elementwise, so transforming a batch of words gives the values that
    drawing them one call at a time through :func:`laplace` gives.
    """
    _check_scale(scale)
    centered = _unit(words) - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def laplace(rng: np.random.Generator, scale: float, size=None) -> np.ndarray | float:
    """Laplace(0, scale) draws via inverse CDF applied to a 64-bit uniform.

    The uniform is u = (k + 0.5) / 2**64 with k drawn uniformly from
    [0, 2**64), so u lies strictly inside (0, 1) and the transform
    x = -scale * sign(u - 1/2) * log(1 - 2|u - 1/2|) never overflows.
    This route (rather than a library sampler) keeps the draw a pure
    function of the generator's next 64-bit word, which pins down the
    byte-level reproducibility of archived runs. A zero scale draws no word;
    a negative or non-finite one raises before any word is drawn.
    """
    _check_scale(scale)
    if scale == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return laplace_from_words(draw_words(rng, size), scale)


def gaussian(rng: np.random.Generator, scale: float, size=None) -> np.ndarray | float:
    """Normal(0, scale**2) draws via the inverse normal CDF on a 64-bit uniform.

    Same one-word-per-draw contract as :func:`laplace`: u = (k + 0.5) / 2**64
    pushed through ``scipy.special.ndtri``, so the draw is a pure function of
    the generator's next 64-bit word rather than of a library sampler's
    internal rejection loop. scipy is imported on the first draw of a nonzero
    scale, not with the package; a zero scale draws no word, and a negative or
    non-finite one raises before any word is drawn or scipy is loaded.
    """
    _check_scale(scale)
    if scale == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return scale * _ndtri()(_unit(draw_words(rng, size)))
