"""The count-law convolutions as they were before they ran in one code space.

Every ``convolve`` here reads the bounds of both laws, derives strides from
the span of that one product, merges equal codes with ``np.unique`` and
gathers the count rows back with ``divmod``; every union recodes both laws
from the union's own span. ``shuffle_law`` builds each user's kernel law once
per user, and ``wrapper_law`` is the Horner loop of
``ShuffleToPanWrapper.exact_output_distribution``. ``panshuffle.exact`` keeps
one stride vector for a whole chain and decodes counts once; tests require
its count rows, probabilities and pushed laws to be bit-identical to these.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from panshuffle.exact import randomizer_kernel_for


def _strides(span: np.ndarray) -> np.ndarray:
    places = list(accumulate(span.tolist(), operator.mul, initial=1))
    assert places[-1] <= np.iinfo(np.int64).max
    return np.array(places[:-1], dtype=np.int64)


def _push(pairs, analyzer) -> dict:
    out: dict = {}
    for counts, p in pairs:
        val = analyzer(np.asarray(counts))
        out[val] = out.get(val, 0.0) + p
    return out


@dataclass(frozen=True)
class CountLaw:
    counts: np.ndarray
    probs: np.ndarray

    @classmethod
    def of(cls, dist: dict, width: int) -> CountLaw:
        counts = np.array(list(dist), dtype=np.int64).reshape(len(dist), width)
        return cls(counts, np.fromiter(dist.values(), dtype=np.float64, count=len(dist)))

    @classmethod
    def zero(cls, width: int) -> CountLaw:
        return cls(np.zeros((1, width), dtype=np.int64), np.ones(1))

    def __len__(self) -> int:
        return len(self.probs)

    def scaled(self, weight: float) -> CountLaw:
        return CountLaw(self.counts, weight * self.probs)

    def convolve(self, other: CountLaw) -> CountLaw:
        lo_a, lo_b = self.counts.min(axis=0), other.counts.min(axis=0)
        span = self.counts.max(axis=0) - lo_a + other.counts.max(axis=0) - lo_b + 1
        strides = _strides(span)
        codes = np.add.outer((self.counts - lo_a) @ strides, (other.counts - lo_b) @ strides)
        uniq, first, inv = np.unique(codes.ravel(), return_index=True, return_inverse=True)
        probs = np.bincount(
            inv, weights=np.multiply.outer(self.probs, other.probs).ravel(), minlength=len(uniq)
        )
        rows, cols = np.divmod(first, len(other))
        return CountLaw(self.counts[rows] + other.counts[cols], probs)

    def power(self, times: int) -> CountLaw:
        out = CountLaw.zero(self.counts.shape[1])
        for _ in range(times):
            out = out.convolve(self)
        return out

    def __add__(self, other: CountLaw) -> CountLaw:
        counts, pa, pb = union(self, other)
        return CountLaw(counts, pa + pb)

    def as_dict(self) -> dict:
        return dict(zip(map(tuple, self.counts.tolist()), self.probs.tolist()))

    def push(self, analyzer) -> dict:
        return _push(zip(self.counts, self.probs.tolist()), analyzer)


def union(a: CountLaw, b: CountLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = np.concatenate([a.counts, b.counts])
    lo = counts.min(axis=0)
    codes = (counts - lo) @ _strides(counts.max(axis=0) - lo + 1)
    uniq, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    return (
        counts[first],
        np.bincount(inv[: len(a)], weights=a.probs, minlength=len(uniq)),
        np.bincount(inv[len(a):], weights=b.probs, minlength=len(uniq)),
    )


def shuffle_law(randomizer, users) -> CountLaw:
    width = len(randomizer.alphabet)
    law = CountLaw.zero(width)
    for user in users:
        kernel = (
            randomizer_kernel_for(randomizer, user)
            if isinstance(user, dict)
            else randomizer.kernel(user)
        )
        law = law.convolve(CountLaw.of(kernel, width))
    return law


def pad_law(wrapper) -> CountLaw:
    width = len(wrapper.protocol.randomizer.alphabet)
    return CountLaw.of(wrapper._reference_kernel, width).power(wrapper.stream_len)


def wrapper_law(wrapper, input_dist: dict) -> CountLaw:
    """The wrapper's count law before the analyzer, in Horner form, strides fixed per product."""
    rz = wrapper.protocol.randomizer
    width = len(rz.alphabet)
    real = CountLaw.of(randomizer_kernel_for(rz, input_dist), width)
    ref = CountLaw.of(wrapper._reference_kernel, width)
    budget_law = wrapper.budget_distribution
    real_power = CountLaw.zero(width)
    mixed = real_power.scaled(budget_law[0])
    for b in range(1, wrapper.stream_len + 1):
        real_power = real_power.convolve(real)
        mixed = mixed.convolve(ref) + real_power.scaled(budget_law[b])
    for _ in range(wrapper.n - wrapper.stream_len):
        mixed = mixed.convolve(ref)
    return mixed


def wrapper_output_kernel(wrapper, state) -> dict:
    pad = pad_law(wrapper)
    return CountLaw(pad.counts + np.asarray(state[1]), pad.probs).push(wrapper.protocol.analyzer)
