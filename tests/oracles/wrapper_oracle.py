"""Closed-form expecteds for the online-wrapper dilution analysis.

The wrapper's escape event is a Bin(n, 2/9) count exceeding n/3, so the exact
escape mass is the upper binomial tail. For the point-mass echo protocol with
a threshold analyzer the end-to-end TV against the diluted product equals this
tail exactly (the wrapper's thresholded count can never exceed n/3, while the
honest run crosses it exactly on the escape event), which makes the echo
protocol a worst case and the frozen tails double as exact TV values.

For a product of Bernoulli(w) inputs pushed through the asymmetric binary
channel P(1|1) = p11, P(1|0) = p10, the shuffled one-count is
Bin(n, w * p11 + (1 - w) * p10): the per-user marginals are iid Bernoulli and
the count is their sum. Tests use this to check the exact propagation engine
against scipy rather than against the engine itself.

:func:`step_loop_algorithm` samples the wrapper one message at a time: the
preload at initialization, one message per stream element, the pad at the
output, each batch drawing its reference picks before its message uniforms.
Tests require ``ShuffleToPanWrapper.sample_view`` to give the same views and
leave the generator at the same word.
"""

import numpy as np
from scipy.stats import binom

from panshuffle.mechanisms import PanPrivateAlgorithm


def escape_tail(n: int) -> float:
    if n % 3 != 0:
        raise ValueError("n must be divisible by 3")
    return float(binom.sf(n // 3, n, 2.0 / 9.0))


def count_pmf(n: int, w: float, p11: float, p10: float, k: int) -> float:
    rate = w * p11 + (1.0 - w) * p10
    return float(binom.pmf(k, n, rate))


# n -> exact escape tail P[Bin(n, 2/9) > n/3].
FROZEN_ESCAPE = {
    6: 0.12804431724311824,
    30: 0.051710883674331624,
    60: 0.016270644751715916,
    120: 0.001831820729272615,
    240: 2.834602687982507e-05,
}


def _emit_reference(wrapper, size: int, rng) -> np.ndarray:
    """Count matrix of ``size`` users drawn from the reference law."""
    keys, cdf = wrapper._reference_draw
    picks = cdf.searchsorted(rng.random(size), side="right")
    return wrapper.protocol.randomizer.emit_batch([keys[i] for i in picks], rng)


def step_loop_algorithm(wrapper) -> PanPrivateAlgorithm:
    """The ``wrapper`` as a ``view_sample`` that steps through its messages one at a time."""

    def init_sample(rng):
        budget = wrapper.sample_budget(rng)
        preload = _emit_reference(wrapper, wrapper.stream_len, rng)
        return (budget, tuple(preload.sum(axis=0).tolist()))

    def update_sample(i: int, x, state, rng):
        budget, counts = state
        if i <= budget:
            inc = wrapper.protocol.randomizer.emit_batch([x], rng)[0]
        else:
            inc = _emit_reference(wrapper, 1, rng)[0]
        return (budget, tuple(a + int(b) for a, b in zip(counts, inc)))

    def output_sample(state, rng):
        _, counts = state
        pad = _emit_reference(wrapper, wrapper.stream_len, rng).sum(axis=0)
        return wrapper.protocol.analyzer(np.asarray(counts) + pad)

    def view_sample(stream, t, rng):
        state, seen = init_sample(rng), None
        for i, x in enumerate(stream, start=1):
            state = update_sample(i, x, state, rng)
            if i == t:
                seen = state
        return seen, output_sample(state, rng)

    return PanPrivateAlgorithm(name="shuffle-to-pan-steps", view_sample=view_sample)
