"""Reference dict walks for cohort laws, the randomized-response audit and the wrapper law.

These are the pair-by-pair convolutions and the per-neighbour binomial pmfs
the array code in ``panshuffle.exact``, ``panshuffle.baselines`` and
``panshuffle.reductions`` replaced. They are slow, but every probability is
an explicit sum of products (binomial terms come from ``math.comb``); tests
compare the arrays against them to 1e-12.
"""

import math

import numpy as np

from panshuffle.exact import randomizer_kernel_for
from panshuffle.metrics import hockey_stick


def convolve_counts(d1: dict, d2: dict) -> dict:
    out: dict = {}
    for c1, p1 in d1.items():
        for c2, p2 in d2.items():
            key = tuple(a + b for a, b in zip(c1, c2))
            out[key] = out.get(key, 0.0) + p1 * p2
    return out


def repeat_convolve(kernel: dict, times: int, width: int) -> dict:
    acc = {tuple([0] * width): 1.0}
    for _ in range(times):
        acc = convolve_counts(acc, kernel)
    return acc


def shuffle_counts(randomizer, users) -> dict:
    acc = {tuple([0] * len(randomizer.alphabet)): 1.0}
    for user in users:
        kernel = (
            randomizer_kernel_for(randomizer, user)
            if isinstance(user, dict)
            else randomizer.kernel(user)
        )
        acc = convolve_counts(acc, kernel)
    return acc


def rr_count_pmf(n_ones: int, n_zeros: int, flip_p: float) -> np.ndarray:
    a = np.zeros(n_ones + 1)
    for k in range(n_ones + 1):
        a[k] = math.comb(n_ones, k) * (1 - flip_p) ** k * flip_p ** (n_ones - k)
    b = np.zeros(n_zeros + 1)
    for k in range(n_zeros + 1):
        b[k] = math.comb(n_zeros, k) * flip_p**k * (1 - flip_p) ** (n_zeros - k)
    return np.convolve(a, b)


def rr_audit_delta(n: int, flip_p: float, epsilon: float) -> float:
    worst = 0.0
    for k in range(n):
        p = rr_count_pmf(k, n - k, flip_p)
        q = rr_count_pmf(k + 1, n - k - 1, flip_p)
        worst = max(worst, hockey_stick(p, q, epsilon), hockey_stick(q, p, epsilon))
    return worst


def calibrated_flip(epsilon: float, delta: float, n: int) -> float:
    """The exact-audit bisection of ``calibrate_rr`` on the oracle audit."""
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rr_audit_delta(n, mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def wrapper_output_law(wrapper, input_dist: dict) -> dict:
    """The wrapper's output law, one convolution and one analyzer sweep per budget."""
    protocol = wrapper.protocol
    width = len(protocol.randomizer.alphabet)
    real_kernel = randomizer_kernel_for(protocol.randomizer, input_dist)
    ref_kernel = randomizer_kernel_for(protocol.randomizer, wrapper.reference)
    n, cap = wrapper.n, wrapper.stream_len
    real_parts = [{tuple([0] * width): 1.0}]
    for _ in range(cap):
        real_parts.append(convolve_counts(real_parts[-1], real_kernel))
    # reference part for budget b has n - b draws; walk b downward
    ref_part = repeat_convolve(ref_kernel, n - cap, width)
    budget_law = wrapper.budget_distribution
    out: dict = {}
    for b in range(cap, -1, -1):
        counts_dist = convolve_counts(real_parts[b], ref_part)
        pb = budget_law[b]
        for counts, pc in counts_dist.items():
            val = protocol.analyzer(np.asarray(counts))
            out[val] = out.get(val, 0.0) + pb * pc
        if b > 0:
            ref_part = convolve_counts(ref_part, ref_kernel)
    return out


def wrapper_output_kernel(wrapper, state) -> dict:
    """The wrapper's output kernel: the state's counts plus n/3 padded reference messages."""
    _, counts = state
    protocol = wrapper.protocol
    kernel = randomizer_kernel_for(protocol.randomizer, wrapper.reference)
    pad = repeat_convolve(kernel, wrapper.stream_len, len(protocol.randomizer.alphabet))
    out: dict = {}
    for inc, p in pad.items():
        total = tuple(a + b for a, b in zip(counts, inc))
        val = protocol.analyzer(np.asarray(total))
        out[val] = out.get(val, 0.0) + p
    return out
