"""The exact audit of a whole release of d shuffled randomized-response counts.

Each coordinate's 1-count is shuffled alone, so a neighbor pair of the release
is a product over coordinates. With k ones among the other m = n - 1 users in
a coordinate, those users' count law is ``R_k = Bin(k, 1-p) * Bin(m-k, p)``;
the differing user's input 0 adds a 1 with probability p (``Z_k``), input 1
with probability 1 - p (``O_k``). A coordinate contributes the pair (Z_k, O_k),
its mirror (O_k, Z_k), or, where the two inputs agree, (Z_k, Z_k) or (O_k,
O_k). Every multiset of d such pairs is audited in both directions; the order
of the coordinates does not move the gap.
"""

from itertools import combinations_with_replacement, islice

import numpy as np

from panshuffle.baselines import _binomial_rows
from panshuffle.exact import _check_paths
from panshuffle.metrics import _hockey

_CHUNK = 256  # products audited per block


def coordinate_pairs(n: int, flip_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The 4n pairs one coordinate can contribute, as two (4n, n + 1) arrays."""
    rows = _binomial_rows(n - 1, flip_p)
    left, right = [], []
    for k in range(n):
        same = np.convolve(rows[k, k::-1], rows[n - 1 - k, : n - k])
        unshifted, shifted = np.append(same, 0.0), np.insert(same, 0, 0.0)
        zero = (1.0 - flip_p) * unshifted + flip_p * shifted
        one = flip_p * unshifted + (1.0 - flip_p) * shifted
        left += [zero, one, zero, one]
        right += [one, zero, zero, one]
    return np.array(left), np.array(right)


def release_audit_delta(n: int, flip_p: float, epsilons, d: int) -> np.ndarray:
    """The worst hockey-stick gap at each epsilon, either direction, over every neighbor pair
    of the d-coordinate release."""
    _check_paths(n ** d * (n + 1) ** d, f"release audit (n={n}, d={d})", "; reduce n or d")
    left, right = coordinate_pairs(n, flip_p)
    combos = combinations_with_replacement(range(len(left)), d)
    worst = np.zeros(len(epsilons))
    while block := list(islice(combos, _CHUNK)):
        block = np.array(block)
        a, b = left[block[:, 0]], right[block[:, 0]]
        for j in range(1, d):
            a = (a[:, :, None] * left[block[:, j]][:, None, :]).reshape(len(block), -1)
            b = (b[:, :, None] * right[block[:, j]][:, None, :]).reshape(len(block), -1)
        worst = np.maximum(worst, _hockey(a, b, epsilons).max(axis=(0, 1)))
    return worst
