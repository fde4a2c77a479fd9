"""Closed-form expecteds for the (infinity -> 2) norm of the hard families.

Derivation, independent of the package code. Write C = sum_{j=1}^{k} C(d, j)
for the number of admissible nonempty index sets. A member tilts exactly one
parity by +-2*alpha, so for a test function f with Walsh coefficients
fhat(S) = E_U[f * chi_S]:

    E_{P_{ell,b}} f - E_U f = 2 * alpha * b * fhat(ell).

Both signs of b appear with equal weight, so the family average of the squared
gap is

    (1 / 2C) * sum_ell 2 * (2 alpha fhat(ell))^2
        = (4 alpha^2 / C) * sum_ell fhat(ell)^2.

For a +-1-valued f Parseval gives sum over ALL subsets fhat(S)^2 = 1, hence
the objective is at most 4 alpha^2 / C, attained exactly when f concentrates
its spectrum on a single admissible character. The label-augmented family has
C + 1 index classes (the label-only member joins in), so its exact supremum is
4 alpha^2 / (C + 1): strictly below the 4 alpha^2 / C envelope, which is the
stated bound for both families.

The FROZEN tables below were computed from these formulas before the package's
brute-force enumerator existed; tests assert the enumerator agrees with them
rather than with itself.

``matmul_norm`` is the enumeration the package used before its half-cube
butterfly: every one of the 2^m +-1 functions scored by one matrix product per
block of 2^13 functions. The package must match it bit for bit.
"""

import math

import numpy as np

from panshuffle.metrics import _character_witness


def subset_count(d: int, k: int) -> int:
    return sum(math.comb(d, j) for j in range(1, k + 1))


def plain_norm_sq(d: int, k: int, alpha: float) -> float:
    return 4.0 * alpha * alpha / subset_count(d, k)


def labeled_norm_sq(d: int, k: int, alpha: float) -> float:
    return 4.0 * alpha * alpha / (subset_count(d, k) + 1)


def envelope_sq(d: int, k: int, alpha: float) -> float:
    """The stated bound 4 alpha^2 / C, shared by both families."""
    return plain_norm_sq(d, k, alpha)


# (d, k, alpha) -> exact supremum of the brute-force objective, plain family.
FROZEN_PLAIN = {
    (2, 1, 0.1): 0.02,
    (2, 1, 0.25): 0.125,
    (3, 1, 0.1): 0.013333333333333334,
    (3, 1, 0.25): 0.08333333333333333,
    (3, 2, 0.1): 0.006666666666666667,
    (3, 2, 0.25): 0.041666666666666664,
    (4, 1, 0.1): 0.01,
    (4, 1, 0.25): 0.0625,
    (4, 2, 0.1): 0.004,
    (4, 2, 0.25): 0.025,
}

# (d, k, alpha) -> exact supremum, label-augmented family.
FROZEN_LABELED = {
    (2, 1, 0.1): 0.013333333333333334,
    (3, 1, 0.1): 0.01,
}


def matmul_norm(family, reference=None):
    """(value_sq, witness) of the full-cube matmul enumeration, lowest index on ties."""
    pmat = np.stack([np.asarray(getattr(p, "probs", p), dtype=np.float64) for p in family])
    m = pmat.shape[1]
    ref = pmat.mean(axis=0) if reference is None else np.asarray(reference, dtype=np.float64)
    diff = pmat - ref[None, :]
    best_val, best_idx = -1.0, -1
    positions = np.arange(m, dtype=np.int64)
    chunk = 1 << 13
    for start in range(0, 1 << m, chunk):
        idx = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
        # function j maps point x to +1 iff bit x of j is 0
        funcs = (1 - 2 * ((idx[:, None] >> positions[None, :]) & 1)).astype(np.float64)
        gaps = diff @ funcs.T
        vals = np.mean(gaps * gaps, axis=0)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val, best_idx = float(vals[pos]), start + pos
    witness = (1 - 2 * ((best_idx >> positions) & 1)).astype(np.int8)
    char = _character_witness(diff, m, best_val)
    return best_val, witness if char is None else char
