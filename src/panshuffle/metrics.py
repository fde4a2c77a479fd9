"""Information-theoretic distances and the brute-force test-function norm.

All divergences use natural logarithms. Inputs are dense probability vectors
or :class:`~panshuffle.distributions.FiniteDistribution` objects; a joint
distribution is a matrix summing to 1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .distributions import FiniteDistribution, binom_sum, parity_values
from .errors import GuardError

NORM_MAX_DOMAIN = 16
_BLOCK = 1 << 21  # float64 elements in the one hockey-stick temporary, shared by both directions
_EPS_MAX = math.log(sys.float_info.max)  # the largest epsilon whose e^eps is a finite float64
# float64 gaps (members x test functions) per block of the norm enumeration, which
# sums each half-cube test's gaps by +-1 adds in point order, without BLAS
_NORM_CHUNK = 1 << 16

__all__ = [
    "tv_distance",
    "kl_divergence",
    "mutual_information",
    "hockey_stick",
    "NormReport",
    "infty_to_2_norm_bruteforce",
    "parity_family_norm_bound_sq",
]


def _vec(p) -> np.ndarray:
    if isinstance(p, FiniteDistribution):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def tv_distance(p, q) -> float:
    """Total variation distance, half the L1 gap between the pmfs."""
    a, b = _vec(p), _vec(q)
    if a.shape != b.shape:
        raise ValueError(f"domain mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; +inf when p puts mass outside q's support."""
    a, b = _vec(p), _vec(q)
    if a.shape != b.shape:
        raise ValueError(f"domain mismatch: {a.shape} vs {b.shape}")
    on = a > 0
    if np.any(b[on] <= 0):
        return math.inf
    val = float(np.sum(a[on] * np.log(a[on] / b[on])))
    return max(0.0, val)


def mutual_information(joint) -> float:
    """I(A;B) in nats: KL of the joint table from the product of its marginals."""
    t = np.asarray(joint, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("joint must be 2-D")
    prod = t.sum(axis=1, keepdims=True) * t.sum(axis=0, keepdims=True)
    return kl_divergence(t.ravel(), prod.ravel())


def hockey_stick(p, q, eps: float) -> float:
    """The eps-divergence sum_x max(p(x) - e^eps q(x), 0); equals TV at eps=0.

    An eps whose e^eps overflows float64 (above about 709.78) raises ``ValueError``.
    """
    a, b = _vec(p), _vec(q)
    if a.shape != b.shape:
        raise ValueError(f"domain mismatch: {a.shape} vs {b.shape}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return float(_hockey(a, b, [eps])[0, 0])


def _check_eps(eps) -> None:
    """Refuse an epsilon whose e^eps overflows float64, naming the largest one accepted."""
    big = [float(e) for e in eps if e > _EPS_MAX]
    if big:
        raise ValueError(f"e^eps overflows float64 at eps = {big[0]!r}; "
                         f"the largest eps accepted is {_EPS_MAX!r}")


def _hockey(a: np.ndarray, b: np.ndarray, eps) -> np.ndarray:
    """``sum(max(a - e^eps b, 0))`` and ``sum(max(b - e^eps a, 0))`` over the last axis.

    ``a`` and ``b`` of shape ``(..., m)`` give shape ``(2, ..., len(eps))``: the
    forward values, then the backward ones. Grid points go in blocks of at most
    ``_BLOCK`` gaps, each computed in place in one temporary that both
    directions share.
    """
    _check_eps(eps)
    scales = np.array([math.exp(e) for e in eps], dtype=np.float64)
    a, b = a[..., None, :], b[..., None, :]
    out = np.empty((2,) + a.shape[:-2] + (len(scales),))
    per = max(1, _BLOCK // max(1, a.size))
    scratch = np.empty(a.size * min(per, len(scales)))
    for lo in range(0, len(scales), per):
        s = scales[lo:lo + per, None]
        gap = scratch[:a.size * len(s)].reshape(a.shape[:-2] + (len(s), a.shape[-1]))
        for direction, (x, y) in enumerate(((a, b), (b, a))):
            np.subtract(x, np.multiply(s, y, out=gap), out=gap)
            out[direction, ..., lo:lo + per] = np.clip(gap, 0.0, None, out=gap).sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# sup over test functions of the family's mean-squared deviation


@dataclass(frozen=True)
class NormReport:
    """Result of the brute-force norm: squared value, optional bound, witness.

    ``witness`` is the +-1 test function attaining the maximum (lowest function
    index on ties). ``value_sq`` is the mean over family members of the squared
    gap between the member's and the reference's expectation of the witness.
    """

    value_sq: float
    bound_sq: float | None
    witness: np.ndarray

    @property
    def value(self) -> float:
        return math.sqrt(self.value_sq)

    def to_json(self) -> str:
        bits = [int((1 - int(w)) // 2) for w in self.witness]
        return json.dumps(
            {"value_sq": self.value_sq, "bound_sq": self.bound_sq, "witness_bits": bits}
        )


def parity_family_norm_bound_sq(d: int, k: int, alpha: float) -> float:
    """Closed-form upper bound 4*alpha^2 / C(d,<=k) for both tilted families."""
    return 4.0 * alpha * alpha / binom_sum(d, k)


def infty_to_2_norm_bruteforce(
    family: Sequence, reference=None, bound_sq: float | None = None
) -> NormReport:
    """Exact sup over +-1-valued test functions by vertex enumeration.

    The objective ``E_v[(E_{P_v} f - E_ref f)^2]`` is a convex quadratic in f,
    so its supremum over [-1,1]-valued functions is attained at a +-1 vertex
    (guarded at 1 <= m <= 16). Function j maps point x to +1 iff bit x of j is
    0. Since f and -f have the same squared gaps, only the ``2^(m-1)``
    functions with bit m - 1 clear are scored, and the lowest-index maximizer
    always lies among them. Each function's gap vector is summed without BLAS,
    adding ``+-diff[:, x]`` for x = 0, 1, ..., m - 1 in that order: a sign
    butterfly over a block's low bits, then one add per higher bit. Blocks of
    about ``_NORM_CHUNK`` gaps are reduced deterministically, and ties keep the
    lowest function index, except that when the domain is a hypercube (m a
    power of two) and some parity character co-attains the maximum, the
    witness is canonicalized to that character with sign +1 (smallest subset
    first, then lexicographic, as ``family_enumerate`` orders subsets).
    Maximizers are often non-unique and the characters are the structurally
    meaningful representatives.
    """
    rows = [_vec(p) for p in family]
    if not rows:
        raise ValueError("family must be nonempty")
    pmat = np.stack(rows)
    members, m = pmat.shape
    if m > NORM_MAX_DOMAIN:
        raise GuardError(f"domain size {m} exceeds brute-force guard {NORM_MAX_DOMAIN}")
    if m < 1:
        raise ValueError(f"domain size {m}: the norm needs at least one point")
    ref = pmat.mean(axis=0) if reference is None else _vec(reference)
    if ref.shape != (m,):
        raise ValueError("reference has wrong domain size")
    diff = pmat - ref[None, :]

    # gaps of every sign pattern on the low bits, built by one butterfly
    low = min(m - 1, max(0, (_NORM_CHUNK // members).bit_length() - 1))
    partial = np.zeros((members, 1 << low))
    for x in range(low):
        w = 1 << x
        partial[:, w:2 * w] = partial[:, :w] - diff[:, x, None]
        partial[:, :w] += diff[:, x, None]
    best_val = -1.0
    best_idx = -1
    gaps = np.empty_like(partial)
    for high in range(1 << (m - 1 - low)):
        gaps[:] = partial
        for x in range(low, m):
            if (high >> (x - low)) & 1:
                gaps -= diff[:, x, None]
            else:
                gaps += diff[:, x, None]
        vals = np.mean(np.multiply(gaps, gaps, out=gaps), axis=0)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_idx = (high << low) + pos
    bits = (best_idx >> np.arange(m, dtype=np.int64)) & 1
    witness = (1 - 2 * bits).astype(np.int8)
    char = _character_witness(diff, m, best_val)
    if char is not None:
        witness = char
    return NormReport(value_sq=best_val, bound_sq=bound_sq, witness=witness)


def _character_witness(diff: np.ndarray, m: int, best_val: float,
                       tol: float = 1e-12) -> np.ndarray | None:
    """First signed parity character co-attaining the brute-force maximum.

    Candidate order: subset size, then lexicographic subset, the order of
    :func:`~panshuffle.distributions.family_enumerate`. Only the +1 sign is
    tried, since -chi has the same squared gaps as chi. Returns None when m is
    not a power of two or no character comes within ``tol`` of ``best_val``.
    """
    q = m.bit_length() - 1
    if (1 << q) != m:
        return None
    for size in range(q + 1):
        for subset in combinations(range(1, q + 1), size):
            char = parity_values(subset, q)
            gaps = diff @ char.astype(np.float64)
            if float(np.mean(gaps * gaps)) >= best_val - tol:
                return char
    return None
