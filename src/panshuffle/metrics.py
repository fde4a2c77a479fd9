"""Information-theoretic distances and the brute-force test-function norm.

All divergences use natural logarithms. Inputs are dense probability vectors
or :class:`~panshuffle.distributions.FiniteDistribution` objects; joint
distributions are matrices or higher-dimensional arrays summing to 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .distributions import FiniteDistribution, binom_sum, parity_values
from .errors import GuardError

NORM_MAX_DOMAIN = 16
_BLOCK = 1 << 21  # float64 elements in one hockey-stick temporary
_NORM_CHUNK = 1 << 13  # test functions per block of the norm enumeration

__all__ = [
    "tv_distance",
    "kl_divergence",
    "pinsker_check",
    "JointDistribution",
    "mutual_information",
    "hockey_stick",
    "NormReport",
    "infty_to_2_norm_bruteforce",
    "parity_family_norm_bound_sq",
    "fact_tv_chain_check",
    "fact_markov_check",
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


def pinsker_check(p, q) -> bool:
    """tv(p,q)^2 <= KL(p||q)/2, up to 1e-12."""
    return tv_distance(p, q) ** 2 <= 0.5 * kl_divergence(p, q) + 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """A joint pmf over two finite variables, rows = first variable."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64).copy()
        if t.ndim != 2:
            raise ValueError("table must be 2-D")
        if np.any(t < -1e-15) or abs(t.sum() - 1.0) > 1e-9:
            raise ValueError("table must be a pmf (nonnegative, sums to 1)")
        np.clip(t, 0.0, None, out=t)
        t /= t.sum()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)


def _table(joint) -> np.ndarray:
    """The joint pmf of a JointDistribution or array-like as a float array."""
    return joint.table if isinstance(joint, JointDistribution) else np.asarray(joint, dtype=np.float64)


def mutual_information(joint) -> float:
    """I(A;B) in nats: KL of the joint table from the product of its marginals."""
    t = _table(joint)
    if t.ndim != 2:
        raise ValueError("joint must be 2-D")
    prod = t.sum(axis=1, keepdims=True) * t.sum(axis=0, keepdims=True)
    return kl_divergence(t.ravel(), prod.ravel())


def hockey_stick(p, q, eps: float) -> float:
    """The eps-divergence sum_x max(p(x) - e^eps q(x), 0); equals TV at eps=0."""
    a, b = _vec(p), _vec(q)
    if a.shape != b.shape:
        raise ValueError(f"domain mismatch: {a.shape} vs {b.shape}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return float(_hockey(a, b, [eps])[0])


def _hockey(a: np.ndarray, b: np.ndarray, eps) -> np.ndarray:
    """``sum(max(a - e^eps b, 0))`` over the last axis, one value per grid point.

    ``a`` and ``b`` of shape ``(..., m)`` give shape ``(..., len(eps))``.
    """
    scales = np.array([math.exp(e) for e in eps], dtype=np.float64)
    a, b = a[..., None, :], b[..., None, :]
    out = np.empty(a.shape[:-2] + (len(scales),))
    per = max(1, _BLOCK // max(1, a.size))
    for lo in range(0, len(scales), per):
        gap = a - scales[lo:lo + per, None] * b
        out[..., lo:lo + per] = np.clip(gap, 0.0, None).sum(axis=-1)
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
    so its supremum over [-1,1]-valued functions is attained at a +-1 vertex;
    all ``2^m`` vertices are enumerated (guarded at m <= 16). The reference
    defaults to the family's equal-weight mixture. Enumeration is chunked with
    a deterministic reduction: ties keep the lowest function index, except
    that when the domain is a hypercube (m a power of two) and some parity
    character co-attains the maximum, the witness is canonicalized to that
    character with sign +1 (smallest subset first, then lexicographic, as
    ``family_enumerate`` orders subsets). Maximizers are often non-unique and the characters are the
    structurally meaningful representatives.
    """
    rows = [_vec(p) for p in family]
    if not rows:
        raise ValueError("family must be nonempty")
    pmat = np.stack(rows)
    m = pmat.shape[1]
    if m > NORM_MAX_DOMAIN:
        raise GuardError(f"domain size {m} exceeds brute-force guard {NORM_MAX_DOMAIN}")
    ref = pmat.mean(axis=0) if reference is None else _vec(reference)
    if ref.shape != (m,):
        raise ValueError("reference has wrong domain size")
    diff = pmat - ref[None, :]

    best_val = -1.0
    best_idx = -1
    total = 1 << m
    positions = np.arange(m, dtype=np.int64)
    for start in range(0, total, _NORM_CHUNK):
        idx = np.arange(start, min(start + _NORM_CHUNK, total), dtype=np.int64)
        # function j maps point x to +1 iff bit x of j is 0
        bits = (idx[:, None] >> positions[None, :]) & 1
        funcs = (1 - 2 * bits).astype(np.float64)
        gaps = diff @ funcs.T
        vals = np.mean(gaps * gaps, axis=0)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_idx = start + pos
    bits = (best_idx >> positions) & 1
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


# ---------------------------------------------------------------------------
# supporting facts used by the hybrid argument


def fact_tv_chain_check(joint_ab, joint_ab_prime) -> bool:
    """Check tv((A,B),(A,B')) <= E_{a~A}[tv(B|a, B'|a)] + 1e-9 for shared-marginal joints."""
    t1, t2 = _table(joint_ab), _table(joint_ab_prime)
    if t1.shape != t2.shape:
        raise ValueError("joints must share a domain")
    r1, r2 = t1.sum(axis=1), t2.sum(axis=1)
    if np.abs(r1 - r2).max() > 1e-9:
        raise ValueError("first-variable marginals differ; the fact does not apply")
    lhs = tv_distance(t1, t2)
    rhs = 0.0
    for a in range(t1.shape[0]):
        if r1[a] <= 0:
            continue
        rhs += r1[a] * tv_distance(t1[a] / r1[a], t2[a] / r2[a])
    return lhs <= rhs + 1e-9


def fact_markov_check(joint_abc) -> bool:
    """For A ⟂ B | C: check tv(B|a, B) <= tv(C|a, C) + 1e-9 for every a in A's support.

    ``joint_abc`` is a 3-D pmf indexed (a, b, c). Raises ValueError when the
    conditional-independence precondition fails beyond 1e-12.
    """
    t = np.asarray(joint_abc, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError("joint must be 3-D, indexed (a, b, c)")
    if np.any(t < -1e-15) or abs(t.sum() - 1.0) > 1e-9:
        raise ValueError("joint must be a pmf")
    pc = t.sum(axis=(0, 1))
    pac = t.sum(axis=1)
    pbc = t.sum(axis=0)
    for c in range(t.shape[2]):
        if pc[c] <= 0:
            if np.abs(t[:, :, c]).max() > 1e-12:
                raise ValueError("mass on a zero-probability slice")
            continue
        recon = np.outer(pac[:, c], pbc[:, c]) / pc[c]
        if np.abs(t[:, :, c] - recon).max() > 1e-12:
            raise ValueError("A and B are not conditionally independent given C")
    pa = t.sum(axis=(1, 2))
    pb = t.sum(axis=(0, 2))
    pab = t.sum(axis=2)
    ok = True
    for a in range(t.shape[0]):
        if pa[a] <= 0:
            continue
        tv_b = tv_distance(pab[a] / pa[a], pb)
        tv_c = tv_distance(pac[a] / pa[a], pc)
        ok = ok and (tv_b <= tv_c + 1e-9)
    return ok
