"""Distributions over sign vectors, including the parity-tilted hard families.

Domain conventions
------------------
Points live on the hypercube ``{-1,+1}^dim`` and are represented as int8 arrays
(rows of shape ``(dim,)``, matrices of shape ``(n, dim)``). Dense pmfs index the
hypercube lexicographically with ``+1`` before ``-1``: coordinate 1 is the most
significant position, and a point maps to the integer whose bit ``dim - j`` is 0
when ``x_j = +1`` and 1 when ``x_j = -1``. Index 0 is the all ``+1`` point.

Two parametric families are provided, both mixing to the uniform distribution
when enumerated over all index sets of bounded size with both signs:

* ``family="plain"``: over ``{-1,+1}^d``, the probability of ``x`` is
  ``(1 + bias * prod_{j in subset} x_j) / 2^d`` with ``bias = 2 * alpha * sign``,
  so each point has mass ``(1 +- 2*alpha) * 2^-d``. The subset must be nonempty.
* ``family="labeled"``: over ``{-1,+1}^(d+1)``, the tilt applies to the product
  of the subset coordinates and the final coordinate (a label). The subset may
  be empty, in which case only the label is biased.

``family_enumerate`` emits, for width bound ``k``, every subset of ``{1..d}``
with ``1 <= |subset| <= k`` (plain) or ``0 <= |subset| <= k`` (labeled), each
with both signs. The two families therefore have different member counts,
``2 * C(d,<=k)`` versus ``2 * C(d,<=k) + 2`` where ``C(d,<=k)`` sums binomials
from size 1 to ``k``; the labeled family's two extra members are the empty-set
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from .errors import GuardError, _read_keys
from .rng import as_generator

DENSIFY_MAX_DIM = 20

__all__ = [
    "ParityIndex",
    "FiniteDistribution",
    "ParametricHardDistribution",
    "pmf_eval",
    "sample",
    "densify",
    "family_enumerate",
    "family_size",
    "fourier_spectrum",
    "binom_sum",
    "uniform_hypercube",
    "index_to_vectors",
    "vectors_to_index",
    "subset_mask",
    "parity_values",
    "member_descriptor",
    "from_descriptor",
]


def binom_sum(d: int, k: int) -> int:
    """Number of nonempty subsets of {1..d} with size at most k."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    return sum(math.comb(d, j) for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# index <-> vector encoding and parity helpers


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values)


def index_to_vectors(indices: np.ndarray | int, dim: int) -> np.ndarray:
    """Dense indices -> sign vectors (bit 0 -> +1), MSB = coordinate 1."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    shifts = np.arange(dim - 1, -1, -1, dtype=np.int64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def vectors_to_index(x: np.ndarray) -> np.ndarray:
    """Sign vectors -> dense indices (inverse of index_to_vectors)."""
    x = np.atleast_2d(np.asarray(x))
    dim = x.shape[1]
    bits = (1 - x.astype(np.int64)) // 2
    shifts = np.arange(dim - 1, -1, -1, dtype=np.int64)
    return (bits << shifts[None, :]).sum(axis=1)


def subset_mask(subset: Sequence[int], dim: int) -> int:
    """Bit mask whose set bits mark the subset's coordinates in index space."""
    mask = 0
    for j in subset:
        if not 1 <= j <= dim:
            raise ValueError(f"coordinate {j} outside [1, {dim}]")
        mask |= 1 << (dim - j)
    return mask


def parity_values(subset: Sequence[int], dim: int) -> np.ndarray:
    """chi_subset evaluated on every point, as a +-1 vector over dense indices."""
    idx = np.arange(1 << dim, dtype=np.uint32)
    mask = np.uint32(subset_mask(subset, dim))
    return (1 - 2 * (_popcount(idx & mask) & 1)).astype(np.int8)


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class ParityIndex:
    """An index-set/sign pair naming one family member.

    ``subset`` holds 1-based coordinates, strictly increasing; ``sign`` is +-1.
    """

    subset: tuple[int, ...]
    sign: int

    def __post_init__(self):
        subset = tuple(int(j) for j in self.subset)
        object.__setattr__(self, "subset", subset)
        if list(subset) != sorted(set(subset)):
            raise ValueError(f"subset must be strictly increasing, got {subset}")
        if subset and subset[0] < 1:
            raise ValueError("coordinates are 1-based")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    @property
    def width(self) -> int:
        return len(self.subset)

    def check_within(self, d: int) -> None:
        """Refuse a dimension ``d`` below 1 or a coordinate above it."""
        if d < 1:
            raise ValueError("d must be positive")
        if self.subset and self.subset[-1] > d:
            raise ValueError(f"subset {self.subset} has coordinates outside [1, {d}]")


@dataclass(frozen=True)
class FiniteDistribution:
    """Dense pmf over the sign hypercube ``{-1,+1}^dim`` in the documented index order."""

    probs: np.ndarray
    dim: int

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if np.any(probs < -1e-15):
            raise ValueError("probabilities must be nonnegative")
        np.clip(probs, 0.0, None, out=probs)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        probs /= total
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if 1 << self.dim != probs.size:
            raise ValueError(f"dim={self.dim} implies {1 << self.dim} outcomes, got {probs.size}")

    @property
    def size(self) -> int:
        return int(self.probs.size)


def uniform_hypercube(dim: int) -> FiniteDistribution:
    if not 1 <= dim <= DENSIFY_MAX_DIM:
        raise GuardError(f"dim must be in [1, {DENSIFY_MAX_DIM}], got {dim}")
    m = 1 << dim
    return FiniteDistribution(np.full(m, 1.0 / m), dim=dim)


@dataclass(frozen=True)
class ParametricHardDistribution:
    """One member of a parity-tilted family (see module docstring).

    ``alpha`` must lie in the open interval (0, 1/2); the degenerate endpoints
    (alpha = 0, the uniform distribution, and alpha = 1/2, a deterministic
    parity) are rejected.
    """

    d: int
    index: ParityIndex
    alpha: float
    family: str = "plain"

    def __post_init__(self):
        if self.family not in ("plain", "labeled"):
            raise ValueError(f"family must be 'plain' or 'labeled', got {self.family!r}")
        self.index.check_within(self.d)
        if self.family == "plain" and not self.index.subset:
            raise ValueError("plain-family members need a nonempty subset")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def dim(self) -> int:
        """Dimension of the sample space (d, plus the label for 'labeled')."""
        return self.d + (1 if self.family == "labeled" else 0)

    @property
    def tilted_subset(self) -> tuple[int, ...]:
        """Coordinates whose product carries the tilt (label included)."""
        if self.family == "labeled":
            return self.index.subset + (self.d + 1,)
        return self.index.subset

    @property
    def bias(self) -> float:
        """Coefficient of the tilt: pmf(x) = (1 + bias * parity(x)) / 2^dim."""
        return 2.0 * self.alpha * self.index.sign

    def parity_mean(self, subset: Sequence[int]) -> float:
        """Exact E[prod_{j in subset} x_j]; bias on the tilted set, else 0."""
        s = tuple(sorted(set(int(j) for j in subset)))
        if s == self.tilted_subset:
            return self.bias
        return 0.0 if s else 1.0


Distribution = Union[FiniteDistribution, ParametricHardDistribution]


# ---------------------------------------------------------------------------
# operations


def pmf_eval(dist: Distribution, x: np.ndarray) -> np.ndarray | float:
    """Probability mass at each row of ``x`` (a vector gives a scalar)."""
    arr = np.asarray(x)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if not np.isin(rows, (-1, 1)).all():
        raise ValueError("entries must be +-1 signs")
    dim = dist.dim
    if rows.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {rows.shape[1]}")
    if isinstance(dist, ParametricHardDistribution):
        cols = [j - 1 for j in dist.tilted_subset]
        par = rows[:, cols].prod(axis=1)
        out = (1.0 + dist.bias * par) / float(1 << dim)
    else:
        out = dist.probs[vectors_to_index(rows)]
    return float(out[0]) if single else out


def sample(dist: Distribution, n: int, rng) -> np.ndarray:
    """Draw ``n`` points as the rows of an int8 matrix of +-1 signs.

    Hard-family members are sampled without densifying: all coordinates are
    drawn uniformly (one int8 ``integers`` call), a target parity sign is drawn
    with probability ``1/2 + alpha`` of matching the member's sign (one
    ``random`` call), and the largest tilted coordinate is overwritten to
    realize it. The matrix is built in place in the drawn int8 array, and the
    tilted coordinate is the int8 product of the target sign and the other
    tilted coordinates, with no wider temporaries. Cost O(n * dim) at any
    dimension.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gen = as_generator(rng)
    if isinstance(dist, ParametricHardDistribution):
        x = gen.integers(0, 2, size=(n, dist.dim), dtype=np.int8)
        x *= 2
        x -= 1
        sign = np.int8(dist.index.sign)
        s = np.where(gen.random(n) < 0.5 + dist.alpha, sign, -sign)
        *rest, pivot = dist.tilted_subset
        for j in rest:
            s *= x[:, j - 1]
        x[:, pivot - 1] = s
        return x
    if isinstance(dist, FiniteDistribution):
        return index_to_vectors(gen.choice(dist.size, size=n, p=dist.probs), dist.dim)
    raise TypeError(f"not a distribution: {type(dist).__name__}")


def densify(dist: Distribution) -> FiniteDistribution:
    """Materialize the full pmf vector (guarded at dim <= 20)."""
    dim = dist.dim
    if dim > DENSIFY_MAX_DIM:
        raise GuardError(f"densify guarded at dim <= {DENSIFY_MAX_DIM}, got {dim}")
    if isinstance(dist, FiniteDistribution):
        return dist
    chi = parity_values(dist.tilted_subset, dim).astype(np.float64)
    return FiniteDistribution((1.0 + dist.bias * chi) / float(1 << dim), dim=dim)


def family_size(d: int, k: int, family: str = "plain") -> int:
    base = 2 * binom_sum(d, k)
    return base + 2 if family == "labeled" else base


def family_enumerate(
    d: int, k: int, alpha: float, family: str = "plain"
) -> list[ParametricHardDistribution]:
    """All family members with subset width <= k, in a fixed order.

    Subsets are listed by (size, lexicographic) starting at size 1 for the
    plain family and size 0 for the labeled one (whose two extra members tilt
    the bare label); each subset appears with sign +1 then -1. The resulting
    lengths are ``2 * C(d,<=k)`` and ``2 * C(d,<=k) + 2`` respectively.
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    sizes = range(0 if family == "labeled" else 1, k + 1)
    members = []
    for size in sizes:
        for subset in combinations(range(1, d + 1), size):
            for sign in (1, -1):
                members.append(
                    ParametricHardDistribution(
                        d=d, index=ParityIndex(subset, sign), alpha=alpha, family=family
                    )
                )
    assert len(members) == family_size(d, k, family)
    return members


def fourier_spectrum(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh transform: W[mask] = sum_x v[x] * chi_mask(x).

    Applied to a pmf this returns every parity expectation at once, indexed by
    the subset's bit mask (see :func:`subset_mask`).
    """
    v = np.asarray(values, dtype=np.float64).copy()
    m = v.size
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < m:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :] + v[:, 1, :]
        b = v[:, 0, :] - v[:, 1, :]
        v = np.stack([a, b], axis=1).reshape(-1)
        h *= 2
    return v


# ---------------------------------------------------------------------------
# serialization


def member_descriptor(dist: ParametricHardDistribution, k: int | None = None) -> dict:
    return {
        "family": dist.family,
        "d": dist.d,
        "k": k,
        "ell": list(dist.index.subset),
        "b": dist.index.sign,
        "alpha": dist.alpha,
    }


_FAMILY = (("plain", "labeled"), "plain")

# descriptor shape -> its keys as (wanted type, default); ``...`` marks a required key
_DESCRIPTORS = {
    "uniform": {"family": (("uniform",), ...), "d": (int, ...)},
    "family": {"family": _FAMILY, "d": (int, ...), "k": (int, ...), "alpha": (float, ...)},
    "member": {"family": _FAMILY, "d": (int, ...), "k": (int, None), "ell": (list[int], ...),
               "b": (int, ...), "alpha": (float, ...)},
}


def from_descriptor(desc: dict):
    """Rebuild a member (ell present) or a family list (ell absent) from a descriptor.

    ``family: "uniform"`` names the uniform hypercube on ``d`` coordinates. A
    missing (or null) key the shape needs, a key it does not take or a value of
    the wrong JSON type raises ``ValueError`` naming the key.
    """
    get = desc.get if isinstance(desc, dict) else {}.get  # the reader names a non-object
    shape = ("uniform" if get("family") == "uniform"
             else "family" if get("ell") is None else "member")
    v = _read_keys("descriptor", desc, _DESCRIPTORS[shape])
    if shape == "uniform":
        return uniform_hypercube(v["d"])
    if shape == "family":
        return family_enumerate(v["d"], v["k"], v["alpha"], v["family"])
    return ParametricHardDistribution(
        d=v["d"], index=ParityIndex(tuple(v["ell"]), v["b"]), alpha=v["alpha"], family=v["family"],
    )
