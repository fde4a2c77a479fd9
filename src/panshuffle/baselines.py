"""Reference estimators and problem solvers across the four trust models.

The estimators all reduce to means of +-1 feature values:

* ``empirical_means`` is the noiseless path, computed from integer sums so two
  callers on the same samples produce bit-identical floats;
* ``private_means`` estimates the same means under one of the four trust
  models, which differ only in the noise they add. The ``_NOISE`` table is the
  one place each model's noise is set, for these means and for the selection
  sweeps of ``selection_success_fast`` alike: Laplace or Gaussian draws on the
  sign sums (central, pan), or a per-user randomized-response flip (local, and
  shuffle at the rate :func:`calibrate_rr` certifies for the cohort's whole
  release of d coordinates, by the privacy blanket composed over them).

Problem instances (selection, sparse mean estimation, parity release, simple
hypothesis testing, parity learning) share one pipeline: build the +-1 feature
matrix for the instance's candidate set, estimate feature means under the
instance's trust model, and apply a deterministic decision rule. With an
infinite budget every model collapses to ``empirical_means``, so decisions
then agree exactly with the plug-in solver - a property the tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .distributions import ParametricHardDistribution, from_descriptor, sample as draw_from
from .errors import GuardError
from .exact import _check_paths
from .metrics import _check_eps, _hockey
from .rng import as_generator, gaussian, laplace, make_generator

EXACT_AUDIT_MAX_N = 12
_AUDIT_ROWS = 64  # neighbor pairs per block of the randomized-response audit
_BLANKET_SD = 12  # standard deviations each window of the blanket bound spans
_LOG_PMF_RTOL = 1e-8  # relative error of a _log_binomial pmf within 10 sd, up to m = 10^5
_LOSS_STEP = 2e-4  # the grid each composed privacy loss is rounded up to
_COMPOSED_SD = 20  # sd of the composed loss each side of its mean that its FFT spans
_ULP = float(np.finfo(np.float64).eps)
_BOUND_RTOL = 1e-6  # a bound's bisection stops once its bracket is this narrow, relative to its top

__all__ = [
    "CalibratedRR",
    "calibrate_rr",
    "rr_count_pmf",
    "empirical_means",
    "private_means",
    "pan_noise_parameters",
    "wilson_interval",
    "PROBLEMS",
    "MODELS",
    "ProblemInstance",
    "feature_matrix",
    "decide",
    "score",
    "plug_in_solve",
    "selection_success_fast",
    "ThresholdSearchResult",
    "find_selection_threshold",
    "true_means",
]


# ---------------------------------------------------------------------------
# randomized-response calibration


def _binomial_rows(m: int, q: float) -> np.ndarray:
    """Row j (j = 0..m) holds the Bin(j, q) pmf, zero-padded to m + 1 entries.

    Built by the Bernoulli recurrence ``B_{j+1} = (1-q) B_j + q shift(B_j)``,
    whose terms are all nonnegative, so each entry is accurate to a few ulps.
    Bin(j, 1-q) is row j's first j + 1 entries reversed.
    """
    rows = np.zeros((m + 1, m + 1))
    rows[0, 0] = 1.0
    for j in range(m):
        rows[j + 1, : j + 1] = (1.0 - q) * rows[j, : j + 1]
        rows[j + 1, 1 : j + 2] += q * rows[j, : j + 1]
    return rows


def _binomial_row(m: int, q: float) -> np.ndarray:
    """Row m of :func:`_binomial_rows`, the Bin(m, q) pmf, by its recurrence in one buffer.

    Each step sums the same two products as the table, so every entry keeps its bits.
    """
    row = np.zeros(m + 1)
    row[0] = 1.0
    for j in range(m):
        row[1 : j + 2] = q * row[: j + 1] + (1.0 - q) * row[1 : j + 2]
        row[0] *= 1.0 - q
    return row


def rr_count_pmf(n_ones: int, n_zeros: int, flip_p: float) -> np.ndarray:
    """Law of the 1-count after per-user flips: Bin(n1, 1-p) + Bin(n0, p).

    Each binomial is one row of :func:`_binomial_rows`, built alone by
    :func:`_binomial_row` with the same bits, so no table is held.
    """
    return np.convolve(_binomial_row(n_ones, flip_p)[::-1], _binomial_row(n_zeros, flip_p))


def _rr_audit_delta(n: int, flip_p: float, epsilon: float) -> float:
    """Worst hockey-stick gap over all one-user neighbor pairs, both directions.

    The pair that differs in one user, with k ones among the other m = n - 1,
    shares the law ``R_k = Bin(k, 1-p) * Bin(m-k, p)`` of those users'
    1-count; the differing user adds a 1 with probability p (input 0) or
    1 - p (input 1), so ``P_k = (1-p) R_k + p shift(R_k)`` and ``Q_k = p R_k +
    (1-p) shift(R_k)``. Relabelling every report mirrors the count, so
    ``R_{m-k}(c) = R_k(m-c)``, ``P_{m-k} = reverse(Q_k)`` and ``Q_{m-k} =
    reverse(P_k)``: pair m - k's forward gap is pair k's backward gap and the
    other way round. Both directions are taken at every k <= m // 2, which
    covers the pairs above it through that mirror. Rows are processed in blocks
    of ``_AUDIT_ROWS`` to bound the temporaries, each ``R_k`` written into one
    preallocated pair of blocks at column offsets 0 and 1, and ``MAX_PATHS`` is
    checked against the n x n binomial table before it is built.
    """
    if epsilon < 0:
        raise ValueError("eps must be nonnegative")
    _check_paths(n * n, f"randomized-response audit (n={n})", "; reduce the cohort size n")
    rows = _binomial_rows(n - 1, flip_p)
    half = (n - 1) // 2 + 1  # k = 0..m // 2; pair m - k mirrors pair k
    # R_k and shift(R_k); their last and first columns stay zero
    same, shifted = np.zeros((2, min(half, _AUDIT_ROWS), n + 1))
    worst = 0.0
    for lo in range(0, half, _AUDIT_ROWS):
        ks = range(lo, min(half, lo + _AUDIT_ROWS))
        for j, k in enumerate(ks):
            same[j, :n] = shifted[j, 1:] = np.convolve(rows[k, k::-1], rows[n - 1 - k, : n - k])
        p_law = (1.0 - flip_p) * same[: len(ks)] + flip_p * shifted[: len(ks)]
        q_law = flip_p * same[: len(ks)] + (1.0 - flip_p) * shifted[: len(ks)]
        worst = max(worst, float(_hockey(p_law, q_law, [epsilon]).max()))
    return worst


def _log_binomial(m, q: float, lo, width: int) -> np.ndarray:
    """Log pmf of Bin(m, q) at k = lo, ..., lo + width - 1, one row per pair of ``m`` and ``lo``.

    Each row starts from ``math.lgamma`` at its ``lo`` and adds the cumulative
    sums of the log ratios ``log((m - k) q / ((k + 1) (1 - q)))``; a k above m
    reads -inf. Needs 0 <= lo <= m and 0 < q < 1.
    """
    m, lo = np.broadcast_arrays(np.asarray(m, dtype=np.int64), np.asarray(lo, dtype=np.int64))
    first = np.reshape([math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
                        + b * math.log(q) + (a - b) * math.log1p(-q)
                        for a, b in zip(m.ravel().tolist(), lo.ravel().tolist())], m.shape + (1,))
    k = lo[..., None] + np.arange(width - 1)
    with np.errstate(divide="ignore"):
        ratios = np.log(np.maximum(m[..., None] - k, 0) * q / ((k + 1) * (1.0 - q)))
    return first + np.concatenate([np.zeros_like(first), np.cumsum(ratios, axis=-1)], axis=-1)


def _blanket_loss(n: int, flip_p: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The privacy-loss law of the blanket pair that dominates one shuffled 1-count.

    Each report is a uniform bit with probability 2p, else the true bit (Balle,
    Bell, Gascon and Nissim, "The Privacy Blanket of the Shuffle Model", CRYPTO
    2019). Given which other users sent uniform bits, C ~ Bin(n - 1, 2p) of
    them, every neighbor pair is one shift of P_C = ``Bin(C, 1/2) + Bern(1-p)``
    against Q_C = ``Bin(C, 1/2) + Bern(p)``, so the pair that reveals C
    dominates the shuffled count. Its loss at count c is ``log[((1-p) c + p (C
    - c + 1)) / (p c + (1-p) (C - c + 1))]``, weighted by the mass of (C, c)
    under P; the mirror c -> C + 1 - c swaps P and Q, so this one direction is
    both. C spans ``_BLANKET_SD`` sd (plus as many counts) each side of its
    mean, in steps of a quarter sd, each step's mass at its first count's pair:
    a uniform bit shared by both laws is a post-processing, so the pair at C
    dominates every larger C's. Each Bin(C, 1/2) row spans as many sd each side
    of C / 2. Returns the losses, their weights and the truncated mass (the
    windows' tails, by Hoeffding and geometric-series bounds), which any caller
    charges at the largest loss, ``log((1-p) / p)``.
    """
    m, q = n - 1, 2.0 * flip_p
    sd = math.sqrt(m * q * (1.0 - q))
    half, step = math.ceil(_BLANKET_SD * (sd + 1.0)), max(1, int(sd / 4))
    lo, hi = max(0, math.floor(m * q) - half), min(m, math.ceil(m * q) + half)
    counts = np.arange(lo, hi + 1, step)
    reach = _BLANKET_SD * (np.sqrt(counts) / 2 + 1)
    start = np.maximum(np.floor(counts / 2 - reach), 0).astype(np.int64)
    width = int((np.ceil(counts / 2 + reach) - start).max()) + 1
    _check_paths(len(counts) * (width + 1), f"privacy-blanket bound (n={n})",
                 "; reduce the cohort n")
    # b(k) for k = start - 1 .. start + width, zero at both ends; a report count c = k + 1 or k
    b = np.zeros((len(counts), width + 2))
    b[:, 1:-1] = np.exp(_log_binomial(counts, 0.5, start, width))
    weights = np.exp(_log_binomial(m, q, lo, hi - lo + 1))
    mass = np.add.reduceat(weights, counts - lo)
    # ones and zeros among the C + 1 reports; a count past C + 1 keeps the last loss, at weight 0
    ones = np.minimum(start[:, None] + np.arange(width + 1), counts[:, None] + 1)
    zeros = counts[:, None] + 1 - ones
    losses = np.log(((1.0 - flip_p) * ones + flip_p * zeros)
                    / (flip_p * ones + (1.0 - flip_p) * zeros))
    pairs = mass[:, None] * ((1.0 - flip_p) * b[:, :-1] + flip_p * b[:, 1:])
    # the mass past each window: Hoeffding on the rows, a geometric series on C's tails
    spread = np.maximum(counts, 1)
    below = np.where(start > 0, np.exp(-2.0 * (counts / 2 - start) ** 2 / spread), 0.0)
    past = start + width - 1
    above = np.where(past < counts, np.exp(-2.0 * (past - counts / 2) ** 2 / spread), 0.0)
    down, up = lo * (1.0 - q) / ((m - lo + 1) * q), (m - hi) * q / ((hi + 1) * (1.0 - q))
    outside = weights[0] * down / (1.0 - down) + weights[-1] * up / (1.0 - up)
    return losses.ravel(), pairs.ravel(), float(mass @ (below + above) + outside)


def _gaps(losses: np.ndarray, epsilon: float) -> np.ndarray:
    """``(1 - e^(eps - L))_+`` at each loss L: the hockey-stick gap per unit of P's mass."""
    return -np.expm1(np.minimum(epsilon - losses, 0.0))


def _blanket_delta(n: int, flip_p: float, epsilon: float) -> float:
    """The privacy-blanket bound on :func:`_rr_audit_delta`, at any cohort size.

    The d = 1 reading of :func:`_blanket_loss`: the sum of ``w (1 - e^(eps -
    L))`` over the losses above eps, plus the truncated mass at the largest
    loss. It is at least the gap of every neighbor pair either way (joint
    convexity). The result is padded by ``_LOG_PMF_RTOL``, the pmfs' rounding.
    """
    cap = -math.expm1(epsilon - math.log((1.0 - flip_p) / flip_p))
    if cap <= 0.0:
        return 0.0  # one report alone is eps-private
    losses, weights, truncated = _blanket_loss(n, flip_p)
    reading = (weights * _gaps(losses, epsilon)).sum()
    return float((reading + truncated * cap) * (1.0 + _LOG_PMF_RTOL))


def _composed_delta(n: int, flip_p: float, epsilon: float, d: int) -> float:
    """An upper bound on delta(eps) of a release of d shuffled 1-counts, one per coordinate.

    A neighbor changes at most every coordinate, and the d-fold product of the
    blanket pair dominates the release (Zhu, Dong and Wang, "Optimal Accounting
    of Differential Privacy via Characteristic Function", AISTATS 2022). Its
    delta(eps) is the mean under P^d of ``(1 - e^(eps - L_1 - ... - L_d))_+``,
    which grows with every loss, so :func:`_composed_reading` may round each
    loss of :func:`_blanket_loss` up to a grid. Added to its reading: d times
    the truncated mass, at the largest composed loss, and the reading's FFT
    rounding. The pmfs' rounding pads the rest by ``(1 + _LOG_PMF_RTOL)^d``.
    """
    top = math.log((1.0 - flip_p) / flip_p)
    cap = -math.expm1(epsilon - d * top)
    if cap <= 0.0:
        return 0.0  # d reports alone are eps-private
    losses, weights, truncated = _blanket_loss(n, flip_p)
    reading, rounding = _composed_reading(losses, weights, epsilon, d)
    return float((reading + d * truncated * cap) * (1.0 + _LOG_PMF_RTOL) ** d + rounding)


def _composed_reading(losses: np.ndarray, weights: np.ndarray, epsilon: float,
                      d: int) -> tuple[float, float]:
    """The mean of ``(1 - e^(eps - S))_+``, S the d-fold sum of the losses rounded up to
    ``_LOSS_STEP``, and a bound on the FFT's rounding of it.

    S's law is one real FFT of the rounded law raised to the d-th power
    (Koskela, Jalko and Honkela, "Computing Tight Differential Privacy
    Guarantees Using the FFT", AISTATS 2020). The FFT spans ``_COMPOSED_SD``
    sd of S each side of its mean, or all of S's support if that is shorter,
    starting at or below eps. Mass wrapped around the window only adds to the
    reading; the mass past its end is added by a Chernoff bound. The rounding
    bound is Higham's for the FFT (Accuracy and Stability of Numerical
    Algorithms, 24.1), read through Cauchy-Schwarz. ``numpy.fft`` loads here,
    on first use.
    """
    steps = np.ceil(losses / _LOSS_STEP).astype(np.int64)
    first = int(steps.min())
    single = np.bincount(steps - first, weights)  # the rounded law, from loss first * h up
    offsets = np.arange(len(single))
    mean = (single * offsets).sum() / single.sum()
    # the sum's sd in grid steps, at least one so that a law on one grid point gets a window
    sd = max(1.0, math.sqrt((single * (offsets - mean) ** 2).sum() / single.sum() * d))
    span = d * (len(single) - 1) + 1  # S takes offsets 0 .. span - 1 from d * first
    size = 1 << (min(span, math.ceil(2 * _COMPOSED_SD * sd) + 1) - 1).bit_length()
    _check_paths(size, f"composed privacy loss (d={d})", "; reduce d or raise the cohort n")
    # the window holds offsets shift .. shift + size - 1; none below shift exceeds eps
    shift = 0 if size >= span else min(max(0, round(d * mean) - size // 2), span - size)
    shift = max(0, min(shift, math.floor(epsilon / _LOSS_STEP) - d * first))
    from numpy import fft

    folded = np.bincount((steps - first) % size, weights, minlength=size)
    composed = np.roll(fft.irfft(_power(fft.rfft(folded), d), size), -shift)
    gaps = _gaps(_LOSS_STEP * (d * first + shift + np.arange(size)), epsilon)
    reading = (composed * gaps).sum()
    if size < span:
        reading += _chernoff_tail(single, _LOSS_STEP * (first + offsets), d,
                                  _LOSS_STEP * (d * first + shift + size), _LOSS_STEP * sd)
    scale = (d + 1) * (math.log2(size) + 1) * math.sqrt(np.square(folded).sum()) + 1.0
    return float(reading), 8.0 * _ULP * scale * math.sqrt(np.square(gaps).sum())


def _power(x: np.ndarray, d: int) -> np.ndarray:
    """``x ** d`` by repeated squaring; numpy's complex power takes exp and log from d = 100 on."""
    if d == 1:
        return x
    half = _power(x * x, d // 2)
    return half * x if d % 2 else half


def _chernoff_tail(law: np.ndarray, values: np.ndarray, d: int, t: float, sd: float) -> float:
    """A Chernoff bound on the mass at or past t of the d-fold sum of ``law`` on ``values``.

    Any lambda > 0 bounds it by ``M(lambda)^d e^(-lambda t)``, M the moment
    generating function; this takes the least over multiples of the Gaussian
    optimum ``(t - d mean) / sd^2`` (``sd`` the sum's), in logs.
    """
    keep = law > 0.0
    law, values = law[keep], values[keep]
    mean = d * (law * values).sum() / law.sum()
    best = max(t - mean, sd) / (sd * sd) * np.geomspace(0.125, 8.0, 7)
    exps = np.log(law) + best[:, None] * values
    peak = exps.max(axis=1)
    log_mgf = peak + np.log(np.exp(exps - peak[:, None]).sum(axis=1))
    return float(np.exp(np.min(d * log_mgf - best * t)))


@dataclass(frozen=True)
class CalibratedRR:
    """Flip probability plus how it was certified, for a release of d coordinates."""

    flip_p: float
    epsilon: float
    delta: float
    n: int
    # "exact-audit", "blanket", "composed" (the d-fold blanket), or "closed-form" (the pure
    # local level at delta = 0)
    method: str
    d: int = 1

    def audit_delta(self) -> float:
        """Re-audit one coordinate's shuffled count law at the calibrated flip probability.

        It is the whole release's audit only at d = 1.
        """
        return _rr_audit_delta(self.n, self.flip_p, self.epsilon)


def calibrate_rr(epsilon: float, delta: float, n: int, d: int = 1) -> CalibratedRR:
    """Smallest certifiable randomized-response flip probability for d coordinates of a cohort.

    Bisection from 1/2, where every bound reads 0, keeps the feasible endpoint,
    so the result re-certifies. At d = 1 the bound is the exact audit of the
    shuffled 1-count up to ``EXACT_AUDIT_MAX_N`` users (``"exact-audit"``, 60
    steps), and above it the privacy-blanket bound (``"blanket"``), which is at
    least the exact audit and meets any finite epsilon and delta in (0, 1). At
    d > 1 it is the blanket bound composed over the d coordinates
    (``"composed"``). Either blanket bound stops its bisection once the
    bracket is narrower than ``_BOUND_RTOL`` of its top. An epsilon whose e^eps
    overflows is refused before any bound runs.

    With ``delta = 0`` privacy must come from the local reports alone, so the
    answer is the pure local level ``1 / (1 + e^(eps / d))`` at any cohort size.
    """
    _check_budget(epsilon, delta, n=n, d=d)
    if delta == 0.0:
        p = 1.0 / (1.0 + math.exp(epsilon / d))
        return CalibratedRR(flip_p=p, epsilon=epsilon, delta=0.0, n=n, method="closed-form", d=d)
    _check_eps([epsilon])
    if d > 1:
        bound, method = partial(_composed_delta, d=d), "composed"
    elif n <= EXACT_AUDIT_MAX_N:
        bound, method = _rr_audit_delta, "exact-audit"
    else:
        bound, method = _blanket_delta, "blanket"
    rtol = 0.0 if method == "exact-audit" else _BOUND_RTOL
    lo, hi = 0.0, 0.5  # at 1/2 both neighbors' count laws are one array
    for _ in range(60):
        if hi - lo <= rtol * hi:
            break
        mid = 0.5 * (lo + hi)
        if bound(n, mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return CalibratedRR(flip_p=hi, epsilon=epsilon, delta=delta, n=n, method=method, d=d)


# ---------------------------------------------------------------------------
# mean-vector estimators


def _as_sign_matrix(samples) -> np.ndarray:
    """The samples as a 2-D matrix, refused unless every entry equals +1 or -1.

    The values are checked before any cast, so 1.7 is refused, not truncated,
    and an int8 -128 or a uint8 255 is refused, not wrapped. A signed-integer
    matrix keeps its dtype; any other (+-1.0 floats, say) is cast to int64.
    """
    x = np.atleast_2d(np.asarray(samples))
    if not ((x == 1) | (x == -1)).all():
        raise ValueError("samples must be +-1 signs")
    return x if x.dtype.kind == "i" else x.astype(np.int64)


def empirical_means(samples) -> np.ndarray:
    """Exact per-feature means from integer sums (the shared noiseless path)."""
    return _sign_means(_as_sign_matrix(samples))


def _sign_means(x: np.ndarray) -> np.ndarray:
    """:func:`empirical_means` of a checked +-1 matrix; zeros when it has no rows."""
    return x.sum(axis=0) / max(x.shape[0], 1)


def private_means(samples, model: str, epsilon: float, delta: float = 0.0, rng=None) -> np.ndarray:
    """Per-feature means of +-1 samples under one trust model's noise.

    The model's ``_NOISE`` entry sets the noise: ``central`` and ``pan`` noise
    the sign sums, ``local`` and ``shuffle`` debias per-user randomized
    response at its flip probability. An infinite budget gives
    :func:`empirical_means` under every model. Central, local and shuffle need
    at least one sample; pan divides by max(n, 1).
    """
    _check_budget(epsilon, delta)
    x = _as_sign_matrix(samples)
    return _private_means(x, _certify(model, epsilon, delta, x.shape[1], x.shape[0]), rng)


def _certify(model: str, epsilon: float, delta: float, d: int, n: int) -> tuple[str, float, int]:
    """The ``_NOISE`` entry's (kind, scale, draws) for d features of n users; none at eps = inf."""
    noise = _NOISE[model]
    if math.isinf(epsilon):
        return "laplace", 0.0, 0
    if n == 0 and model != "pan":
        raise ValueError("need at least one sample")
    return noise(epsilon, delta, d, n)


def _private_means(x: np.ndarray, noise: tuple[str, float, int], rng) -> np.ndarray:
    """:func:`private_means` of a checked +-1 matrix under the noise :func:`_certify` gave."""
    kind, scale, draws = noise
    gen = as_generator(rng)
    if kind == "rr":
        return _debiased_rr_means(x, scale, gen)
    return _noised(x.sum(axis=0), kind, scale, draws, gen) / max(x.shape[0], 1)


def _check_budget(epsilon: float, delta: float, **counts: int) -> None:
    """Refuse an epsilon that is not positive (infinity passes), a delta outside [0, 1)
    and any of the named dimension or trial ``counts`` below 1."""
    if not epsilon > 0.0:
        raise ValueError(f"'epsilon' must be positive, got {epsilon!r}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"'delta' must be in [0, 1), got {delta!r}")
    for key, value in counts.items():
        if value < 1:
            raise ValueError(f"{key!r} must be at least 1, got {value!r}")


def _check_search(epsilon: float, delta: float, alpha: float, target: float, **counts: int) -> None:
    """The range checks of :func:`find_selection_threshold`, made before its first trial."""
    _check_budget(epsilon, delta, **counts)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"'alpha' must be in (0, 1/2), got {alpha!r}")
    if not 0.0 < target <= 1.0:
        raise ValueError(f"'target' must be in (0, 1], got {target!r}")


def _noised(sums: np.ndarray, kind: str, scale: float, draws: int, gen) -> np.ndarray:
    """Sign sums of shape (..., d) plus ``draws`` Laplace or Gaussian draws at ``scale``."""
    draw = gaussian if kind == "gaussian" else laplace
    for _ in range(draws):
        sums = sums + draw(gen, scale, size=sums.shape)
    return sums


def _debiased_rr_means(x: np.ndarray, flip_p: float, gen) -> np.ndarray:
    n = x.shape[0]
    bits = (x + 1) // 2
    flips = gen.random(size=x.shape) < flip_p
    counts = (bits ^ flips).sum(axis=0)
    debiased = (counts - n * flip_p) / (1.0 - 2.0 * flip_p)
    return (2.0 * debiased - n) / n


def pan_noise_parameters(epsilon: float, delta: float, d: int) -> tuple[str, float]:
    """Noise kind and per-noising scale for the two accumulator noisings.

    One stream element moves every coordinate of the d-feature sign-sum by at
    most 2, so the L2 sensitivity is 2 sqrt(d) and the L1 sensitivity is 2 d.
    Each of the two noisings (state initialization and release) spends half
    the budget. With delta > 0 each noising is a Gaussian mechanism at
    (epsilon/2, delta/2), sigma = 2 sqrt(d) sqrt(2 ln(2.5/delta)) / (epsilon/2);
    with delta = 0 only Laplace serves, at scale 2 d / (epsilon/2).
    """
    _check_budget(epsilon, delta)
    if delta > 0:
        sigma = 2.0 * math.sqrt(d) * math.sqrt(2.0 * math.log(1.25 / (delta / 2.0)))
        return "gaussian", sigma / (epsilon / 2.0)
    return "laplace", 2.0 * d / (epsilon / 2.0)


def _shuffle_flip(epsilon: float, delta: float, d: int, n: int) -> float:
    """The flip :func:`calibrate_rr` certifies for d coordinates of n users; refused at delta = 0,
    where the blanket adds nothing to the local reports."""
    if delta == 0.0:
        raise ValueError(
            "the shuffle model needs delta in (0, 1); at delta = 0 use the local model")
    return calibrate_rr(epsilon, delta, n, d).flip_p


class _ModelTable(dict):
    def __missing__(self, model):  # an unknown model is a ValueError, not a KeyError
        raise ValueError(f"unknown model {model!r}; expected one of {tuple(self)}")


# model -> (epsilon, delta, d, n) -> the noise it certifies for d features of n users:
# ("rr", flip probability, 0), or (kind, scale, draws) Laplace or Gaussian noisings of the
# sign sums. Central and local split a pure budget over the features; shuffle calibrates
# one flip for the cohort's whole d-coordinate release; pan noises state initialization,
# then release.
_NOISE = _ModelTable({
    "central": lambda epsilon, delta, d, n: ("laplace", 2.0 * d / epsilon, 1),
    "local": lambda epsilon, delta, d, n: ("rr", 1.0 / (1.0 + math.exp(epsilon / d)), 0),
    "shuffle": lambda epsilon, delta, d, n: ("rr", _shuffle_flip(epsilon, delta, d, n), 0),
    "pan": lambda epsilon, delta, d, n: (*pan_noise_parameters(epsilon, delta, d), 2),
})
MODELS = tuple(_NOISE)


def wilson_interval(successes: float, n: int, z: float = 2.5758293035489004) -> tuple[float, float]:
    """Wilson score interval; default z is the two-sided 99% normal quantile."""
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# problem instances


PROBLEMS = ("selection", "sparse-mean", "parity-release", "hypothesis-test", "parity-learning")


@dataclass(frozen=True)
class ProblemInstance:
    """One solvable task: a truth distribution plus model and budget.

    ``truth`` is a member descriptor dict (or ``{"family": "uniform", ...}``
    for the null); problems constrain its shape (selection and sparse-mean
    and hypothesis-test use width-1 plain members, parity problems use width
    <= k, learning uses the labeled family). A selection truth that is not one
    width-1 member with sign +1 is rejected at construction.

    The parsed :attr:`truth_distribution`, the truth :attr:`member`, the
    :attr:`candidates`, their gather table :attr:`columns` (and the per-column
    gathers :func:`feature_matrix` reads from it) and the certified
    :attr:`noise` are computed once per instance and cached on it; the fields
    alone still decide equality and what ``dataclasses.replace`` keeps.
    """

    problem: str
    model: str
    d: int
    k: int
    alpha: float
    n: int
    epsilon: float
    delta: float
    truth: dict

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        _NOISE[self.model]  # an unknown model raises here
        _check_budget(self.epsilon, self.delta)
        if self.problem == "selection":
            member = self.member
            if member is None or member.index.width != 1 or member.index.sign != 1:
                raise ValueError("a selection truth must be one width-1 member with sign +1")

    @cached_property
    def truth_distribution(self):
        """The truth descriptor, parsed once: a member, the uniform null, or a family list."""
        return from_descriptor(self.truth)

    @cached_property
    def member(self) -> ParametricHardDistribution | None:
        """The truth member, or None for the uniform null.

        A truth that names a whole family (no ``ell``) raises ``ValueError``.
        """
        if self.truth.get("family") == "uniform":
            return None
        member = self.truth_distribution
        if not isinstance(member, ParametricHardDistribution):
            raise ValueError("truth must describe one member (with 'ell') or the uniform null")
        return member

    @cached_property
    def candidates(self) -> tuple[tuple[int, ...], ...]:
        """Candidate subsets whose feature means drive the decision.

        Selection, sparse-mean, and hypothesis-test estimate the d coordinates.
        Parity release scans nonempty subsets of width <= k; parity learning
        scans subsets of width <= k including the empty one, each implicitly
        paired with the label coordinate.
        """
        if self.problem in ("selection", "sparse-mean", "hypothesis-test"):
            return tuple((j,) for j in range(1, self.d + 1))
        lo = 0 if self.problem == "parity-learning" else 1
        out = []
        for size in range(lo, self.k + 1):
            out.extend(combinations(range(1, self.d + 1), size))
        return tuple(out)

    @cached_property
    def columns(self) -> np.ndarray:
        """The (m, span) table of 0-based sample columns whose product is each candidate.

        Row i lists candidate i's coordinates, then the label column for parity
        learning. Shorter rows are padded with index ``width`` (the sample
        width), which no sample column has. An instance without candidates
        gets an (0, 1) table, so every table has a first column. The table is
        shared by every caller, so it is read-only.
        """
        label = [self.d] if self.problem == "parity-learning" else []
        width = self.d + len(label)
        cands = self.candidates
        span = max((len(s) for s in cands), default=1) + len(label)
        rows = [[j - 1 for j in s] + label + [width] * (span - len(s) - len(label)) for s in cands]
        table = np.array(rows, dtype=np.intp).reshape(len(cands), span)
        table.flags.writeable = False
        return table

    @cached_property
    def _gathers(self) -> tuple[np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
        """The first column of :attr:`columns`, then each later one as (first unpadded row,
        the sample columns from that row on).

        Every candidate has a first coordinate, and candidates are listed by
        size, so the rows padded at a later column come first and the rest is
        one unpadded suffix. A pad left in the first column or in a suffix
        would index past the samples and raise ``IndexError``.
        """
        width = self.d + (1 if self.problem == "parity-learning" else 0)
        first, *later = (np.ascontiguousarray(col) for col in self.columns.T)
        starts = [int(np.count_nonzero(col == width)) for col in later]
        return first, tuple((start, col[start:]) for start, col in zip(starts, later))

    @cached_property
    def noise(self) -> tuple[str, float, int]:
        """The noise :func:`_certify` gives the model for the candidates of n users."""
        return _certify(self.model, self.epsilon, self.delta, len(self.candidates), self.n)

    def sample_data(self, rng) -> np.ndarray:
        return draw_from(self.truth_distribution, self.n, rng)


def feature_matrix(inst: ProblemInstance, samples: np.ndarray) -> np.ndarray:
    """The int64 n x m matrix of +-1 candidate-parity values, gathered by ``inst.columns``.

    The samples are checked to be +-1 signs of the instance's width in their
    own integer dtype. The table's first column is one gather of m sample
    columns; each later column is one gather for the candidates that reach
    it, multiplied in place into theirs, so a padded entry is skipped rather
    than multiplied by 1. The products stay +-1 in the samples' dtype and are
    cast to int64 once.
    """
    x = _as_sign_matrix(samples)
    width = inst.d + (1 if inst.problem == "parity-learning" else 0)
    if x.shape[1] != width:
        raise ValueError(f"expected sample width {width}, got {x.shape[1]}")
    first, later = inst._gathers
    out = x[:, first]
    for start, cols in later:
        out[:, start:] *= x[:, cols]
    return out.astype(np.int64, copy=False)


def decide(inst: ProblemInstance, means: np.ndarray):
    """Deterministic decision from candidate-mean estimates.

    selection -> 1-based coordinate (argmax of the raw mean, lowest index on
    ties); sparse-mean and parity-release -> the estimate vector itself;
    hypothesis-test -> index into [uniform] + width-1 members in enumeration
    order (nearest candidate mean vector in L2); parity-learning -> (subset,
    sign) with the largest absolute estimate (first in enumeration order on ties).
    """
    means = np.asarray(means, dtype=np.float64)
    if inst.problem == "selection":
        return int(inst.candidates[int(np.argmax(means))][0])
    if inst.problem in ("sparse-mean", "parity-release"):
        return means
    if inst.problem == "hypothesis-test":
        mu = 2.0 * inst.alpha
        candidates = [np.zeros(inst.d)]
        for j in range(1, inst.d + 1):
            for sign in (1, -1):
                vec = np.zeros(inst.d)
                vec[j - 1] = mu * sign
                candidates.append(vec)
        dists = [float(np.sum((means - c) ** 2)) for c in candidates]
        return int(np.argmin(dists))
    best = int(np.argmax(np.abs(means)))
    return (inst.candidates[best], 1 if means[best] >= 0 else -1)


def true_means(inst: ProblemInstance) -> np.ndarray:
    """Exact candidate means under the instance's truth, in candidate order.

    Each candidate's parity mean, with the label coordinate appended for
    parity learning; the uniform null gives zeros.
    """
    member = inst.member
    if member is None:
        return np.zeros(len(inst.candidates))
    label = (inst.d + 1,) if inst.problem == "parity-learning" else ()
    return np.array([member.parity_mean(s + label) for s in inst.candidates], dtype=np.float64)


def score(inst: ProblemInstance, decision) -> bool:
    """Exact success predicate against the instance's truth descriptor."""
    if inst.problem in ("sparse-mean", "parity-release"):
        return float(np.abs(np.asarray(decision) - true_means(inst)).max()) < inst.alpha
    member = inst.member
    if inst.problem == "selection":
        return decision == member.index.subset[0]
    if inst.problem == "hypothesis-test":
        if member is None:
            return decision == 0
        j = member.index.subset[0]
        truth_idx = 1 + 2 * (j - 1) + (0 if member.index.sign == 1 else 1)
        return decision == truth_idx
    if member is None:
        return True
    return decision == (member.index.subset, member.index.sign)


def plug_in_solve(inst: ProblemInstance, samples: np.ndarray):
    """Noiseless baseline: exact empirical means, same decision rule."""
    return decide(inst, _sign_means(feature_matrix(inst, samples)))


# ---------------------------------------------------------------------------
# fast selection sweeps


def selection_success_fast(
    d: int,
    n: int,
    model: str,
    epsilon: float,
    delta: float,
    alpha: float,
    trials: int,
    rng,
) -> float:
    """Monte Carlo success rate of selection via sufficient statistics.

    The planted coordinate is 1 with mean ``2 alpha``; the others are
    unbiased. The model's ``_NOISE`` entry certifies its noise before the first
    draw; then per-coordinate 1-counts are drawn as binomials and noised as in
    :func:`private_means`: the entry's draws on the sign sums, or binomial
    randomized-response counts at its flip probability. The argmax law thus
    matches the sample-level pipeline without materializing ``n x d`` sign
    matrices.
    """
    _check_budget(epsilon, delta, d=d, trials=trials)
    kind, scale, draws = _certify(model, epsilon, delta, d, n)
    gen = as_generator(rng)
    mu = np.zeros(d)
    mu[0] = 2.0 * alpha
    ones = gen.binomial(n, (1.0 + mu) / 2.0, size=(trials, d))
    if kind == "rr":
        scores = gen.binomial(ones, 1.0 - scale) + gen.binomial(n - ones, scale)
    else:
        scores = _noised(2.0 * ones - n, kind, scale, draws, gen)
    return float(np.mean(np.argmax(scores, axis=1) == 0))


@dataclass(frozen=True)
class ThresholdSearchResult:
    d: int
    model: str
    n_star: int
    success_at_n_star: float
    corridor_n: int
    corridor_success: float


def find_selection_threshold(
    d: int,
    model: str,
    epsilon: float,
    delta: float,
    alpha: float,
    target: float = 0.9,
    pilot_trials: int = 300,
    confirm_trials: int = 1000,
    master_seed: int = 0,
    tag: str = "nstar",
) -> ThresholdSearchResult:
    """Smallest confirmed sample size where fast selection succeeds at rate target.

    Doubles from n = 64 until a pilot clears the target, bisects to about
    1.5% granularity, then confirms with fresh trials, requiring the Wilson
    99% lower bound to clear ``target - 0.03``; on a failed confirmation the
    candidate is bumped by 25% (at most six times). The confirmed size over 8
    is then run once more as the corridor. All stages draw from
    streams derived via (master_seed, tag, model, d, stage, n), so the search
    is reproducible regardless of call order. A budget, ``alpha`` or
    ``target`` out of range, or ``d`` or a trial count below 1, raises
    ``ValueError`` before the first trial.
    """
    _check_search(epsilon, delta, alpha, target, d=d, pilot_trials=pilot_trials,
                  confirm_trials=confirm_trials)

    def rate(n: int, trials: int, stage: str) -> float:
        gen = make_generator(master_seed, tag, model, d, stage, n)
        return selection_success_fast(d, n, model, epsilon, delta, alpha, trials, gen)

    n = 64
    for _ in range(24):
        if rate(n, pilot_trials, "pilot") >= target:
            break
        n *= 2
    else:
        raise GuardError(f"selection at d={d} did not reach {target} by n={n}")
    lo, hi = n // 2, n
    while hi - lo > max(1, hi // 64):
        mid = (lo + hi) // 2
        if rate(mid, pilot_trials, "pilot") >= target:
            hi = mid
        else:
            lo = mid
    candidate = hi
    for _ in range(6):
        confirmed = rate(candidate, confirm_trials, "confirm")
        lo_w, _ = wilson_interval(confirmed * confirm_trials, confirm_trials)
        if lo_w >= target - 0.03:
            corridor_n = max(1, candidate // 8)
            corr = rate(corridor_n, confirm_trials, "corridor")
            return ThresholdSearchResult(
                d=d, model=model, n_star=candidate, success_at_n_star=confirmed,
                corridor_n=corridor_n, corridor_success=corr,
            )
        candidate = int(math.ceil(candidate * 1.25))
    raise GuardError(f"confirmation failed for selection at d={d}")
