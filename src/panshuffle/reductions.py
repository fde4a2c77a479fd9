"""Reductions between trust models and between learning and distinguishing.

Two constructions live here:

* :class:`ShuffleToPanWrapper` turns any single-round shuffled protocol whose
  declared guarantee tolerates a one-third participation floor into an online
  algorithm over streams a third the cohort size. The state is seeded with
  shuffled reference messages, a Bin(n, 2/9)-capped prefix of the stream is
  folded in, and the output pads the cohort back up to n messages before
  running the analyzer. On an all-reference stream the output law is exactly
  the protocol's; on iid draws from any other law the gap to the protocol's
  law on the (2/9)-diluted mixture is at most the tail P[Bin(n, 2/9) > n/3].

* :class:`LearnerDistinguisher` runs a parity learner on a prefix, then counts
  label agreements of the learned parity on a test phase behind symmetric
  noise, yielding a scalar whose law separates uniform from planted-parity
  streams. Thresholding that scalar gives the distinguishing advantage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .baselines import ProblemInstance, _binomial_row, plug_in_solve, wilson_interval
from .distributions import ParametricHardDistribution, ParityIndex
from .distributions import sample as draw_from
from .errors import GuardError
from .mechanisms import PanPrivateAlgorithm, ShuffleProtocol, _choice_cdf, run_pan
from .rng import as_generator, draw_words, laplace, laplace_from_words
from . import exact as ex

__all__ = [
    "ShuffleToPanWrapper",
    "wrapper_escape_mass",
    "PlantedLearner",
    "PlugInParityLearner",
    "LearnerDistinguisher",
    "ThresholdReport",
    "threshold_distinguisher",
]


def wrapper_escape_mass(n: int) -> float:
    """P[Bin(n, 2/9) > n/3]: the wrapper's worst-case output-law gap, correctly rounded.

    The tail is sum_{k > n/3} C(n, k) 2^k 7^(n-k) / 9^n in integers, divided
    once; each term follows from the last as t * 2(n-k) / (7(k+1)), which
    divides exactly because both sides are the next term times 7(k+1).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"escape mass needs a cohort size n >= 0, got n={n!r}")
    n = int(n)
    k = n // 3 + 1
    term = math.comb(n, k) * 2**k * 7 ** max(n - k, 0)
    total = 0
    while term:
        total += term
        term = term * 2 * (n - k) // (7 * (k + 1))
        k += 1
    return total / 9**n


@dataclass(frozen=True)
class ShuffleToPanWrapper:
    """Online algorithm simulating a shuffled protocol against one intrusion.

    The wrapped protocol expects cohorts of size ``n`` (divisible by 3) and
    must declare a participation floor no larger than one third. The online
    algorithm consumes a stream of length ``n/3``. Its state is ``(budget,
    counts)``: ``budget`` is how many stream elements contribute their own
    message, drawn once as min(Bin(n, 2/9), n/3), and ``counts`` is the
    message multiset seeded with ``n/3`` shuffled reference draws. Stream
    element i is randomized as itself while ``i <= budget`` and as a fresh
    reference draw afterwards. The output pads with ``n/3`` more reference
    draws, reaching ``n`` messages, and applies the analyzer.

    Sampling draws a whole view in two generator calls (:meth:`sample_view`),
    consuming the generator as a run that draws each message in turn does.

    On a stream of ``n/3`` iid reference draws the output law equals the
    protocol's on ``n`` reference users exactly. On a stream of ``n/3`` iid
    draws from any other law P, the output law is within
    P[Bin(n, 2/9) > n/3] of the protocol's on ``n`` iid draws from the
    diluted mixture (2/9) P + (7/9) reference.
    """

    protocol: ShuffleProtocol
    reference: dict

    def __post_init__(self) -> None:
        n = self.protocol.n
        if n % 3 != 0:
            raise ValueError(f"cohort size {n} not divisible by 3")
        budget = self.protocol.budget
        if budget is not None and budget.gamma > 1.0 / 3.0 + 1e-12:
            raise ValueError(
                f"declared participation floor {budget.gamma} exceeds 1/3; "
                "the wrapper only guarantees n/3 real participants"
            )
        if not all(math.isfinite(v) and v >= 0 for v in self.reference.values()):
            raise ValueError("reference probabilities must be finite and non-negative")
        total = sum(self.reference.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("reference distribution must sum to 1")

    @property
    def n(self) -> int:
        """Cohort size the wrapped protocol expects."""
        return self.protocol.n

    @property
    def stream_len(self) -> int:
        """Length of the stream consumed, of the preload and of the output pad (= n/3)."""
        return self.n // 3

    @cached_property
    def _reference_kernel(self) -> dict:
        """Count-tuple kernel of one reference draw; built once per wrapper."""
        return ex.randomizer_kernel_for(self.protocol.randomizer, self.reference)

    @cached_property
    def _reference_law(self) -> ex.CountLaw:
        """:attr:`_reference_kernel` as a count law, the reference user of every wrapper law."""
        return ex.CountLaw.of(self._reference_kernel, len(self.protocol.randomizer.alphabet))

    @cached_property
    def budget_distribution(self) -> dict:
        """Law of min(Bin(n, 2/9), n/3) over {0, ..., n/3}; the tail past n/3 sits at n/3."""
        cap = self.stream_len
        pmf = _binomial_row(self.n, 2.0 / 9.0)
        out = {k: float(pmf[k]) for k in range(cap)}
        out[cap] = float(pmf[cap:].sum())
        return out

    # -- exact kernels -----------------------------------------------------

    @cached_property
    def _pad_law(self) -> ex.CountLaw:
        """Count law of a cohort of n/3 reference users: the preload, and again the output pad."""
        return ex._shuffle_law(self.protocol.randomizer, [self.reference] * self.stream_len)[0]

    def init_kernel(self) -> dict:
        preload = self._pad_law.as_dict()
        return {
            (b, counts): pb * pc
            for b, pb in self.budget_distribution.items()
            for counts, pc in preload.items()
        }

    @cached_property
    def _input_kernels(self) -> dict:
        """Count-tuple kernel of each stream input met so far, built once per wrapper."""
        return {}

    def update_kernel(self, i: int, x, state) -> dict:
        budget, counts = state
        if i <= budget:
            if x not in self._input_kernels:
                self._input_kernels[x] = self.protocol.randomizer.kernel(x)
            step = self._input_kernels[x]
        else:
            step = self._reference_kernel
        out: dict = {}
        for inc, p in step.items():
            key = (budget, tuple(a + b for a, b in zip(counts, inc)))
            out[key] = out.get(key, 0.0) + p
        return out

    def output_kernel(self, state) -> dict:
        _, counts = state
        return self._pad_law.push(self.protocol.analyzer, np.asarray(counts))

    # -- sampling ----------------------------------------------------------

    @cached_property
    def _reference_draw(self) -> tuple[list, np.ndarray]:
        """Reference inputs and their cumulative probabilities; built once per wrapper.

        Inverse-CDF lookups of uniform draws in this table pick the inputs
        ``rng.choice`` picks with ``p`` the normalized probabilities, without
        re-checking ``p`` on every call.
        """
        keys = list(self.reference)
        return keys, _choice_cdf(np.array([self.reference[k] for k in keys], dtype=np.float64))

    def sample_budget(self, rng) -> int:
        return int(min(rng.binomial(self.n, 2.0 / 9.0), self.stream_len))

    def sample_view(self, stream: Sequence, t: int, rng) -> tuple:
        """One execution on ``stream``: the state after element t, and the output.

        It draws the budget, then one ``rng.random`` call holding, with
        ``k = randomizer.uniforms``, every uniform in the order in which a
        message-by-message execution consumes them: the preload's n/3
        reference picks, then its n/3 x k message uniforms; k for each element
        within the budget; one pick and k for each later element; then the
        pad's n/3 picks and n/3 x k uniforms. The picks are one inverse-CDF
        lookup, and every message goes through one ``batch_fn`` call.
        """
        rz, cap = self.protocol.randomizer, self.stream_len
        k = rz.uniforms
        budget = self.sample_budget(rng)
        real = min(budget, len(stream))
        late = len(stream) - real
        block = cap * (1 + k)
        u = rng.random(2 * block + real * k + late * (1 + k))
        pre, steps, pad = u[:block], u[block:len(u) - block], u[len(u) - block:]
        late_u = steps[real * k:].reshape(late, 1 + k)
        keys, cdf = self._reference_draw
        picks = cdf.searchsorted(np.concatenate([pre[:cap], late_u[:, 0], pad[:cap]]),
                                 side="right")
        drawn = [keys[i] for i in picks.tolist()]
        xs = drawn[:cap] + list(stream[:real]) + drawn[cap:]
        if k:
            msg_u = np.concatenate([pre[cap:], steps[:real * k], late_u[:, 1:].ravel(), pad[cap:]])
        else:  # every slice is empty
            msg_u = u[:0]
        counts = rz.batch_fn(xs, msg_u.reshape(len(xs), k))
        state = (budget, tuple(counts[:cap + t].sum(axis=0).tolist()))
        return state, self.protocol.analyzer(counts.sum(axis=0))

    def as_pan_algorithm(self) -> PanPrivateAlgorithm:
        return PanPrivateAlgorithm(
            name="shuffle-to-pan",
            init_kernel=self.init_kernel(),
            update_kernel=self.update_kernel,
            output_kernel=self.output_kernel,
            view_sample=self.sample_view,
            meta={"n": self.n, "stream_len": self.stream_len},
        )

    def exact_output_distribution(self, input_dist: dict) -> dict:
        """Exact output law on a stream of ``n/3`` iid draws from ``input_dist``.

        With budget b the final multiset holds b real messages and n - b
        reference messages (preload, replacements, pad), so the count law is
        ``sum_b p_b real^b ref^(n-b)``. It is built on count arrays in Horner
        form, ``G_0 = p_0``, ``G_j = G_{j-1} * ref + p_j real^j``, then
        ``G_cap * ref^(n-cap)``, and the analyzer runs once per distinct count
        vector of the result. ``exact._chain`` sets the loop up from its two
        extreme budgets, b = 0 and b = cap, as cohorts: each term's count range
        is linear in b, so the code space that spans those two cohorts holds
        every law of the loop. The reference user enters as its kernel law,
        built once per wrapper; only the input's kernel is built per call.
        Kernels of one message total and at most four symbols run the loop on
        a dense grid, where each product is a few shifted adds.
        """
        n, cap, ref = self.n, self.stream_len, self._reference_law
        label = f"wrapper law (n={n})"
        cohorts = [[ref] * n, [input_dist] * cap + [ref] * (n - cap)]
        real_power, kernels = ex._chain(self.protocol.randomizer, cohorts, label)
        real, ref = kernels[id(input_dist)], kernels[id(ref)]
        budget_law = self.budget_distribution
        mixed = real_power.scaled(budget_law[0])
        for b in range(1, cap + 1):
            real_power = real_power.convolve(real, label)
            mixed = mixed.convolve(ref, label) + real_power.scaled(budget_law[b])
        for _ in range(n - cap):
            mixed = mixed.convolve(ref, label)
        return mixed.settled().push(self.protocol.analyzer)


# ---------------------------------------------------------------------------
# learners


@dataclass(frozen=True)
class PlantedLearner:
    """Oracle learner that always answers a fixed parity; for law checks."""

    index: ParityIndex

    def fit(self, samples: np.ndarray) -> ParityIndex:
        return self.index


@dataclass(frozen=True)
class PlugInParityLearner:
    """Empirical-correlation learner over all candidate parities up to size k.

    Picks the (subset, sign) whose labeled-parity empirical mean is largest;
    no privacy of its own, used to exercise the reduction end to end. The
    parity-learning instance is built once per learner and caches its
    candidates and column table, so a fit is one gather of the sample columns.
    """

    d: int
    k: int

    @cached_property
    def _instance(self) -> ProblemInstance:
        """The noiseless parity-learning instance; it caches its candidates and column table."""
        return ProblemInstance(
            problem="parity-learning", model="central", d=self.d, k=self.k, alpha=0.0,
            n=0, epsilon=math.inf, delta=0.0, truth={"family": "uniform", "d": self.d + 1},
        )

    def fit(self, samples: np.ndarray) -> ParityIndex:
        """The noiseless parity-learning decision of :func:`baselines.plug_in_solve`."""
        return ParityIndex(*plug_in_solve(self._instance, samples))


# ---------------------------------------------------------------------------
# learner -> distinguisher


@dataclass(frozen=True)
class LearnerDistinguisher:
    """Distinguish uniform from planted labeled-parity streams via a learner.

    Phase one hands the first ``n`` elements to the learner, which returns a
    parity guess. A noise counter C ~ Lap(1/eps) is drawn once. Phase two
    scores each of the remaining elements +1 when the guessed parity matches
    the label, accumulating into C. The reported scalar is the count plus one
    more Lap(1/eps) draw, so both the running state and the output stay
    noised. Under a planted parity of strength alpha the count concentrates
    around T(1/2 + alpha) against T/2 under uniform; the test length
    T = ceil(scale / (alpha * eps)) makes the separation ~sqrt(scale) combined
    standard deviations wide.
    """

    learner: object
    d: int
    alpha: float
    epsilon: float
    n_learn: int
    test_phase_scale: float = 24.0

    def __post_init__(self) -> None:
        # checked before any draw: out of range, these fail inside one without naming the key
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"'alpha' must be in (0, 1/2), got {self.alpha!r}")
        if not self.epsilon > 0.0:
            raise ValueError(f"'epsilon' must be positive, got {self.epsilon!r}")
        for key in ("n_learn", "test_phase_scale"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"'{key}' must be non-negative, got {getattr(self, key)!r}")

    @property
    def test_len(self) -> int:
        return math.ceil(self.test_phase_scale / (self.alpha * self.epsilon))

    @property
    def total_len(self) -> int:
        return self.n_learn + self.test_len

    def run(self, stream: Sequence, rng) -> float:
        """The scalar of one run on ``stream``: the online form's final output."""
        if len(stream) != self.total_len:
            raise ValueError(
                f"stream length {len(stream)} != learn {self.n_learn} + test {self.test_len}"
            )
        return run_pan(self.as_pan_algorithm(), stream, t=1, rng=rng).output

    def run_batch(self, planted: ParityIndex | None, trials: int, rng) -> np.ndarray:
        """Sample the scalar's law directly under a fixed world.

        ``planted=None`` is the uniform world. Each trial draws fresh phase-one
        rows, then the test-phase agreement count from its exact conditional
        binomial given the guess, which matches the element-by-element run
        distributionally, then the two 64-bit words of its Laplace noise. The
        planted world fits the learner once per trial; in the uniform world
        every guess matches with probability 1/2, so there is no fit and the
        rows are drawn only to keep the stream's position. The noise words are
        transformed once per batch, after the loop, into the values drawing
        them one trial at a time gives. A fixed-guess learner needs no rows,
        so its batch is one binomial draw and one noise draw.
        """
        if planted is not None:
            planted.check_within(self.d)  # before any draw, for either learner
        rng = as_generator(rng)
        t, scale = self.test_len, 1.0 / self.epsilon
        if isinstance(self.learner, PlantedLearner):
            p_match = self._match_prob(planted, self.learner.index)
            counts = rng.binomial(t, p_match, size=trials)
            noise = laplace(rng, scale, size=(trials, 2)).sum(axis=1)
            return counts + noise
        member = self._member(planted)
        counts = np.empty(trials, dtype=np.int64)
        # a zero scale draws no word, as in laplace
        words = np.empty((trials, 2 if scale else 0), dtype=np.uint64)
        for j in range(trials):
            rows = self._draw_rows(member, self.n_learn, rng)
            p_match = 0.5 if member is None else self._match_prob(planted, self.learner.fit(rows))
            counts[j] = rng.binomial(t, p_match)
            words[j] = draw_words(rng, words.shape[1])
        return counts + laplace_from_words(words, scale).sum(axis=1)

    def _member(self, planted: ParityIndex | None) -> ParametricHardDistribution | None:
        """The labeled member planting ``planted``; None for the uniform world."""
        if planted is None:
            return None
        return ParametricHardDistribution(
            d=self.d, index=planted, alpha=self.alpha, family="labeled"
        )

    def _draw_rows(self, member: ParametricHardDistribution | None, m: int, rng) -> np.ndarray:
        """``m`` rows from ``member``, or uniform signs of width d + 1 when it is None.

        The uniform rows are one int64 ``integers`` draw of bits, mapped to
        signs in place in that array.
        """
        if member is not None:
            return draw_from(member, m, rng)
        x = rng.integers(0, 2, size=(m, self.d + 1))
        x *= 2
        x -= 1
        return x

    def _match_prob(self, planted: ParityIndex | None, guess: ParityIndex) -> float:
        if planted is None:
            return 0.5
        if guess.subset == planted.subset:
            return 0.5 + self.alpha * (1.0 if guess.sign == planted.sign else -1.0)
        return 0.5

    def as_pan_algorithm(self) -> PanPrivateAlgorithm:
        """Online form: phase-one buffer, then (guess, noised count) state.

        Its ``view_sample`` steps the state ``("learn", buffer)`` until the learner
        fits on ``n_learn`` rows and a Laplace counter is drawn, then ``("test", guess,
        count)``; the output adds a second Laplace draw, and a stream that ends before
        the fit raises ``GuardError``. No exact kernels: the state space is continuous.
        """
        n_learn, d = self.n_learn, self.d

        def learn(buf, rng):
            # with a full buffer (at once when n_learn = 0) fit and draw the noise counter
            if len(buf) < n_learn:
                return ("learn", buf)
            rows = np.array(buf, dtype=np.int64) if buf else np.empty((0, d + 1), dtype=np.int64)
            guess = self.learner.fit(rows)
            return ("test", guess, float(laplace(rng, 1.0 / self.epsilon)))

        def view_sample(stream, t, rng):
            state, seen = learn((), rng), None
            for i, x in enumerate(stream, start=1):
                if state[0] == "learn":
                    state = learn(state[1] + (tuple(x),), rng)
                else:
                    _, guess, c = state
                    parity = math.prod(x[j - 1] for j in guess.subset)
                    state = ("test", guess, c + int(guess.sign * parity * x[d] == 1))
                if i == t:
                    seen = state
            if state[0] != "test":
                raise GuardError("stream ended before the learning phase finished")
            return seen, state[2] + float(laplace(rng, 1.0 / self.epsilon))

        return PanPrivateAlgorithm(
            name="learner-distinguisher",
            view_sample=view_sample,
            meta={"n_learn": n_learn, "test_len": self.test_len, "d": d},
        )


@dataclass(frozen=True)
class ThresholdReport:
    """Best single-threshold separation between two scalar samples."""

    tau: float
    advantage: float
    ci_low: float
    ci_high: float

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "advantage": self.advantage,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def threshold_distinguisher(
    z_planted: np.ndarray, z_uniform: np.ndarray, min_samples: int = 10_000
) -> ThresholdReport:
    """Maximize P[planted > tau] - P[uniform > tau] over candidate thresholds.

    Both sample arrays must hold at least ``min_samples`` points. The interval
    reported is a conservative Wilson-based band on the advantage at the
    chosen threshold.
    """
    zp = np.asarray(z_planted, dtype=np.float64)
    zu = np.asarray(z_uniform, dtype=np.float64)
    if len(zp) < min_samples or len(zu) < min_samples:
        raise GuardError(
            f"need at least {min_samples} samples per world, got {len(zp)} and {len(zu)}"
        )
    pooled = np.concatenate([zp, zu])
    pooled.sort()
    # advantage at tau = F_u(tau) - F_p(tau); scan the pooled empirical grid
    idx_p = np.searchsorted(np.sort(zp), pooled, side="right") / len(zp)
    idx_u = np.searchsorted(np.sort(zu), pooled, side="right") / len(zu)
    gaps = idx_u - idx_p
    best = int(np.argmax(gaps))
    tau = float(pooled[best])
    advantage = float(gaps[best])
    hit_p = float(np.sum(zp > tau))
    hit_u = float(np.sum(zu > tau))
    lo_p, hi_p = wilson_interval(hit_p, len(zp))
    lo_u, hi_u = wilson_interval(hit_u, len(zu))
    return ThresholdReport(
        tau=tau,
        advantage=advantage,
        ci_low=lo_p - hi_u,
        ci_high=hi_p - lo_u,
    )
