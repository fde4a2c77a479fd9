"""Trust-model primitives: local randomizers, shuffled protocols, online algorithms.

A shuffled protocol is (randomizer, analyzer, n): each user feeds one input to
the randomizer, the resulting messages are shuffled, and the analyzer reads the
anonymized pool. Shuffling is represented canonically by the multiset of
messages, stored as a count vector over the randomizer's finite alphabet; any
analyzer defined on counts is permutation-invariant by construction.

An online algorithm consumes a stream through per-step state updates over a
declared state space and ends with an output map. The adversary model grants
one look at an internal state plus the final output (:func:`run_pan` returns
exactly that view). An algorithm either declares probability kernels (dicts
mapping outcome to probability), which the exact engine propagates and
:func:`run_pan` samples step by step, or one sampler of the whole view.

States, messages, and outputs must be hashable; the exact engine indexes them
and propagates their laws in float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from .errors import _read_keys
from .rng import as_generator

__all__ = [
    "PrivacyBudget",
    "Randomizer",
    "Analyzer",
    "ShuffleProtocol",
    "PanPrivateAlgorithm",
    "AdversaryView",
    "run_shuffle",
    "run_pan",
    "binary_randomized_response",
    "asymmetric_binary_randomizer",
    "echo_randomizer",
    "threshold_analyzer",
    "histogram_analyzer",
    "quantized_laplace_pmf",
    "quantized_laplace_counter",
    "quantization_slack",
    "noisy_parity_chain",
    "saturating_counter",
    "constant_mechanism",
    "mechanism_from_manifest",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) target plus the participation floor gamma for drop-outs.

    gamma is the smallest fraction of the declared cohort that must remain for
    the guarantee to be claimed; gamma = 1 tolerates no drop-out.
    """

    epsilon: float
    delta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if not self.epsilon >= 0 or not 0.0 <= self.delta < 1.0 or not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"invalid budget {self}")


@dataclass(frozen=True)
class Randomizer:
    """Per-user randomizer over a finite alphabet: one exact kernel, one count sampler.

    A user's messages are kept only as the count vector they add, aligned with
    ``alphabet``, since the shuffle reveals no more than the multiset.
    ``kernel_fn(x)`` is the exact law of that vector, ``{counts_tuple: prob}``.
    The sampler is a pure function of its uniforms: each input consumes
    ``uniforms`` draws of U[0, 1), and ``batch_fn(xs, u)`` maps the sequence
    ``xs`` and a ``(len(xs), uniforms)`` array ``u`` to a ``(len(xs),
    len(alphabet))`` count matrix whose row i reads only ``xs[i]`` and
    ``u[i]``. :meth:`emit_batch` draws ``u`` as ``rng.random((len(xs),
    uniforms))``, so a batch consumes the generator as its one-input calls do
    in turn. Kernel and sampler raise ``ValueError`` on an input outside the
    randomizer's domain, and the sampler agrees in law with the kernel (tests
    enforce this for the built-ins).
    """

    alphabet: tuple
    kernel_fn: Callable[[Any], dict]
    batch_fn: Callable[[Sequence, np.ndarray], np.ndarray]
    uniforms: int
    name: str = "randomizer"

    def kernel(self, x) -> dict:
        return self.kernel_fn(x)

    def emit_batch(self, xs: Sequence, rng) -> np.ndarray:
        return self.batch_fn(xs, as_generator(rng).random((len(xs), self.uniforms)))


@dataclass(frozen=True)
class Analyzer:
    """Deterministic read-out of the shuffled count vector."""

    fn: Callable[[np.ndarray], Hashable]
    name: str = "analyzer"

    def __call__(self, counts: np.ndarray) -> Hashable:
        return self.fn(np.asarray(counts))


@dataclass(frozen=True)
class ShuffleProtocol:
    randomizer: Randomizer
    analyzer: Analyzer
    n: int
    budget: PrivacyBudget | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class AdversaryView:
    """What the one-intrusion adversary sees: a state at time t, plus the output."""

    t: int
    state: Hashable
    output: Hashable


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The table ``rng.choice(len(probs), p=probs / probs.sum())`` searches, checked as it checks.

    ``cdf.searchsorted(rng.random(), side="right")`` then picks what that call picks.
    """
    total = probs.sum()
    if not 0.0 < total < math.inf or probs.min() < 0.0:
        raise ValueError(f"probabilities must be non-negative with a positive finite sum: {probs}")
    cdf = (probs / total).cumsum()
    return cdf / cdf[-1]


def run_shuffle(
    protocol: ShuffleProtocol,
    dataset: Sequence,
    rng=None,
) -> tuple[np.ndarray, Hashable]:
    """Execute one shuffled round on a dataset of exactly ``protocol.n`` users.

    Returns (count vector, analyzer output).
    """
    if len(dataset) != protocol.n:
        raise ValueError(f"dataset has {len(dataset)} users, expected n={protocol.n}")
    gen = as_generator(rng)
    counts = protocol.randomizer.emit_batch(dataset, gen).sum(axis=0)
    return counts, protocol.analyzer(counts)


@dataclass(frozen=True)
class PanPrivateAlgorithm:
    """Online algorithm as explicit kernels, or as one whole-view sampler.

    Exact mode requires ``init_kernel`` ({state: prob}), ``update_kernel(i, x,
    state) -> {state: prob}`` (i is the 1-based step), and ``output_kernel
    (state) -> {output: prob}``. :func:`run_pan` samples a view from
    ``view_sample(stream, t, rng) -> (state after element t, output)`` when it
    is set, and otherwise draws each step from these kernels.

    ``output_noise`` ({integer offset: prob}) declares the output as the integer
    state plus independent noise; ``output_kernel`` is then derived as ``{state +
    offset: prob}`` in the noise's order (setting both is refused), and the
    exact engine builds the output table from the noise with array operations.
    ``update_offset(i, x) -> int`` likewise declares the update ``state + offset``:
    ``update_kernel`` (``{state + offset: 1.0}``) is derived from it, setting
    both is refused, and :func:`run_pan` steps such an update without a draw.
    """

    name: str
    init_kernel: dict | None = None
    update_kernel: Callable[[int, Any, Hashable], dict] | None = None
    output_kernel: Callable[[Hashable], dict] | None = None
    output_noise: dict | None = None
    update_offset: Callable[[int, Any], int] | None = None
    view_sample: Callable[[Sequence, int, np.random.Generator], tuple] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # ``dataclasses.replace`` passes back the callables derived for the original
        for declared, name, derive in [("output_noise", "output_kernel", self._shift),
                                       ("update_offset", "update_kernel", self._offset_kernel)]:
            if getattr(self, declared) is None:
                continue
            own = getattr(self, name)
            if own is not None and getattr(own, "__func__", None) is not derive.__func__:
                raise ValueError(f"{self.name}: set {name} or {declared}, not both")
            object.__setattr__(self, name, derive)

    def _shift(self, state) -> dict:
        return {state + j: p for j, p in self.output_noise.items()}

    def _offset_kernel(self, i: int, x, state) -> dict:
        return {state + self.update_offset(i, x): 1.0}

    @property
    def has_exact(self) -> bool:
        return None not in (self.init_kernel, self.update_kernel, self.output_kernel)


def _draw(dist: dict, rng: np.random.Generator):
    """One outcome of the law ``dist``: the one ``rng.choice`` over its probabilities picks."""
    outcomes = list(dist)
    cdf = _choice_cdf(np.fromiter(dist.values(), dtype=np.float64, count=len(outcomes)))
    return outcomes[cdf.searchsorted(rng.random(), side="right")]


def run_pan(alg: PanPrivateAlgorithm, stream: Sequence, t: int, rng=None) -> AdversaryView:
    """Run the online algorithm, recording the state after element t.

    ``t`` is 1-based and must satisfy 1 <= t <= len(stream); the view pairs the
    recorded state with the final output of the same execution. An algorithm
    with a ``view_sample`` draws the whole view in that one call; any other
    draws its initial state, one update per element (none for a declared
    ``update_offset``) and its output from its kernels. An algorithm with
    neither form is refused before any draw.
    """
    if not 1 <= t <= len(stream):
        raise ValueError(f"intrusion time {t} outside [1, {len(stream)}]")
    gen = as_generator(rng)
    if alg.view_sample is not None:
        seen, output = alg.view_sample(stream, t, gen)
        return AdversaryView(t=t, state=seen, output=output)
    if not alg.has_exact:
        raise ValueError(f"{alg.name}: no view_sample and no kernels to sample from")
    state, seen = _draw(alg.init_kernel, gen), None
    for i, x in enumerate(stream, start=1):
        if alg.update_offset is not None:
            state = state + alg.update_offset(i, x)
        else:
            state = _draw(alg.update_kernel(i, x, state), gen)
        if i == t:
            seen = state
    return AdversaryView(t=t, state=seen, output=_draw(alg.output_kernel(state), gen))


# ---------------------------------------------------------------------------
# randomizers and analyzers


def _bit(x) -> int:
    """The input as the bit 0 or 1; ValueError on any value not equal to one, 1.5 included."""
    if x in (0, 1):
        return int(x)
    raise ValueError(f"input must be a bit, got {x!r}")


def _bits(xs: Sequence) -> np.ndarray:
    """The inputs as an int64 array of bits, mapped in one pass; ValueError at the first non-bit."""
    return np.fromiter(map(_bit, xs), dtype=np.int64, count=len(xs))


def _one_hot(idx: np.ndarray, width: int) -> np.ndarray:
    """Count matrix with a single 1 per row, in column ``idx[row]``."""
    counts = np.zeros((len(idx), width), dtype=np.int64)
    counts[np.arange(len(idx)), idx] = 1
    return counts


def binary_randomized_response(flip_p: float) -> Randomizer:
    """One-bit randomized response: report the input bit, flipped w.p. flip_p."""
    if not 0.0 <= flip_p <= 0.5:
        raise ValueError("flip_p must be in [0, 1/2]")

    def kernel(x):
        bit = _bit(x)
        stay = ((1, 0), (0, 1))[bit]
        move = ((0, 1), (1, 0))[bit]
        if flip_p == 0.0:
            return {stay: 1.0}
        return {stay: 1.0 - flip_p, move: flip_p}

    def batch(xs, u):
        return _one_hot(_bits(xs) ^ (u[:, 0] < flip_p), 2)

    return Randomizer(
        alphabet=(0, 1), kernel_fn=kernel, batch_fn=batch, uniforms=1, name=f"rr(flip={flip_p})",
    )


def asymmetric_binary_randomizer(p_one_given_one: float, p_one_given_zero: float) -> Randomizer:
    """Binary channel randomizer with distinct per-input report probabilities."""
    for p in (p_one_given_one, p_one_given_zero):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")

    def kernel(x):
        p = p_one_given_one if _bit(x) else p_one_given_zero
        out = {}
        if p < 1.0:
            out[(1, 0)] = 1.0 - p
        if p > 0.0:
            out[(0, 1)] = p
        return out

    def batch(xs, u):
        p = np.where(_bits(xs), p_one_given_one, p_one_given_zero)
        return _one_hot((u[:, 0] < p).astype(np.int64), 2)

    return Randomizer(
        alphabet=(0, 1), kernel_fn=kernel, batch_fn=batch, uniforms=1,
        name=f"channel({p_one_given_zero},{p_one_given_one})",
    )


def echo_randomizer(alphabet: Sequence) -> Randomizer:
    """Forward the input unchanged (no privacy; used for worst-case baselines)."""
    alphabet = tuple(alphabet)
    lookup = {m: i for i, m in enumerate(alphabet)}

    def outside(x) -> ValueError:
        return ValueError(f"input {x!r} outside alphabet {alphabet}")

    def index(x) -> int:
        if x not in lookup:
            raise outside(x)
        return lookup[x]

    def kernel(x):
        vec = [0] * len(alphabet)
        vec[index(x)] = 1
        return {tuple(vec): 1.0}

    def batch(xs, u):
        try:
            idx = np.fromiter(map(lookup.__getitem__, xs), dtype=np.int64, count=len(xs))
        except KeyError as miss:
            raise outside(miss.args[0]) from None
        return _one_hot(idx, len(alphabet))

    return Randomizer(alphabet=alphabet, kernel_fn=kernel, batch_fn=batch, uniforms=0, name="echo")


def threshold_analyzer(cutoff: int) -> Analyzer:
    """Output 1 when the 1-message count exceeds ``cutoff`` (binary alphabet)."""
    return Analyzer(
        fn=lambda counts: int(counts[1] > cutoff),
        name=f"threshold(>{cutoff})",
    )


def histogram_analyzer() -> Analyzer:
    """Output the full count vector (as a tuple)."""
    return Analyzer(
        fn=lambda counts: tuple(int(c) for c in counts),
        name="histogram",
    )


# ---------------------------------------------------------------------------
# online mechanisms


def _ones(x) -> int:
    """Count of +1 entries of a sign-tuple element; 1 for a scalar 1, 0 for any other whole number.

    A scalar that is not a whole number (1.5, nan) and a tuple entry other
    than +-1 raise ValueError.
    """
    if isinstance(x, tuple):
        if not all(v == 1 or v == -1 for v in x):
            raise ValueError(f"a sign-tuple element holds only +-1 entries, got {x!r}")
        return sum(1 for v in x if v == 1)
    if x % 1 != 0:  # nan and inf too
        raise ValueError(f"element must be a whole number or a sign tuple, got {x!r}")
    return 1 if x == 1 else 0


def quantized_laplace_pmf(scale: float, step: float, span: float) -> tuple[dict, float]:
    """Grid pmf of Laplace(0, scale) with the out-of-range tails folded inward.

    States are integer grid indices k meaning the value k*step, for k in
    [-K, K] with K = round(span/step). Each interior cell gets the Laplace mass
    of [k*step - step/2, k*step + step/2); the two end cells absorb their
    tails. Returns (pmf dict, folded tail mass) so callers can account for the
    truncation when quoting audit slack. A parameter not positive and finite raises ValueError.
    """
    for k, v in [("scale", scale), ("step", step), ("span", span)]:
        if not 0.0 < v < math.inf:
            raise ValueError(f"quantized_laplace_pmf: {k} must be positive and finite, got {v}")
    K = int(round(span / step))
    ks = np.arange(-K, K + 1)
    upper = (ks + 0.5) * step
    lower = (ks - 0.5) * step

    def cdf(v):
        v = np.asarray(v, dtype=np.float64)
        return np.where(v < 0, 0.5 * np.exp(v / scale), 1.0 - 0.5 * np.exp(-v / scale))

    mass = cdf(upper) - cdf(lower)
    tail = float(cdf(lower[0]) + (1.0 - cdf(upper[-1])))
    mass[0] += cdf(lower[0])
    mass[-1] += 1.0 - cdf(upper[-1])
    pmf = {int(k): float(m) for k, m in zip(ks, mass) if m > 0.0}
    return pmf, tail


def quantized_laplace_counter(
    eps_update: float,
    eps_output: float,
    step: float = 1.0 / 64,
    span: float | None = None,
    sensitivity: float = 1.0,
) -> PanPrivateAlgorithm:
    """Noise-initialized counter over an integer grid, re-noised at output.

    The state starts at quantized Laplace(sensitivity/eps_update) noise, each
    element shifts it by its count of +1 entries (a bit counts 1 when it is
    1), and the output adds independent quantized
    Laplace(sensitivity/eps_output) noise. With the one-look adversary the
    released view is ``max(eps_update, eps_output)``-private up to the folded
    tail mass: the look and the output expose disjoint noise draws. States are
    integer grid indices; ``meta['step']`` converts back to values, and
    ``meta['tail_mass']`` records the total folded tail for slack accounting.

    The default span is ``64 * sensitivity / min(eps_update, eps_output)``,
    keeping the folded tails below exp(-64). The shift is the algorithm's
    ``update_offset`` and the release noise its ``output_noise``. A parameter
    that is not positive and finite raises ``ValueError`` naming it, before any arithmetic.
    """
    for key, value in [("eps_update", eps_update), ("eps_output", eps_output), ("step", step),
                       ("span", span), ("sensitivity", sensitivity)]:
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"qlap_counter: {key} must be positive and finite, got {value}")
    if 1.0 / step != round(1.0 / step):
        raise ValueError("step must divide 1 so integer increments stay on the grid")
    if span is None:
        span = 64.0 * sensitivity / min(eps_update, eps_output)
    per_unit = int(round(1.0 / step))
    init_pmf, tail_init = quantized_laplace_pmf(sensitivity / eps_update, step, span)
    out_pmf, tail_out = quantized_laplace_pmf(sensitivity / eps_output, step, span)

    return PanPrivateAlgorithm(
        name="qlap-counter",
        init_kernel=dict(init_pmf),
        update_offset=lambda i, x: _ones(x) * per_unit,
        output_noise=out_pmf,
        meta={
            "step": step,
            "span": span,
            "eps_update": eps_update,
            "eps_output": eps_output,
            "tail_mass": tail_init + tail_out,
        },
    )


def quantization_slack(alg: PanPrivateAlgorithm, eps: float) -> float:
    """Audit slack (1 + e^eps) * folded-tail-mass for a quantized mechanism."""
    tail = float(alg.meta.get("tail_mass", 0.0))
    return (1.0 + math.exp(eps)) * tail


def noisy_parity_chain(flip_p: float) -> PanPrivateAlgorithm:
    """Binary state tracking the running parity of 1-values, flipped w.p. flip_p."""
    if not 0.0 <= flip_p <= 0.5:
        raise ValueError("flip_p must be in [0, 1/2]")

    def update_kernel(i, x, s):
        nxt = s ^ (_ones(x) & 1)
        if flip_p == 0.0:
            return {nxt: 1.0}
        return {nxt: 1.0 - flip_p, nxt ^ 1: flip_p}

    return PanPrivateAlgorithm(
        name="noisy-parity",
        init_kernel={0: 1.0},
        update_kernel=update_kernel,
        output_kernel=lambda s: {s: 1.0},
    )


def saturating_counter(cap: int) -> PanPrivateAlgorithm:
    """Deterministic count of 1-values, capped at ``cap`` (not private; for tests)."""

    return PanPrivateAlgorithm(
        name="saturating-counter",
        init_kernel={0: 1.0},
        update_kernel=lambda i, x, s: {min(s + _ones(x), cap): 1.0},
        output_kernel=lambda s: {s: 1.0},
    )


def constant_mechanism(value: Hashable = 0) -> PanPrivateAlgorithm:
    return PanPrivateAlgorithm(
        name="constant",
        init_kernel={0: 1.0},
        update_kernel=lambda i, x, s: {0: 1.0},
        output_kernel=lambda s: {value: 1.0},
    )


# manifest type -> (builder, its keys as (wanted type, default); ``...`` marks a required key)
_MANIFESTS = {
    "binary_rr": (binary_randomized_response, {"flip_p": (float, ...)}),
    "channel": (asymmetric_binary_randomizer,
                {"p_one_given_one": (float, ...), "p_one_given_zero": (float, ...)}),
    "echo": (echo_randomizer, {"alphabet": (list[float | str], (0, 1))}),
    "qlap_counter": (quantized_laplace_counter, {
        "eps_update": (float, ...), "eps_output": (float, ...), "step": (float, 1.0 / 64),
        "span": (float, None), "sensitivity": (float, 1.0),
    }),
    "noisy_parity": (noisy_parity_chain, {"flip_p": (float, ...)}),
    "saturating_counter": (saturating_counter, {"cap": (int, ...)}),
}


def mechanism_from_manifest(manifest: dict):
    """Build a mechanism from a JSON manifest {"type": ..., params...}, typed by ``_MANIFESTS``.

    An unknown type, a missing (or null) required key, an unknown key or a
    value of the wrong JSON type raises ``ValueError`` naming the type and the key.
    """
    if not isinstance(manifest, dict):
        raise ValueError(f"mechanism manifest must be a JSON object, got {manifest!r}")
    kind = manifest.get("type")
    if not isinstance(kind, str) or kind not in _MANIFESTS:
        raise ValueError(f"mechanism manifest: 'type' must be one of {list(_MANIFESTS)}, "
                         f"got {kind!r}")
    build, keys = _MANIFESTS[kind]
    params = {key: value for key, value in manifest.items() if key != "type"}
    return build(**_read_keys(f"{kind} manifest", params, keys))
