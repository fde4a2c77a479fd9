"""Exact distribution propagation, privacy audits, and the hybrid certificate.

A law through a shuffle is a :class:`CountLaw`: distinct count vectors (one
column per message of the alphabet) as mixed-radix int64 codes, and a float64
probability vector. Every chain of convolutions (a cohort, an audit's two
cohorts, the wrapper law) is set up by ``_chain``: it builds each distinct
user's kernel once and fixes one stride vector from the sum of every cohort
it is given, before the first product. Each user's step then adds codes and
merges equal ones with one stable sort and ``np.bincount``, in a deterministic
order with no hash dependence. Count vectors are decoded once, on demand.
``convolve_counts`` and ``exact_shuffle_counts`` return ``{counts_tuple:
prob}`` dicts built from it. A chain of kernels of at most four symbols
whose count vectors all hold one message total (every one-message
randomizer) runs instead on a :class:`_Grid`, a dense array over the codes
of every count but the first, where a user's step is one shifted add per
kernel entry and no sort; the adds run in the merge's order, so every
probability keeps its bits, and the grid becomes a ``CountLaw`` at the
chain's end. ``_chain`` makes that choice too: the grid's box holds about
(w - 1)! cells per vector of a w-symbol cohort, so from five symbols on
the merge is the faster one.

Online algorithms run on an indexed array engine. At each time t the reachable
states get integer indices in first-seen order, shared by every stream
propagated together (two neighbors, or a reference and the family members), so
arrays line up without depending on hash order. Step t's kernel is COO arrays
(rows at t-1, cols at t, weights): one array sum for an update declared as
state plus ``update_offset``, else enumerated from ``update_kernel``. The
output law of each final state is one dense table O, built on every call with
no cache; for an output declared as state plus ``output_noise`` it is written
in row blocks straight from the noise, with no kernel. Forward laws come from
``np.bincount``; backward products ``B_n = O``, ``B_{t-1} = T_t B_t`` give the
output law given the time-t state. A step that is a partial map (a fixed
element through a deterministic update) makes ``B_{t-1}`` a row gather of
``B_t``, kept as a row index. The one-intrusion view at every t is
``law_t[:, None] * B_t``. A step that leaves every state at its index on
every stream (an identity map) repeats the earlier view bit for bit, so an
audit of both times builds only the later one. An audit gathers and scales a
view in place, a block of rows at a time, and writes each time's two views,
where either has mass, into one buffer sized for the widest time. An audit's
working memory is that table, that buffer and block-sized scratch. The public
functions still return dictionaries.

Every enumeration is checked against ``MAX_PATHS`` before it starts (support
x kernel size before a count convolution, states x input support before a
step, states x outputs before a view matrix), and the error names the
parameter to reduce.

Audits compare the exact views of a mechanism on two neighboring inputs
through the hockey-stick divergence, in both orderings, on aligned arrays: a
randomizer's cohort message multiset, or an online mechanism's joint (state at
intrusion time, final output), worst case over intrusion times.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .distributions import FiniteDistribution, index_to_vectors
from .errors import GuardError
from .mechanisms import Analyzer, PanPrivateAlgorithm, Randomizer, ShuffleProtocol
from .metrics import _check_eps, _hockey, hockey_stick, mutual_information, tv_distance

MAX_PATHS = 10**7
_VIEW_BLOCK = 1 << 16  # elements per row block of an audit's views: 512 kB, kept in cache
_GRID_WIDTH = 4  # the widest alphabet whose one-total chains run on a :class:`_Grid`
_GRID_CELLS = 10**7  # the most cells a :class:`_Grid` chain's box may hold

__all__ = [
    "convolve_counts",
    "randomizer_kernel_for",
    "exact_shuffle_counts",
    "push_through_analyzer",
    "exact_output_distribution",
    "exact_pan_states",
    "exact_pan_output",
    "exact_pan_view",
    "tv_dicts",
    "hockey_dicts",
    "AuditCurve",
    "audit_privacy",
    "HybridReport",
    "hybrid_tv_certificate",
    "outcome_dict",
]


def _check_paths(size: int, label: str, remedy: str = "") -> None:
    if size > MAX_PATHS:
        raise GuardError(f"{label}: {size} paths exceed the {MAX_PATHS} guard{remedy}")


# ---------------------------------------------------------------------------
# count laws: arrays of count vectors


def _places(span: np.ndarray, label: str) -> np.ndarray:
    """Column strides, then the number of codes, for digits below ``span``; refuses past int64."""
    places = list(accumulate(span.tolist(), operator.mul, initial=1))
    if places[-1] > np.iinfo(np.int64).max:
        raise GuardError(
            f"{label}: {places[-1]} count-vector codes overflow int64; "
            f"reduce the alphabet width ({len(span)}) or the cohort size n"
        )
    return np.array(places, dtype=np.int64)


@dataclass(frozen=True)
class CountLaw:
    """A law over count vectors: ``lo + digits(codes[i])`` has probability ``probs[i]``.

    ``lo`` is the rows' coordinatewise minimum and ``places`` the mixed-radix
    space of the codes. A chain of convolutions fixes one space for its result
    before its first product, so a sum's code is the sum of the codes, and
    merges equal codes with one stable sort and ``np.bincount``: rows come out
    in code order and sums run in pair order, never in hash order. Counts are
    decoded once, when read. One representation serves every alphabet width;
    a chain of one message total and at most four symbols runs on a
    :class:`_Grid` and ends as this law, with the same codes, order and bytes.
    """

    codes: np.ndarray
    probs: np.ndarray
    lo: np.ndarray
    places: np.ndarray

    @classmethod
    def of(cls, dist: dict, width: int) -> CountLaw:
        """A ``{counts tuple: prob}`` law, coded in a space of its own."""
        if not dist:
            raise ValueError("count law: the law is empty")
        widths = {len(key) for key in dist}
        if widths != {width}:
            raise ValueError(f"count law: count tuples of width {sorted(widths)}, expected {width}")
        counts = np.array(list(dist), dtype=np.int64)
        lo, places = counts.min(axis=0), _places(np.ptp(counts, axis=0) + 1, "count law")
        return cls((counts - lo) @ places[:-1], np.fromiter(dist.values(), float), lo, places)

    @classmethod
    def zero(cls, places: np.ndarray) -> CountLaw:
        """The empty cohort: the zero vector with probability one."""
        return cls(np.zeros(1, np.int64), np.ones(1), np.zeros(len(places) - 1, np.int64), places)

    @cached_property
    def counts(self) -> np.ndarray:
        """The ``(m, w)`` int64 count vectors, decoded from the codes."""
        strides = self.places[:-1]
        return self.codes[:, None] // strides % (self.places[1:] // strides) + self.lo

    def within(self, places: np.ndarray) -> CountLaw:
        """This law, coded in the space of ``places``."""
        return CountLaw((self.counts - self.lo) @ places[:-1], self.probs, self.lo, places)

    def __len__(self) -> int:
        return len(self.probs)

    def scaled(self, weight: float) -> CountLaw:
        return CountLaw(self.codes, weight * self.probs, self.lo, self.places)

    def convolve(self, other: CountLaw, label: str = "count convolution") -> CountLaw:
        """Law of the sum of independent draws from two laws of a space that holds the sum.

        Support x kernel size is checked against ``MAX_PATHS`` before any pair is formed.
        """
        _check_paths(len(self) * len(other), label, "; reduce the cohort size n")
        codes, probs = _merge(
            np.add.outer(self.codes, other.codes).ravel(),
            np.multiply.outer(self.probs, other.probs).ravel(),
        )
        return CountLaw(codes, probs, self.lo + other.lo, self.places)

    def __add__(self, other: CountLaw) -> CountLaw:
        """Mixture sum of two laws of one space: both laws' mass on the union of their supports."""
        lo, codes, pa, pb = _union(self, other)
        return CountLaw(codes, pa + pb, lo, self.places)

    def as_dict(self) -> dict:
        return dict(zip(map(tuple, self.counts.tolist()), self.probs.tolist()))

    def settled(self) -> CountLaw:
        """This law: a chain on count codes ends as it runs."""
        return self

    def push(self, analyzer: Analyzer, offset: np.ndarray | int = 0) -> dict:
        """Analyzer-output law of the counts plus ``offset``; the analyzer runs once per row."""
        return _push(zip(self.counts + offset, self.probs.tolist()), analyzer)


@dataclass  # never changed once built; a frozen dataclass takes 0.7 us longer to build, per step
class _Grid:
    """A law whose count vectors all hold ``total`` messages, dense over every count but the first.

    A vector's cell is the code of its later counts in the chain's strides,
    ``c[1:] @ (places[1:-1] // places[1])``; the first count makes up ``total``.
    ``probs[k]`` is the probability of the vector in cell ``offset + k``, and
    ``reach[k]`` says whether it is in the support, zero weight or not, as
    ``_merge`` keeps it. Cells add as vectors do, and within the chain's space
    a :class:`CountLaw` code is ``places[1]`` times the cell plus a first digit
    below ``places[1]``, so codes rise exactly as cells do. A convolution that
    adds the kernel's largest shift first thus gives every cell its terms in
    the merge's order, ascending in the lower law's index, from 0.0: every sum
    keeps its bits. A mixture sum adds aligned arrays, as ``_union`` does.

    A step costs a few passes over the law's cells. Of the box, the cells of
    the chain's space, a cohort of n users of a w-symbol one-total kernel
    reaches about 1/(w - 1)! (its support is C(n + w - 1, w - 1), the box
    about (n + 1)^(w - 1)): 1/6 at four symbols, where a step is still
    cheaper than the merge's sort of the same pairs, and 1/24 at five, where
    it is not.
    """

    probs: np.ndarray
    reach: np.ndarray
    offset: int
    total: int
    places: np.ndarray  # the chain's space, from its empty law
    base: np.ndarray  # the least corner of the chain's space: ``settled`` decodes from it

    @classmethod
    def of(cls, law: CountLaw, base: np.ndarray) -> _Grid:
        """``law``, coded in a chain's space, on the cells its vectors reach."""
        cells = law.codes // law.places[1]
        k = cells - cells.min()
        probs, reach = np.zeros(k.max() + 1), np.zeros(k.max() + 1, bool)
        probs[k], reach[k] = law.probs, True
        offset = _cell(law.lo, law.places) + int(cells.min())
        return cls(probs, reach, offset, int(law.counts[0].sum()), law.places, base)

    @cached_property
    def _shifts(self) -> list:
        """The reached ``(k, prob)`` pairs, largest k first."""
        ks = np.flatnonzero(self.reach)[::-1]
        return list(zip(ks.tolist(), self.probs[ks].tolist()))

    def scaled(self, weight: float) -> _Grid:
        return _Grid(weight * self.probs, self.reach, self.offset, self.total, self.places,
                     self.base)

    def convolve(self, other: _Grid, label: str = "count convolution") -> _Grid:
        paths = int(np.count_nonzero(self.reach)) * len(other._shifts)
        _check_paths(paths, label, "; reduce the cohort size n")
        n, size = len(self.probs), len(self.probs) + len(other.probs) - 1
        probs, reach = np.zeros(size), np.zeros(size, bool)
        for k, q in other._shifts:
            probs[k:k + n] += self.probs * q
            reach[k:k + n] |= self.reach
        return _Grid(probs, reach, self.offset + other.offset, self.total + other.total,
                     self.places, self.base)

    def __add__(self, other: _Grid) -> _Grid:
        lo = min(self.offset, other.offset)
        size = max(self.offset + len(self.probs), other.offset + len(other.probs)) - lo
        probs, reach = np.zeros(size), np.zeros(size, bool)
        for law in (self, other):
            at = slice(law.offset - lo, law.offset - lo + len(law.probs))
            probs[at] += law.probs
            reach[at] |= law.reach
        return _Grid(probs, reach, lo, self.total, self.places, self.base)

    def settled(self) -> CountLaw:
        """The reached vectors as a :class:`CountLaw` of ``places``, in code order.

        Cells are decoded from ``base``: a law that ends a chain lies in the
        chain's space, between ``base`` and ``base`` plus the span of each count.
        """
        cells = self.offset - _cell(self.base, self.places) + np.flatnonzero(self.reach)
        digits = cells[:, None] // (self.places[1:-1] // self.places[1])
        later = self.base[1:] + digits % (self.places[2:] // self.places[1:-1])
        counts = np.column_stack([self.total - later.sum(axis=1), later])
        lo = counts.min(axis=0)
        return CountLaw((counts - lo) @ self.places[:-1], self.probs[self.reach], lo, self.places)


def _cell(counts: np.ndarray, places: np.ndarray) -> int:
    """The cell of a count vector: the code of its later counts, in Python ints."""
    places = places.tolist()
    return sum(map(operator.mul, counts.tolist()[1:], places[1:-1])) // places[1]


def _chain(randomizer: Randomizer, cohorts: Sequence[Sequence], label: str) -> tuple:
    """The one setup of a count chain: its empty law and each user's kernel, keyed by ``id``.

    Each user entry is a fixed input or a ``{input: prob}`` dict, whose kernel
    is built once, or a kernel already built as a :class:`CountLaw`, taken as
    it is. The code space spans the sum of every cohort; past int64 it
    is refused under ``label``. Kernels of at most four symbols whose count
    vectors all hold one message total (every randomizer of one message) run
    on a :class:`_Grid` while its box holds at most ``_GRID_CELLS`` cells;
    any other chain on count codes, merged by ``_merge``. Both give the same
    law, bit for bit. A w-symbol one-total cohort fills about 1/(w - 1)! of
    the box, so up to four symbols the grid's shifted adds beat the merge's
    sort, and from five on they do not.
    """
    width = len(randomizer.alphabet)
    users = {id(u): u for u in chain.from_iterable(cohorts)}
    own = {k: u if isinstance(u, CountLaw)
           else CountLaw.of(randomizer_kernel_for(randomizer, u) if isinstance(u, dict)
                            else randomizer.kernel(u), width) for k, u in users.items()}
    bounds = {k: np.array([law.lo, law.counts.max(axis=0)]) for k, law in own.items()}
    ends = np.array([sum((m * bounds[k] for k, m in Counter(map(id, c)).items()),
                         np.zeros((2, width), int)) for c in cohorts])
    zero = CountLaw.zero(_places(ends[:, 1].max(axis=0) - ends[:, 0].min(axis=0) + 1, label))
    kernels = {k: law.within(zero.places) for k, law in own.items()}
    totals = {t for law in own.values() for t in law.counts.sum(axis=1).tolist()}
    box = zero.places[-1] // zero.places[1]  # the cells of the later counts
    if width <= _GRID_WIDTH and len(totals) == 1 and box <= _GRID_CELLS:
        base = ends[:, 0].min(axis=0)
        return _Grid.of(zero, base), {k: _Grid.of(law, base) for k, law in kernels.items()}
    return zero, kernels


def _merge(codes: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct codes in order; each weight vector summed over equal codes, in input order."""
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    new = np.concatenate(([True], codes[1:] != codes[:-1]))
    return codes[new], *(np.bincount(new.cumsum() - 1, weights=w[order]) for w in weights)


def _union(a: CountLaw, b: CountLaw) -> tuple[np.ndarray, ...]:
    """Two laws' union of supports: its minimum, its codes in order, each law's mass on it."""
    lo = np.minimum(a.lo, b.lo)
    strides = a.places[:-1]
    codes = np.concatenate([a.codes + (a.lo - lo) @ strides, b.codes + (b.lo - lo) @ strides])
    za, zb = np.zeros(len(a)), np.zeros(len(b))
    return lo, *_merge(codes, np.concatenate([a.probs, zb]), np.concatenate([za, b.probs]))


def _push(pairs: Iterable, analyzer: Analyzer) -> dict:
    out: dict = {}
    for counts, p in pairs:
        val = analyzer(np.asarray(counts))
        out[val] = out.get(val, 0.0) + p
    return out


def convolve_counts(d1: dict, d2: dict) -> dict:
    """Convolution of two distributions over count tuples (componentwise sums)."""
    a, b = (CountLaw.of(d, len(next(iter(d1), ()))) for d in (d1, d2))
    places = _places(np.ptp(a.counts, axis=0) + np.ptp(b.counts, axis=0) + 1, "count convolution")
    return a.within(places).convolve(b.within(places)).as_dict()


def outcome_dict(dist: dict | FiniteDistribution) -> dict:
    """A dict law (returned as-is) or a dense hypercube pmf -> {sign tuple: prob}."""
    if isinstance(dist, dict):
        return dist
    vecs = index_to_vectors(np.arange(dist.size), dist.dim)
    return {tuple(int(v) for v in vecs[i]): float(p) for i, p in enumerate(dist.probs) if p > 0}


def randomizer_kernel_for(randomizer: Randomizer, input_dist: dict) -> dict:
    """Count-tuple kernel of the randomizer under a distribution over inputs."""
    out: dict = {}
    for x, px in input_dist.items():
        for counts, pc in randomizer.kernel(x).items():
            out[counts] = out.get(counts, 0.0) + px * pc
    return out


def _shuffle_law(randomizer: Randomizer, *cohorts: Sequence) -> list[CountLaw]:
    """Exact count-vector laws of cohorts of one size, one user convolved in at a time.

    Every cohort runs on one chain set up by :func:`_chain`: one kernel per
    distinct user, and one code space that spans every cohort's result.
    """
    zero, kernels = _chain(randomizer, cohorts, f"cohort of n={len(cohorts[0])}")
    laws = []
    for users in cohorts:
        law = zero
        for i, user in enumerate(users, start=1):
            law = law.convolve(kernels[id(user)], f"cohort of n={len(users)}, user {i}")
        laws.append(law.settled())
    return laws


def exact_shuffle_counts(randomizer: Randomizer, users: Sequence) -> dict:
    """Exact multiset (count-vector) distribution for a cohort: {counts_tuple: prob}.

    Each user entry is either a fixed input or a ``{input: prob}`` dict.
    """
    return _shuffle_law(randomizer, users)[0].as_dict()


def push_through_analyzer(counts_dist: dict, analyzer: Analyzer) -> dict:
    return _push(counts_dist.items(), analyzer)


def exact_output_distribution(mechanism, data: Sequence) -> dict:
    """Exact output law of a protocol or online algorithm on the given inputs.

    For a :class:`ShuffleProtocol`, ``data`` is the cohort (fixed inputs or
    per-user input distributions) and the result is the analyzer-output law;
    :func:`exact_shuffle_counts` gives the multiset law before the analyzer.
    For a :class:`PanPrivateAlgorithm`, ``data`` is the stream and the result
    is the final-output law.
    """
    if isinstance(mechanism, ShuffleProtocol):
        return _shuffle_law(mechanism.randomizer, data)[0].push(mechanism.analyzer)
    if isinstance(mechanism, PanPrivateAlgorithm):
        return exact_pan_output(mechanism, data)
    raise TypeError(f"cannot propagate through {type(mechanism).__name__}")


# ---------------------------------------------------------------------------
# online propagation: the indexed array engine


@dataclass(frozen=True)
class _Kernel:
    """One step as COO arrays: ``weights[j]`` moves mass from ``rows[j]`` to ``cols[j]``.

    Sources are enumerated in index order, so ``rows`` is nondecreasing. In a
    partial map ``rows`` strictly increases and every weight is exactly 1.0.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @property
    def is_map(self) -> bool:
        return bool(np.all(self.rows[1:] > self.rows[:-1]) and np.all(self.weights == 1.0))

    @property
    def is_identity(self) -> bool:
        """A partial map that leaves every source at its index."""
        return np.array_equal(self.cols, self.rows) and self.is_map

    def push(self, law: np.ndarray, size: int) -> np.ndarray:
        """Forward: the law after the step, on ``size`` target indices."""
        return np.bincount(self.cols, weights=law[self.rows] * self.weights, minlength=size)

    def pull(self, table: np.ndarray, size: int) -> np.ndarray:
        """Backward: ``T @ table`` on ``size`` source indices.

        Entries are applied in layers, the j-th entry of every row at once, so
        each scatter hits distinct rows and each row sums in enumeration order:
        the first layer is written, and the later ones are added in order.
        """
        out = np.zeros((size, table.shape[1]))
        n = len(self.rows)
        starts = np.flatnonzero(np.r_[True, self.rows[1:] != self.rows[:-1]])
        rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
        first, *later = np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])
        out[self.rows[first]] = self.weights[first, None] * table[self.cols[first]]
        for j in later:
            out[self.rows[j]] += self.weights[j, None] * table[self.cols[j]]
        return out


def _guard(alg: PanPrivateAlgorithm, size: int, what: str) -> None:
    """Refuse an online enumeration of ``size`` paths before it starts, naming the knob."""
    if size > MAX_PATHS:
        knob = "lower span or raise step" if "span" in alg.meta else "shorten the stream"
        _check_paths(size, f"{alg.name}: {what}", f"; {knob}")


def _join(index: dict, keys: Iterable) -> None:
    """Unseen keys join ``index`` at the next indices, in first-seen order."""
    fresh = [k for k in dict.fromkeys(keys) if k not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))


def _enumerate(alg: PanPrivateAlgorithm, sources: Iterable, index: dict, what: str,
               scales=None) -> _Kernel:
    """COO arrays of ``(row, {target: weight})`` pairs; unseen targets join ``index``.

    Sources are drawn lazily, guarded after each, so none past the one that
    crosses ``MAX_PATHS`` is built. Targets then join in one pass at their
    first-seen position, zero weight or not, so the order follows the
    enumeration and never the hash order. ``scales[s]``, if given, multiplies
    source s's weights; entries of zero weight are then dropped.
    """
    rows: list = []
    kerns: list = []
    total = 0
    for r, kern in sources:
        rows.append(r)
        kerns.append(kern)
        total += len(kern)
        _guard(alg, total, what)
    _join(index, chain.from_iterable(kerns))
    sizes = np.fromiter(map(len, kerns), dtype=np.intp, count=len(kerns))
    cols = np.fromiter(map(index.__getitem__, chain.from_iterable(kerns)), np.intp, count=total)
    w = np.fromiter(chain.from_iterable(k.values() for k in kerns), np.float64, count=total)
    if scales is not None:
        w *= np.repeat(scales, sizes)
    keep = w > 0.0
    return _Kernel(np.repeat(np.array(rows, dtype=np.intp), sizes)[keep], cols[keep], w[keep])


def _step(alg: PanPrivateAlgorithm, i: int, x, states: list, rows, index: dict) -> _Kernel:
    """Step i's kernel from ``states[r]``, r in ``rows``; ``x`` is an element or {element: prob}.

    Update kernels pass through unscaled; ``_enumerate`` multiplies each weight
    by its input's probability (1.0 for a fixed element), one product each.
    With ``update_offset`` no kernel is built: the targets ``states[r] + offset``,
    in (row, input) order, join ``index`` as ``_enumerate``'s do. An element
    law with a negative or non-finite weight, or a mass more than 1e-9 from 1,
    is refused before any state is stepped.
    """
    # a nan weight fails the sign test, and an infinite one the mass test
    if isinstance(x, dict) and not (all(p >= 0.0 for p in x.values())
                                    and abs(sum(x.values()) - 1.0) <= 1e-9):
        raise ValueError(f"step {i}: the element law {x!r} must hold finite "
                         "non-negative weights summing to 1")
    inputs = x if isinstance(x, dict) else {x: 1.0}
    _guard(alg, len(rows) * len(inputs), f"step {i} ({len(rows)} states x {len(inputs)} inputs)")
    px = np.fromiter(inputs.values(), dtype=np.float64, count=len(inputs))
    if alg.update_offset is None:
        sources = ((r, alg.update_kernel(i, xv, states[r])) for r in rows for xv in inputs)
        return _enumerate(alg, sources, index, f"step {i} transitions", np.tile(px, len(rows)))
    offsets = np.fromiter((alg.update_offset(i, xv) for xv in inputs), np.int64, len(inputs))
    rows = np.asarray(rows, dtype=np.intp)
    targets = (np.array(states, dtype=np.int64)[rows, None] + offsets).ravel().tolist()
    _join(index, targets)
    cols = np.fromiter(map(index.__getitem__, targets), np.intp, len(targets))
    w = np.tile(px, len(rows))  # the derived kernel's weight 1.0 times px, bit for bit
    keep = w > 0.0
    return _Kernel(np.repeat(rows, len(inputs))[keep], cols[keep], w[keep])


def _propagate(alg: PanPrivateAlgorithm, streams: Sequence, tails: Sequence = ()):
    """Forward pass of equal-length streams on one shared state index per time.

    Returns ``(states, laws, kernels)``: ``states[t]`` lists the time-t states
    in index order, ``laws[k][t]`` is stream k's law on them, and
    ``kernels[k][t-1]`` is stream k's step-t kernel from its live states.
    Each of ``tails`` (element sequences without a law of their own) appends
    a kernel list enumerated from every indexed state, for backward passes
    that start after any prefix.
    """
    if not alg.has_exact:
        raise ValueError(f"{alg.name} lacks exact kernels")
    init = alg.init_kernel
    states = [list(init)]
    laws = [[np.fromiter(init.values(), dtype=np.float64, count=len(init))] for _ in streams]
    kernels: list[list[_Kernel]] = [[] for _ in [*streams, *tails]]
    for i in range(1, len(streams[0]) + 1):
        index: dict = {}
        prev = states[-1]
        for stream, law, kern in zip(streams, laws, kernels):
            live = np.flatnonzero(law[-1] > 0.0).tolist()
            kern.append(_step(alg, i, stream[i - 1], prev, live, index))
        for tail, kern in zip(tails, kernels[len(streams):]):
            kern.append(_step(alg, i, tail[i - 1], prev, range(len(prev)), index))
        states.append(list(index))
        for law, kern in zip(laws, kernels):
            law.append(kern[-1].push(law[-1], len(index)))
    return states, laws, kernels


def _outputs(alg: PanPrivateAlgorithm, states: list, widest: int, what: str):
    """The outputs in index order and the output table: row r is ``states[r]``'s output law.

    The table is one dense ``(len(states) + 1) x outputs`` array whose last row
    is zero. The first state's kernel sizes the kernel, which is guarded before
    the rest are built (``_enumerate``'s running guard backs up that estimate);
    ``widest`` states x the outputs are guarded, as ``what``, before the table
    is allocated.

    With ``output_noise`` no kernel is built: each code ``state + offset``
    records its first position in a table over the code range, the distinct
    codes are ranked by it, and each block of about ``_VIEW_BLOCK`` codes is
    made twice, once to record it and once to write its weights into the table.
    """
    noise = alg.output_noise
    first = alg.output_kernel(states[0]) if noise is None else noise
    _guard(alg, len(states) * len(first),
           f"output kernel ({len(states)} states x {len(first)} outputs)")

    def table(width: int) -> np.ndarray:
        _guard(alg, widest * width, f"{what} ({widest} states x {width} outputs)")
        return np.zeros((len(states) + 1, width))

    if noise is None:
        index: dict = {}
        rest = ((r, alg.output_kernel(states[r])) for r in range(1, len(states)))
        kernel = _enumerate(alg, chain([(0, first)], rest), index, "output kernel")
        out = table(len(index))
        out[kernel.rows, kernel.cols] = kernel.weights  # one entry per (state, output)
        return list(index), out
    lo = min(states) + min(noise)
    size = max(states) + max(noise) - lo + 1
    _guard(alg, size, f"output code range ({size} codes)")
    offsets = np.fromiter(noise, dtype=np.int64, count=len(noise)) - lo
    weights = np.fromiter(noise.values(), dtype=np.float64, count=len(noise))
    base = np.array(states, dtype=np.int64)
    step = max(1, _VIEW_BLOCK // len(noise))
    blocks = [(r, base[r:r + step, None]) for r in range(0, len(states), step)]
    end = len(states) * len(noise)
    slot = np.full(size, end)
    for r, block in blocks:
        codes = (block + offsets).ravel()
        np.minimum.at(slot, codes, np.arange(r * len(noise), r * len(noise) + len(codes)))
    seen = np.flatnonzero(slot < end)
    fresh = seen[np.argsort(slot[seen])]  # the codes in first-seen order
    slot[fresh] = np.arange(len(fresh))  # each code's rank in that order
    out = table(len(fresh))
    keep = weights > 0.0  # zero-weight outputs stay indexed, as in ``_enumerate``
    live, w = offsets[keep], weights[keep]
    for r, block in blocks:
        out[r:r + len(block)][np.arange(len(block))[:, None], slot[block + live]] = w
    return (fresh + lo).tolist(), out


def _as_dict(keys: list, probs: np.ndarray) -> dict:
    return {k: p for k, p in zip(keys, probs.tolist()) if p > 0.0}


@dataclass(frozen=True)
class _Table:
    """A backward table as rows of a dense one ending in a zero row: row r is ``base[index[r]]``."""

    base: np.ndarray
    index: np.ndarray

    def pull(self, kernel: _Kernel, size: int) -> _Table:
        """``T @ table`` on ``size`` source indices; through a partial map only the index moves.

        A partial map's pull gathers rows times 1.0 and leaves unlisted rows
        zero; any other kernel pulls the rows it reads into a new dense table.
        """
        if kernel.is_map:
            index = np.full(size, len(self.base) - 1)
            index[kernel.rows] = self.index[kernel.cols]
            return _Table(self.base, index)
        read = _Kernel(kernel.rows, self.index[kernel.cols], kernel.weights)
        return _Table(read.pull(self.base, size + 1), np.arange(size))

    def dense(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows ``lo`` to ``hi`` of the table as an array."""
        return self.base[self.index[lo:hi]]


def _backward(alg: PanPrivateAlgorithm, states: list, kernels: Sequence, first: int, what: str):
    """Yield ``(t, outputs, tables)`` for t from n down to ``first``, widest table guarded.

    ``tables[k]`` is kernel list k's ``B_t`` as a :class:`_Table`, the output
    law given the time-t state: ``B_n = O`` and ``B_{t-1} = T_t B_t``.
    """
    n = len(states) - 1
    widest = max(len(s) for s in states[first:])
    outputs, table = _outputs(alg, states[n], widest, what)
    tables = [_Table(table, np.arange(len(states[n])))] * len(kernels)
    for t in range(n, first - 1, -1):
        yield t, outputs, tables
        if t > first:
            tables = [b.pull(kern[t - 1], len(states[t - 1])) for kern, b in zip(kernels, tables)]


def _pan_views(alg: PanPrivateAlgorithm, streams: Sequence, times: Iterable[int]):
    """Yield ``(states_t, outputs, laws_t, tables, rows)`` for each intrusion time t, latest first.

    Stream k's joint law of (state at t, final output) is the states x outputs
    array ``laws_t[k][:, None] * B_t``, with ``B_t = tables[k]`` from
    :func:`_backward`: one backward pass serves every time. A time t whose
    next step is the identity on the index for every stream, with t + 1 also
    wanted, is skipped: each stream's law and ``B_t`` are those of t + 1 on
    every live row, and zero elsewhere, so its views are t + 1's. ``rows`` is
    the most states at any time yielded, so ``rows`` x outputs holds every view.
    """
    n = len(streams[0])
    wanted = set(times)
    for t in wanted:
        if not isinstance(t, (int, np.integer)) or not 1 <= t <= n:
            raise ValueError(f"intrusion time {t!r} is not an integer in [1, {n}]")
    if not wanted:
        raise ValueError("no intrusion time to audit; None audits every time")
    states, laws, kernels = _propagate(alg, streams)
    kept = {t for t in wanted
            if t + 1 not in wanted or not all(kern[t].is_identity for kern in kernels)}
    rows = max(len(states[t]) for t in kept)
    for t, outputs, tables in _backward(alg, states, kernels, min(kept), "view"):
        if t in kept:
            yield states[t], outputs, [law[t] for law in laws], tables, rows


def exact_pan_states(alg: PanPrivateAlgorithm, stream: Sequence) -> dict:
    """State distribution after the whole stream."""
    states, laws, _ = _propagate(alg, [stream])
    return _as_dict(states[-1], laws[0][-1])


def exact_pan_output(alg: PanPrivateAlgorithm, stream: Sequence) -> dict:
    """Final-output law: the state law times the output table, summed down the rows.

    A running sum, row by row, adds each output's mass in state order; a
    one-output table's ``sum`` would add pairwise instead.
    """
    states, laws, _ = _propagate(alg, [stream])
    outputs, table = _outputs(alg, states[-1], len(states[-1]), "output table")
    mass = laws[0][-1][:, None] * table[:-1]
    return _as_dict(outputs, np.add.accumulate(mass, axis=0, out=mass)[-1])


def exact_pan_view(alg: PanPrivateAlgorithm, stream: Sequence, t: int) -> dict:
    """Joint law of (state at time t, final output): {(state, output): prob}.

    The view ``law[:, None] * B_t`` is built a block of about ``_VIEW_BLOCK``
    entries at a time, its nonzero entries added in row-major order.
    """
    states, outputs, (law,), (table,), _ = next(_pan_views(alg, [stream], [t]))
    step = max(1, _VIEW_BLOCK // max(1, len(outputs)))
    out: dict = {}
    for lo in range(0, len(law), step):
        view = law[lo:lo + step, None] * table.dense(lo, lo + step)
        rows, cols = np.nonzero(view)
        out.update(((states[lo + r], outputs[c]), p)
                   for r, c, p in zip(rows.tolist(), cols.tolist(), view[rows, cols].tolist()))
    return out


# ---------------------------------------------------------------------------
# divergences on aligned arrays


def _aligned(p: dict, q: dict) -> tuple[np.ndarray, np.ndarray]:
    """Both laws on their key union, in first-seen order (p's keys, then q's new ones)."""
    keys = dict.fromkeys(p)
    keys.update(dict.fromkeys(q))
    a = np.fromiter((p.get(k, 0.0) for k in keys), dtype=np.float64, count=len(keys))
    b = np.fromiter((q.get(k, 0.0) for k in keys), dtype=np.float64, count=len(keys))
    return a, b


def tv_dicts(p: dict, q: dict) -> float:
    return tv_distance(*_aligned(p, q))


def hockey_dicts(p: dict, q: dict, eps: float) -> float:
    return hockey_stick(*_aligned(p, q), eps)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class AuditCurve:
    """Exact hockey-stick divergences over an epsilon grid, both directions."""

    epsilons: np.ndarray
    delta_forward: np.ndarray
    delta_backward: np.ndarray

    @property
    def delta_max(self) -> np.ndarray:
        return np.maximum(self.delta_forward, self.delta_backward)

    def delta_at(self, eps: float) -> float:
        idx = int(np.argmin(np.abs(self.epsilons - eps)))
        if abs(self.epsilons[idx] - eps) > 1e-12:
            raise ValueError(f"epsilon {eps} not on the audited grid")
        return float(self.delta_max[idx])


def _curve(pairs: Iterable[tuple[np.ndarray, np.ndarray]], eps_grid) -> AuditCurve:
    """Worst hockey-stick divergence over aligned view pairs, in both orderings."""
    eps = np.asarray(eps_grid, dtype=np.float64)
    worst = np.zeros((2, len(eps)))
    for a, b in pairs:
        np.maximum(worst, _hockey(a, b, eps), out=worst)
    return AuditCurve(epsilons=eps, delta_forward=worst[0], delta_backward=worst[1])


def _view_pairs(views: Iterable):
    """Each time's two views ``law[:, None] * B`` where either has mass, in one reused buffer.

    The buffer is sized by the first item's ``rows`` (see :func:`_pan_views`),
    and each block of rows is gathered into one scratch pair and scaled there
    in place, so a pair yielded is overwritten when the next one is drawn.
    """
    pair = scratch = None
    for _, outputs, laws, tables, rows in views:
        width = len(outputs)
        step = max(1, _VIEW_BLOCK // max(1, width))
        if pair is None:
            pair, scratch = np.empty((2, rows * width)), np.empty((2, min(step, rows), width))
        end = 0
        for lo in range(0, len(laws[0]), step):
            va, vb = scratch[:, :min(step, len(laws[0]) - lo)]
            for view, law, table in zip((va, vb), laws, tables):
                table.base.take(table.index[lo:lo + step], axis=0, out=view)
                view *= law[lo:lo + step, None]
            keep = (va > 0.0) | (vb > 0.0)
            kept = np.count_nonzero(keep)
            pair[0, end:end + kept] = va[keep]
            pair[1, end:end + kept] = vb[keep]
            end += kept
        yield pair[0, :end], pair[1, :end]


def audit_privacy(
    mechanism,
    neighbors: tuple[Sequence, Sequence],
    eps_grid,
    intrusion_times: Iterable[int] | None = None,
) -> AuditCurve:
    """Exact privacy curve of a mechanism on one neighboring input pair.

    A :class:`Randomizer` is audited on the cohort's message multiset, a
    :class:`PanPrivateAlgorithm` on the joint (state at t, final output), maximized
    over ``intrusion_times`` (default: every time), each distinct view audited once
    (an identity step's earlier view is its later one); a :class:`ShuffleProtocol`
    raises ``TypeError``: audit its ``.randomizer``. Epsilons must be finite and >= 0,
    and at most ``log`` of the largest float64 (about 709.78), where e^eps overflows.
    An empty grid or time list and a time that is not an integer raise
    ``ValueError`` before any propagation: none of them audits anything.
    """
    data_a, data_b = neighbors
    if len(data_a) != len(data_b):
        raise ValueError("neighboring inputs must have equal length")
    bad = [float(e) for e in eps_grid if not 0.0 <= e < math.inf]
    if bad or len(eps_grid) == 0:
        raise ValueError(f"eps_grid must hold finite non-negative epsilons, got {bad or []}")
    _check_eps(eps_grid)
    if isinstance(mechanism, Randomizer):
        return _curve([_union(*_shuffle_law(mechanism, data_a, data_b))[2:]], eps_grid)
    if isinstance(mechanism, PanPrivateAlgorithm):
        times = range(1, len(data_a) + 1) if intrusion_times is None else intrusion_times
        return _curve(_view_pairs(_pan_views(mechanism, [data_a, data_b], times)), eps_grid)
    hint = "; audit its .randomizer" if isinstance(mechanism, ShuffleProtocol) else ""
    raise TypeError(f"cannot audit {type(mechanism).__name__}{hint}")


# ---------------------------------------------------------------------------
# hybrid certificate


@dataclass(frozen=True)
class HybridReport:
    """Per-step accounting for the hybrid decomposition of an output gap.

    Hybrid ``i`` feeds ``i`` reference elements then member elements drawn with
    a shared latent index. ``per_step_tv[i-1]`` is the output-law gap between
    hybrids i-1 and i; ``per_step_bound[i-1]`` is ``sqrt(I(S_i; V)/2)`` from
    the state/latent mutual information in hybrid i-1's world. The certificate
    checks each step and the telescoped total.
    """

    per_step_tv: tuple[float, ...]
    per_step_bound: tuple[float, ...]
    endpoint_tv: float
    min_slack: float
    ok: bool

    @property
    def total_bound(self) -> float:
        return float(sum(self.per_step_bound))


def hybrid_tv_certificate(alg: PanPrivateAlgorithm, family: Sequence, n: int) -> HybridReport:
    """Certify, step by step, the state-information bound on output distinguishing.

    ``family`` lists the member input distributions (dicts or dense hypercube
    pmfs); the reference is their equal-weight mixture. All n steps are
    checked: the output-law TV between consecutive hybrids must not exceed
    sqrt(I(S_i; V)/2) (slack >= -1e-10), and the endpoint TV must not exceed
    the telescoped sum (up to 1e-10).

    The per-step inequality holds because the reference is the members'
    mixture: the time-i state then has the same marginal law in the two
    hybrids it separates, and Pinsker applies to the joint with the latent
    index.
    """
    members = [outcome_dict(f) for f in family]
    if not members or n < 1:
        raise ValueError("need a nonempty family and n >= 1")
    ref: dict = {}
    for mem in members:
        for x, p in mem.items():
            ref[x] = ref.get(x, 0.0) + p / len(members)

    # one forward pass of the reference prefix; each member's kernels come from
    # every state a hybrid can reach, for its backward pass
    k = len(members)
    states, (ref_laws,), (_, *member_kernels) = _propagate(
        alg, [[ref] * n], tails=[[mem] * n for mem in members]
    )

    # hybrid i's output law is law_ref_i . B_mem_i, averaged over members
    hybrid = []
    for i, outputs, tables in _backward(alg, states, member_kernels, 0, "hybrid tables"):
        acc = np.zeros(len(outputs))
        for table in tables:
            acc += (ref_laws[i][:, None] * table.dense()).sum(axis=0) / k
        hybrid.insert(0, acc)
    per_tv = [tv_distance(hybrid[i - 1], hybrid[i]) for i in range(1, n + 1)]

    # state after i elements in hybrid i-1's world: i-1 reference steps, then
    # one member step with the shared latent index
    bounds = []
    for i in range(1, n + 1):
        table = np.array(
            [kern[i - 1].push(ref_laws[i - 1], len(states[i])) / k for kern in member_kernels]
        )
        info = mutual_information(table)
        bounds.append(math.sqrt(max(0.0, 0.5 * info)))

    endpoint = tv_distance(hybrid[0], hybrid[n])
    slacks = [b - t for t, b in zip(per_tv, bounds)]
    min_slack = min(slacks)
    ok = (min_slack >= -1e-10) and (endpoint <= sum(per_tv) + 1e-10)
    return HybridReport(
        per_step_tv=tuple(per_tv),
        per_step_bound=tuple(bounds),
        endpoint_tv=endpoint,
        min_slack=min_slack,
        ok=ok,
    )
