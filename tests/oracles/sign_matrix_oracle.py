"""The sign-matrix builders in their earlier, out-of-place form, kept verbatim.

``sample_by_expression`` is the hard-family sampler's body before the matrix
was built in place: +-1 signs as one int8 expression with an ``astype`` copy,
the target sign as ``np.where`` over Python ints and the tilted coordinate as
an int64 product cast back to int8. ``uniform_rows_by_expression`` is the
learner distinguisher's uniform-world rows as one int64 expression with an
``astype`` copy. ``feature_matrix_by_gather`` casts the samples to int64,
appends an all-ones column, gathers every candidate's columns in one
``(n, m, span)`` index and takes ``prod(axis=2)``, on the column table built
here as ``ProblemInstance.columns`` built it. The two samplers draw what the
package draws, in the same order, so tests compare values, dtype, shape and
the generator's state after the draw (:func:`generator_probe`).
"""

import numpy as np


def sample_by_expression(dist, n: int, gen: np.random.Generator) -> np.ndarray:
    dim = dist.dim
    x = (gen.integers(0, 2, size=(n, dim), dtype=np.int8) * 2 - 1).astype(np.int8)
    s = np.where(gen.random(n) < 0.5 + dist.alpha, dist.index.sign, -dist.index.sign)
    pivot = dist.tilted_subset[-1] - 1
    rest = [j - 1 for j in dist.tilted_subset[:-1]]
    partial = x[:, rest].prod(axis=1) if rest else np.ones(n, dtype=np.int8)
    x[:, pivot] = (s * partial).astype(np.int8)
    return x


def uniform_rows_by_expression(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.integers(0, 2, size=(m, d + 1)) * 2 - 1).astype(np.int64)


def _columns(problem: str, d: int, cands) -> np.ndarray:
    label = [d] if problem == "parity-learning" else []
    width = d + len(label)
    span = max((len(s) for s in cands), default=0) + len(label)
    rows = [[j - 1 for j in s] + label + [width] * (span - len(s) - len(label)) for s in cands]
    return np.array(rows, dtype=np.intp).reshape(len(cands), span)


def feature_matrix_by_gather(problem: str, d: int, cands, samples) -> np.ndarray:
    x = np.atleast_2d(np.asarray(samples, dtype=np.int64))
    if not (np.abs(x) == 1).all():
        raise ValueError("samples must be +-1 signs")
    width = d + (1 if problem == "parity-learning" else 0)
    if x.shape[1] != width:
        raise ValueError(f"expected sample width {width}, got {x.shape[1]}")
    ones = np.ones((x.shape[0], 1), dtype=np.int64)
    return np.concatenate([x, ones], axis=1)[:, _columns(problem, d, cands)].prod(axis=2)


def generator_probe(gen: np.random.Generator) -> tuple:
    """Where a PCG64 generator stands: its state, then its next integer and next double."""
    return gen.bit_generator.state, int(gen.integers(0, 2**62)), float(gen.random())
