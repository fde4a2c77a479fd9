"""The online engine's kernel builders as they were before they went to bulk numpy.

``enumerate_kernel`` extends Python lists one entry at a time, ``step`` scales
every update kernel by the input probability in a dict comprehension (also for
an algorithm with ``update_offset``, through its derived kernel), ``outputs``
enumerates every state's ``output_kernel`` dict (also for an algorithm with
``output_noise``) and scatters them into its dense output table with
``np.add.at``, and ``pull`` adds every layer into zeros. The engine in
``panshuffle.exact`` builds the same arrays in bulk; tests install these in
its place and require every index order, kernel array, output table, law,
backward table and audit value to be bit-identical.

``audit_curve`` is the audit path as it was before backward tables were kept
as row indices: every ``B_t`` a dense array pulled through every step, every
view the dense ``law_t[:, None] * B_t``, masked by ``support``.
"""

from itertools import chain

import numpy as np

from panshuffle import exact


def enumerate_kernel(alg, sources, index: dict, what: str):
    rows: list = []
    cols: list = []
    weights: list = []
    for r, kern in sources:
        fresh = [k for k in kern if k not in index]
        index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
        rows.extend([r] * len(kern))
        cols.extend(map(index.__getitem__, kern))
        weights.extend(kern.values())
        exact._guard(alg, len(weights), what)
    w = np.array(weights, dtype=np.float64)
    keep = w > 0.0
    return exact._Kernel(
        np.array(rows, dtype=np.intp)[keep], np.array(cols, dtype=np.intp)[keep], w[keep]
    )


def step(alg, i: int, x, states: list, rows, index: dict):
    inputs = x if isinstance(x, dict) else {x: 1.0}
    exact._guard(alg, len(rows) * len(inputs),
                 f"step {i} ({len(rows)} states x {len(inputs)} inputs)")
    sources = (
        (r, {s2: px * pt for s2, pt in alg.update_kernel(i, xv, states[r]).items()})
        for r in rows
        for xv, px in inputs.items()
    )
    return enumerate_kernel(alg, sources, index, f"step {i} transitions")


def outputs(alg, states: list, widest: int, what: str):
    first = alg.output_kernel(states[0])
    exact._guard(alg, len(states) * len(first),
                 f"output kernel ({len(states)} states x {len(first)} outputs)")
    index: dict = {}
    rest = ((r, alg.output_kernel(states[r])) for r in range(1, len(states)))
    kernel = enumerate_kernel(alg, chain([(0, first)], rest), index, "output kernel")
    exact._guard(alg, widest * len(index), f"{what} ({widest} states x {len(index)} outputs)")
    table = np.zeros((len(states) + 1, len(index)))
    np.add.at(table, (kernel.rows, kernel.cols), kernel.weights)
    return list(index), table


def output_law(alg, stream) -> dict:
    """The final-output law as the push of the output kernel's entries, in entry order."""
    states, laws, _ = exact._propagate(alg, [stream])
    index: dict = {}
    sources = ((r, alg.output_kernel(s)) for r, s in enumerate(states[-1]))
    kernel = enumerate_kernel(alg, sources, index, "output kernel")
    return exact._as_dict(list(index), kernel.push(laws[0][-1], len(index)))


def pull(kernel, table: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((size, table.shape[1]))
    n = len(kernel.rows)
    starts = np.flatnonzero(np.r_[True, kernel.rows[1:] != kernel.rows[:-1]])
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    layers = np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])
    for j in layers:
        out[kernel.rows[j]] += kernel.weights[j, None] * table[kernel.cols[j]]
    return out


def install(monkeypatch) -> None:
    """Put these builders in place of the engine's for the rest of a test."""
    monkeypatch.setattr(exact, "_enumerate", enumerate_kernel)
    monkeypatch.setattr(exact, "_step", step)
    monkeypatch.setattr(exact, "_outputs", outputs)
    monkeypatch.setattr(exact._Kernel, "pull", pull)


def backward_tables(alg, states: list, kernels, first: int):
    """Yield ``(t, outputs, tables)`` as dense arrays: ``B_n = O``, ``B_{t-1} = T_t B_t``."""
    n = len(states) - 1
    widest = max(len(s) for s in states[first:])
    outputs, table = exact._outputs(alg, states[n], widest, "tables")
    tables = [table[:-1]] * len(kernels)
    for t in range(n, first - 1, -1):
        yield t, outputs, tables
        if t > first:
            tables = [kern[t - 1].pull(b, len(states[t - 1])) for kern, b in zip(kernels, tables)]


def support(va: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = (va > 0.0) | (vb > 0.0)
    return va[keep], vb[keep]


def audit_curve(alg, pair, eps_grid, intrusion_times=None):
    """The online audit through dense views, at every time or at ``intrusion_times``."""
    times = set(range(1, len(pair[0]) + 1) if intrusion_times is None else intrusion_times)
    states, laws, kernels = exact._propagate(alg, list(pair))
    views = (
        support(*(law[t][:, None] * table for law, table in zip(laws, tables)))
        for t, _, tables in backward_tables(alg, states, kernels, min(times))
        if t in times
    )
    return exact._curve(views, eps_grid)
