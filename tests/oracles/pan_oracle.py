"""Reference dict walk for online algorithms: states, views and audit curves.

This is the path-by-path propagation the array engine in ``panshuffle.exact``
replaced. It re-propagates the tail once per prefix state, so it is slow, but
every probability is a sum of explicit path weights; tests compare the engine
against it to 1e-12. Keys are aligned in first-seen order, so results do not
depend on the hash seed.
"""

import math

import numpy as np


def _step(alg, states: dict, i: int, x) -> dict:
    """One update step; ``x`` is a fixed element or an {element: prob} dict."""
    inputs = x if isinstance(x, dict) else {x: 1.0}
    out: dict = {}
    for s, ps in states.items():
        for xv, px in inputs.items():
            for s2, pt in alg.update_kernel(i, xv, s).items():
                w = ps * px * pt
                if w > 0.0:
                    out[s2] = out.get(s2, 0.0) + w
    return out


def pan_states(alg, stream, upto=None) -> dict:
    states = dict(alg.init_kernel)
    stop = len(stream) if upto is None else upto
    for i, x in enumerate(stream[:stop], start=1):
        states = _step(alg, states, i, x)
    return states


def pan_output(alg, stream) -> dict:
    out: dict = {}
    for s, ps in pan_states(alg, stream).items():
        for o, po in alg.output_kernel(s).items():
            out[o] = out.get(o, 0.0) + ps * po
    return out


def pan_view(alg, stream, t: int) -> dict:
    """Joint law of (state at time t, final output): {(state, output): prob}."""
    joint: dict = {}
    for s_t, p_t in pan_states(alg, stream, upto=t).items():
        tail = {s_t: 1.0}
        for i, x in enumerate(stream[t:], start=t + 1):
            tail = _step(alg, tail, i, x)
        for s_n, p_n in tail.items():
            for o, po in alg.output_kernel(s_n).items():
                w = p_t * p_n * po
                if w > 0.0:
                    joint[(s_t, o)] = joint.get((s_t, o), 0.0) + w
    return joint


def audit_curve(alg, neighbors, eps_grid, intrusion_times=None):
    """(delta_forward, delta_backward) over the grid, worst case over intrusion times.

    ``None`` audits every time; an empty list audits nothing and is refused.
    """
    data_a, data_b = neighbors
    times = range(1, len(data_a) + 1) if intrusion_times is None else list(intrusion_times)
    if not times:
        raise ValueError("no intrusion time to audit; None audits every time")
    fwd = np.zeros(len(eps_grid))
    bwd = np.zeros(len(eps_grid))
    for t in times:
        va, vb = pan_view(alg, data_a, t), pan_view(alg, data_b, t)
        keys = list(dict.fromkeys([*va, *vb]))
        a = np.array([va.get(k, 0.0) for k in keys])
        b = np.array([vb.get(k, 0.0) for k in keys])
        for j, e in enumerate(eps_grid):
            scale = math.exp(e)
            fwd[j] = max(fwd[j], float(np.clip(a - scale * b, 0.0, None).sum()))
            bwd[j] = max(bwd[j], float(np.clip(b - scale * a, 0.0, None).sum()))
    return fwd, bwd
