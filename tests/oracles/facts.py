"""Information inequalities behind the hybrid argument, as checks on dense arrays.

Pinsker's inequality, the TV chain fact and the Markov fact are what the
step-by-step hybrid certificate rests on; the tests check them on random pmfs.
Joints are numpy arrays, indexed by the variables in the order named.
"""

import numpy as np

from panshuffle.metrics import kl_divergence, tv_distance


def pinsker_check(p, q) -> bool:
    """tv(p,q)^2 <= KL(p||q)/2, up to 1e-12."""
    return tv_distance(p, q) ** 2 <= 0.5 * kl_divergence(p, q) + 1e-12


def fact_tv_chain_check(joint_ab, joint_ab_prime) -> bool:
    """Check tv((A,B),(A,B')) <= E_{a~A}[tv(B|a, B'|a)] + 1e-9 for shared-marginal joints."""
    t1 = np.asarray(joint_ab, dtype=np.float64)
    t2 = np.asarray(joint_ab_prime, dtype=np.float64)
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
