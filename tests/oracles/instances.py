"""Small random problem instances for agreement and smoke tests.

Each instance takes its problem, model, sizes and truth from ``rng`` in a
fixed order, so a seed always gives the same instances.
"""

import numpy as np

from panshuffle.baselines import MODELS, PROBLEMS, ProblemInstance
from panshuffle.distributions import ParametricHardDistribution, ParityIndex, member_descriptor
from panshuffle.rng import as_generator


def random_instance(rng, problem: str | None = None, model: str | None = None) -> ProblemInstance:
    """A small random instance; used for agreement and smoke tests."""
    gen = as_generator(rng)
    prob = problem or PROBLEMS[gen.integers(len(PROBLEMS))]
    mod = model or MODELS[gen.integers(len(MODELS))]
    d = int(gen.integers(3, 7))
    k = int(gen.integers(1, 3)) if prob in ("parity-release", "parity-learning") else 1
    alpha = float(gen.uniform(0.1, 0.3))
    n = int(gen.integers(40, 200))
    epsilon = float(gen.uniform(0.5, 2.0))
    delta = 1e-6
    family = "labeled" if prob == "parity-learning" else "plain"
    allow_uniform = prob in ("hypothesis-test", "parity-learning")
    if allow_uniform and gen.random() < 0.25:
        truth: dict = {"family": "uniform", "d": d + (1 if family == "labeled" else 0)}
    else:
        if prob == "parity-learning":
            size = int(gen.integers(0, k + 1))
        elif prob in ("parity-release",):
            size = int(gen.integers(1, k + 1))
        else:
            size = 1
        subset = tuple(sorted(gen.choice(np.arange(1, d + 1), size=size, replace=False).tolist()))
        sign = 1 if prob == "selection" else (1 if gen.random() < 0.5 else -1)
        member = ParametricHardDistribution(
            d=d, index=ParityIndex(subset, sign), alpha=alpha, family=family
        )
        truth = member_descriptor(member, k=k)
    return ProblemInstance(
        problem=prob, model=mod, d=d, k=k, alpha=alpha, n=n,
        epsilon=epsilon, delta=delta, truth=truth,
    )
