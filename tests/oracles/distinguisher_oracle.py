"""The learner distinguisher's batch as one loop of generator calls per trial.

Each trial draws its phase-one rows, fits the learner on them in both worlds,
draws the agreement count from its conditional binomial and then one size-2
Laplace draw. Tests require ``LearnerDistinguisher.run_batch`` with a fitting
learner to return the same bytes and leave the generator at the same word.
"""

import numpy as np

from panshuffle.distributions import ParityIndex
from panshuffle.reductions import LearnerDistinguisher
from panshuffle.rng import as_generator, laplace


def run_batch_loop(
    dist: LearnerDistinguisher, planted: ParityIndex | None, trials: int, rng
) -> np.ndarray:
    rng = as_generator(rng)
    t = dist.test_len
    member = dist._member(planted)
    out = np.empty(trials, dtype=np.float64)
    for j in range(trials):
        rows = dist._draw_rows(member, dist.n_learn, rng)
        guess = dist.learner.fit(rows)
        p_match = dist._match_prob(planted, guess)
        count = rng.binomial(t, p_match)
        noise = laplace(rng, 1.0 / dist.epsilon, size=2)
        out[j] = count + float(noise.sum())
    return out
