"""The noisy solver: an instance's candidate means under its trust model, then its decision.

Tests check that it is ``decide`` of ``private_means`` on the instance's
feature matrix, and that at an infinite budget it agrees with the package's
noiseless ``plug_in_solve``.
"""

import numpy as np

from panshuffle.baselines import ProblemInstance, _private_means, decide, feature_matrix


def solve(inst: ProblemInstance, samples: np.ndarray, rng=None):
    """Estimate candidate means under the instance's model, then decide."""
    features = feature_matrix(inst, samples)
    return decide(inst, _private_means(features, inst.noise, rng))
