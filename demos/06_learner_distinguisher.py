"""Turn any parity learner into a two-world distinguisher with a noised count.

World one streams labeled samples with a planted parity of strength alpha;
world two streams uniform labels. The reduction hands a learning phase to
the learner, then scores T = ceil(scale / (alpha * eps)) test samples
against the learned parity, keeping the running count Laplace-noised in the
state and adding fresh noise at output. Under the planted law the count
concentrates at T(1/2 + alpha), under uniform at T/2, so one threshold on
the reported scalar separates the worlds with constant advantage.
"""

import math

import numpy as np

from panshuffle import (
    LearnerDistinguisher,
    ParityIndex,
    PlantedLearner,
    PlugInParityLearner,
    run_pan,
    threshold_distinguisher,
)
from panshuffle.rng import make_generator

d, alpha, epsilon = 10, 0.2, 1.0
planted = ParityIndex((1,), 1)


def score_cdf(z: np.ndarray, test_len: int, q: float, b: float) -> np.ndarray:
    """Exact CDF of Bin(T, q) + Lap(b) + Lap(b) at each point of ``z``.

    Two iid Laplace(b) draws sum to a law with CDF 1 - (2 + y/b) e^(-y/b) / 4
    for y >= 0 and (2 - y/b) e^(y/b) / 4 below 0; mix it over the T + 1
    binomial terms.
    """
    cdf = np.zeros_like(z)
    for j in range(test_len + 1):
        y = (z - j) / b
        tail = (2.0 + np.abs(y)) * np.exp(-np.abs(y)) / 4.0
        cdf += math.comb(test_len, j) * q**j * (1 - q) ** (test_len - j) * np.where(
            y >= 0, 1.0 - tail, tail)
    return cdf


def ks_one_sample(z: np.ndarray, cdf) -> tuple[float, float]:
    """KS distance of the sample ``z`` to ``cdf``, and its asymptotic p-value.

    The p-value is the Kolmogorov series P[K > x] = 2 sum_k (-1)^(k-1)
    e^(-2 k^2 x^2) at x = sqrt(n) D.
    """
    n = len(z)
    f = cdf(np.sort(z))
    ranks = np.arange(1, n + 1)
    dist = float(max((ranks / n - f).max(), (f - (ranks - 1) / n).max()))
    k = np.arange(1, 101)
    series = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * math.sqrt(n) * dist) ** 2))
    return dist, float(min(1.0, max(0.0, series)))

# --- the reported scalar follows a pinned-down law -------------------------
# With an oracle learner and no learning phase the score is a Binomial count
# plus two independent Laplace(1/eps) draws. Check that against its exact CDF
# at a short test length.
dist = LearnerDistinguisher(
    learner=PlantedLearner(index=planted), d=d, alpha=alpha, epsilon=epsilon,
    n_learn=0, test_phase_scale=4.0,
)
T = dist.test_len
print(f"scale 4.0 gives test length T = {T}")
rng = make_generator(21, "law-check")
z = dist.run_batch(planted, 30_000, rng)
ks, pvalue = ks_one_sample(z, lambda x: score_cdf(x, T, 0.5 + alpha, 1 / epsilon))
print(f"planted world vs exact Binomial(T, 1/2 + a) + 2 Lap(1/eps): "
      f"KS D = {ks:.4f}, p = {pvalue:.3f}")
print(f"empirical means: planted {np.mean(z):.2f} "
      f"(theory {T * (0.5 + alpha):.1f}), uniform "
      f"{np.mean(dist.run_batch(None, 30_000, rng)):.2f} (theory {T / 2:.1f})")

# --- at the default scale the advantage is constant ------------------------
dist = LearnerDistinguisher(
    learner=PlantedLearner(index=planted), d=d, alpha=alpha, epsilon=epsilon,
    n_learn=0,
)
print(f"\ndefault scale {dist.test_phase_scale} gives T = {dist.test_len}")
rng = make_generator(22, "advantage")
z_p = dist.run_batch(planted, 40_000, rng)
z_u = dist.run_batch(None, 40_000, rng)
report = threshold_distinguisher(z_p, z_u)
print(f"best threshold tau = {report.tau:.1f}")
print(f"advantage {report.advantage:.4f}, "
      f"99% band [{report.ci_low:.4f}, {report.ci_high:.4f}]")

# --- a real learner closes the loop ----------------------------------------
# The plug-in learner estimates every candidate parity from the learning
# phase and keeps the best. Give it 400 learning samples at d=4 and it finds
# the planted subset almost always, so the advantage stays near the oracle's.
d_small = 4
dist = LearnerDistinguisher(
    learner=PlugInParityLearner(d=d_small, k=1), d=d_small, alpha=alpha,
    epsilon=epsilon, n_learn=400,
)
rng = make_generator(23, "plug-in")
z_p = dist.run_batch(ParityIndex((2,), -1), 12_000, rng)
z_u = dist.run_batch(None, 12_000, rng)
report = threshold_distinguisher(z_p, z_u)
print(f"\nplug-in learner at d={d_small}, 400 learning samples: "
      f"advantage {report.advantage:.4f}")

# --- the whole reduction is itself an online algorithm ---------------------
# During the test phase the state is (phase, guess, noised count): the
# running count is Laplace-noised from the start and the output adds fresh
# noise, so an intrusion there learns nothing a noised counter would not
# reveal. During the learning phase the plug-in learner buffers raw rows;
# the reduction adds no protection of its own there, it only promises not to
# leak more than the learner's own state does.
alg = dist.as_pan_algorithm()
stream_rng = make_generator(24, "stream")
# Build a planted stream by hand: rows are (x_1..x_d, label) with the label
# agreeing with -x_2 on a 1/2 + alpha fraction of rows.
rows = stream_rng.choice([-1, 1], size=(dist.total_len, d_small + 1))
agree = stream_rng.random(dist.total_len) < 0.5 + alpha
rows[:, d_small] = np.where(agree, -rows[:, 1], rows[:, 1])
stream = [tuple(int(v) for v in row) for row in rows]
t_test = dist.n_learn + dist.test_len // 2
view = run_pan(alg, stream, t=t_test, rng=make_generator(25, "run"))
print(f"one online run, intrusion at t={t_test} (test phase): "
      f"state {view.state},")
print(f"reported scalar {view.output:.2f}")
