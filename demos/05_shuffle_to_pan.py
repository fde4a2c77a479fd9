"""Simulate a shuffled protocol as an online algorithm; measure the cost.

The wrapper turns an n-user shuffled protocol (n divisible by 3, drop-out
floor at most one third) into an online algorithm over a stream of n/3
elements. It preloads n/3 shuffled reference messages, gives each stream
element its own message only while a once-drawn budget min(Bin(n, 2/9), n/3)
lasts, and pads with n/3 more reference messages before applying the
analyzer. Two exact facts drive everything:

  null identity: on a reference stream the output law equals the protocol's
  on n reference users, exactly;
  dilution: on a stream from any other law P the output law is within
  P[Bin(n, 2/9) > n/3] of the protocol's on the mixture (2/9) P + (7/9) ref.

The escape mass is not an artifact of the analysis: an echo protocol whose
analyzer thresholds the planted-message count attains it exactly.
"""

import math

from panshuffle import (
    PrivacyBudget,
    ShuffleProtocol,
    binary_randomized_response,
    ShuffleToPanWrapper,
    run_pan,
    wrapper_escape_mass,
)
from panshuffle.exact import exact_output_distribution, tv_dicts
from panshuffle.mechanisms import echo_randomizer, threshold_analyzer
from panshuffle.rng import make_generator

REF = {1: 0.3, 0: 0.7}


def rr_protocol(n: int) -> ShuffleProtocol:
    return ShuffleProtocol(
        randomizer=binary_randomized_response(0.25),
        analyzer=threshold_analyzer(n // 2),
        n=n,
        budget=PrivacyBudget(epsilon=math.log(3), delta=0.0, gamma=1 / 3),
    )


# --- null identity, exactly ----------------------------------------------
n = 6
proto = rr_protocol(n)
wrapper = ShuffleToPanWrapper(protocol=proto, reference=REF)
wrapped = wrapper.exact_output_distribution(REF)
honest = exact_output_distribution(proto, [REF] * n)
print(f"null identity at n={n}: tv = {tv_dicts(wrapped, honest):.2e}")

# --- dilution gap vs the escape bound -------------------------------------
planted = {1: 0.95, 0: 0.05}
diluted = {x: (2 / 9) * planted.get(x, 0.0) + (7 / 9) * REF[x] for x in REF}
wrapped = wrapper.exact_output_distribution(planted)
honest = exact_output_distribution(proto, [diluted] * n)
gap = tv_dicts(wrapped, honest)
print(f"dilution gap at n={n}: {gap:.6f} <= escape mass "
      f"{wrapper_escape_mass(n):.6f}")

# --- the bound is tight ----------------------------------------------------
# Echo protocol: messages are the inputs themselves, the analyzer asks
# whether more than n/3 planted messages arrived. Budget exhaustion is the
# only way the wrapper can underreport, so the gap is the escape mass.
echo = ShuffleProtocol(
    randomizer=echo_randomizer((0, 1)),
    analyzer=threshold_analyzer(n // 3),
    n=n,
)
echo_wrap = ShuffleToPanWrapper(protocol=echo, reference={0: 1.0})
wrapped = echo_wrap.exact_output_distribution({1: 1.0})
honest = exact_output_distribution(echo, [{1: 2 / 9, 0: 7 / 9}] * n)
gap = tv_dicts(wrapped, honest)
print(f"echo protocol gap: {gap:.12f} == escape mass "
      f"{wrapper_escape_mass(n):.12f}")

# --- the escape mass decays with the cohort size --------------------------
print("\nescape mass P[Bin(n, 2/9) > n/3]:")
for m in (30, 60, 120, 240):
    print(f"  n={m:4d}: {wrapper_escape_mass(m):.6f}")
print("so simulating larger cohorts costs less, at rate exp(-c n).")

# --- the same wrapper also runs as a sampler ------------------------------
alg = wrapper.as_pan_algorithm()
rng = make_generator(11, "wrapper-demo")
view = run_pan(alg, [1, 1], t=1, rng=rng)
print(f"\none sampled trajectory: intrusion at t=1 sees state {view.state},")
print(f"final output {view.output} (the analyzer's verdict on n messages).")
