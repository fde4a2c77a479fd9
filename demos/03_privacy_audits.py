"""Exact privacy audits: local reports, shuffled cohorts, online counters.

An audit computes the hockey-stick divergence between the mechanism's exact
output laws on a neighboring input pair, over a grid of epsilon values, in
both directions. For randomized response the pure level has a closed form,
so the audit must return delta = 0 exactly at eps* = ln((1-p)/p) and a
positive delta just below it. Shuffled cohorts buy smaller flip
probabilities for the same target; the calibrator certifies them either by
exact audit (small cohorts) or by the privacy-blanket bound (large ones).
Online mechanisms are audited on the joint view (state at time t, output),
maximized over the intrusion time.
"""

import math

import numpy as np

from panshuffle import (
    audit_privacy,
    binary_randomized_response,
    calibrate_rr,
    quantization_slack,
    quantized_laplace_counter,
)

# --- one user, pure randomized response ---------------------------------
epsilon = 1.0
cal = calibrate_rr(epsilon, 0.0, 1)
print(f"delta = 0 target at eps = {epsilon}: flip probability {cal.flip_p:.6f}",
      f"(closed form 1/(1+e^eps) = {1 / (1 + math.e):.6f})")

rz = binary_randomized_response(cal.flip_p)
eps_star = math.log((1 - cal.flip_p) / cal.flip_p)
grid = np.array([0.9 * eps_star, 0.99 * eps_star, eps_star])
curve = audit_privacy(rz, ([1], [0]), grid)
print("single-user audit (epsilon, delta_max):")
for e, dm in zip(curve.epsilons, curve.delta_max):
    print(f"  {e:.6f}  {dm:.6e}")
print(f"zero to machine precision at eps* = ln((1-p)/p) = {eps_star:.6f}:",
      curve.delta_at(float(grid[-1])) <= 1e-12)

# --- a cohort of 8, exact-audit calibration ------------------------------
cohort = calibrate_rr(1.0, 0.05, 8)
print(f"\ncohort n=8 at (1.0, 0.05): flip {cohort.flip_p:.6f}",
      f"method {cohort.method}, re-audited delta {cohort.audit_delta():.6f}")
print(f"  versus the single-user pure rate {cal.flip_p:.6f}:",
      "the shuffled count law hides part of each report, so less local noise",
      "certifies the same epsilon once delta > 0.")

# --- an online counter under one intrusion -------------------------------
# The counter keeps a Laplace-noised running count on a fixed grid and
# publishes a noised read-out. The audit enumerates the joint law of
# (state at t, final output) for every intrusion time t and both neighbors.
ctr = quantized_laplace_counter(0.5, 0.5, step=1 / 16, span=24.0)
stream_a = [1, 0, 1, 0]
stream_b = [1, 0, 0, 0]
grid = np.array([0.5, 1.0, 1.5])
curve = audit_privacy(ctr, (stream_a, stream_b), grid)
slack = quantization_slack(ctr, 1.0)
print("\nonline counter audit, neighbors differ at one stream position:")
for e, dm in zip(curve.epsilons, curve.delta_max):
    print(f"  eps {e:.2f}  delta_max {dm:.3e}")
print(f"at the design point eps = 1.0: delta {curve.delta_at(1.0):.3e}",
      f"<= quantization slack {slack:.3e}:",
      curve.delta_at(1.0) <= slack)
print("  the slack accounts for grid clipping of the Laplace tails; an",
      "unclipped counter would be (1.0, 0)-private by composition of the",
      "two halves of the budget.")
