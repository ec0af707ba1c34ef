"""Flow-matching basics: fit a two-mode 1D action distribution and sample it.

Walks through the behavioral-policy half of the library: build a velocity
field, train it with the conditional flow-matching loss, sample actions by
Euler integration, and check the sampler against the analytic velocity
oracle for a Gaussian target.

Run:  python3 demos/01_flow_matching_basics.py
"""

import numpy as np

from fisherflow import flow
from fisherflow.densities import GaussianMixture, OracleVelocityField

rng = np.random.default_rng(0)

# -- 1. a multimodal behavioral distribution ---------------------------------
mix = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [[0.3**2], [0.3**2]])
actions = mix.sample(rng, 8192)
print(f"dataset: {len(actions)} draws from a two-mode mixture at -2 / +2")

# -- 2. train the velocity field ----------------------------------------------
field = flow.VelocityField.create(state_dim=0, action_dim=1, hidden=(48, 48), rng=rng)
policy = flow.FlowPolicy(field, steps=10)
curve = flow.train_flow(policy, None, actions, flow.FlowTrainConfig(steps=3000), rng)
tenth = len(curve) // 10
print(f"flow loss: first-10% median {np.median(curve[:tenth]):.3f} -> "
      f"last-10% median {np.median(curve[-tenth:]):.3f}")

# -- 3. sample and inspect the modes ------------------------------------------
z = rng.standard_normal((4000, 1))
samples = flow.sample_action(policy, None, z)
frac_left = float(np.mean(samples < -0.5))
frac_right = float(np.mean(samples > 0.5))
frac_gap = float(np.mean(np.abs(samples) < 0.5))
print(f"samples: {frac_left:.1%} left mode, {frac_right:.1%} right mode, "
      f"{frac_gap:.1%} in the gap (mode averaging would pile mass here)")

# -- 4. Euler sampler vs the analytic Gaussian oracle --------------------------
print("\nEuler refinement study on the exact Gaussian-target velocity:")
oracle = OracleVelocityField(GaussianMixture.single([1.5], 0.6))
z0 = np.array([[0.25]])
reference = flow.sample_action(flow.FlowPolicy(oracle, steps=16384), None, z0)
print(f"  reference endpoint (M=16384): {reference[0, 0]:.6f} "
      f"(exact transport sends z to mu + sigma z = {1.5 + 0.6 * z0[0, 0]:.6f})")
for m in (8, 16, 32, 64, 256):
    out = flow.sample_action(flow.FlowPolicy(oracle, steps=m), None, z0)
    print(f"  M={m:5d}: endpoint {out[0, 0]:.6f}  error {abs(out[0, 0] - reference[0, 0]):.2e}")
