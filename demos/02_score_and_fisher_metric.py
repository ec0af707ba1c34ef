"""Scores from velocities, the local Fisher metric, and the perturbed time.

Demonstrates the estimator at the heart of the anisotropic constraint:
the time-t marginal score falls out of the velocity field as
(t v(t, s, a) - a) / (1 - t), its error against the t = 1 score shrinks
quadratically in the perturbation at the right probe points, and the
rank-1 outer product of the score prices displacements directionally.

Run:  python3 demos/02_score_and_fisher_metric.py
"""

import numpy as np

from fisherflow import score
from fisherflow.densities import GaussianMixture, OracleVelocityField
from fisherflow.validate import EPS_LADDER, RATE_MIXTURE, RATE_PROBE

# -- 1. the identity is exact for an exact velocity ---------------------------
gauss = GaussianMixture.single([0.0], 1.0)
field = OracleVelocityField(gauss)
est = score.perturbed_score(field, None, np.array([[1.0]]), t_eps=0.5)
print(f"N(0,1) target, t=0.5, a=1: estimated score {est[0, 0]:+.12f} "
      f"(exact marginal score is -2)")

# -- 2. perturbation error vs epsilon ------------------------------------------
mix = RATE_MIXTURE
probe = RATE_PROBE
ofield = OracleVelocityField(mix)
print(f"\ntwo-mode mixture, probe a={probe:+.6f} "
      f"(where the mean-contraction term vanishes):")
prev = None
for eps in EPS_LADDER:
    s_eps = score.perturbed_score(ofield, None, np.array([[probe]]), 1.0 - eps)
    err = float(abs(s_eps[0, 0] - mix.score(np.array([[probe]]))[0, 0]))
    note = f"  ratio vs previous {prev / err:.2f}" if prev else ""
    print(f"  eps={eps:6.3f}: |score error| {err:.3e}{note}")
    prev = err
print("  halving eps divides the error by ~4: second-order convergence")

# -- 3. the optimal perturbation from the bias/rounding trade-off -------------
res = score.optimal_epsilon(1.0, 1.0, 1e-6)
print(f"\nerror model C1 eps^4 + C2 delta/eps^2 with FP32-scale delta=1e-6:")
print(f"  eps* = {res.epsilon:.4f} (order 1e-1), total error there {res.total_error:.3e}")
for f in (0.5, 2.0):
    val = score.perturbation_total_error(1.0, 1.0, 1e-6, f * res.epsilon)
    print(f"  at {f} x eps*: {val:.3e} (worse, as the argmin demands)")

# -- 4. the rank-1 metric prices directions, not magnitudes --------------------
s_vec = np.array([2.0, 0.0])
along = np.array([0.5, 0.0])
across = np.array([0.0, 0.5])
penalty, _ = score.fisher_penalty_batch(np.array([s_vec, s_vec]), np.array([along, across]),
                                        normalize=True, damping=1e-3)
print(f"\nscore (2, 0), trace-normalized + damped metric:")
print(f"  penalty of a move along the score : {penalty[0]:.4f}")
print(f"  penalty of the same move across it: {penalty[1]:.4f}")
print("  displacements off the score direction are nearly free: that is the")
print("  anisotropy the isotropic baseline cannot express")
