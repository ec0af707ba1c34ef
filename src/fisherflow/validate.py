"""Self-contained oracle validation suites, runnable from the CLI.

Each suite checks one analytic identity or convergence property against an
independent closed-form or quadrature oracle and returns a pass/fail
outcome with a one-line detail. The test suite pins the same checks with
frozen expected values; this module exists so a built artifact can
re-validate itself from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import nets
from .densities import GaussianMixture, OracleVelocityField
from .flow import FlowPolicy, VelocityField
from .score import batched_scores, fisher_matrix, optimal_epsilon, perturbation_total_error
from .training import optimality_gap
from .transport import (GridSpec, TransportMap, expected_quadratic_penalty,
                        kl_quadrature_oracle, log_det_inverse_approx)


@dataclass(frozen=True)
class Outcome:
    passed: bool
    detail: str


RATE_MIXTURE = GaussianMixture([0.4, 0.6], [[-1.0], [1.2]], [[0.55**2], [0.7**2]])
OVERLAP_MIXTURE = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[0.36], [0.36]])


def suite_score_identity() -> Outcome:
    """Perturbed score from the exact velocity equals the marginal score exactly."""
    worst = 0.0
    for mix, t_eps in ((GaussianMixture.single([0.0], 1.0), 0.5),
                       (RATE_MIXTURE, 0.8)):
        field = OracleVelocityField(mix)
        grid = np.linspace(-2.5, 2.5, 41)[:, None]
        est = batched_scores(field, None, grid, t_eps)
        exact = mix.marginal(t_eps).score(grid)
        worst = max(worst, float(np.max(np.abs(est - exact) / np.maximum(np.abs(exact), 1e-12))))
    standard = OracleVelocityField(GaussianMixture.single([0.0], 1.0))
    point = batched_scores(standard, None, np.array([[1.0]]), 0.5)[0, 0]
    ok = worst < 1e-10 and abs(point + 2.0) < 1e-12
    return Outcome(ok, f"max rel err {worst:.2e}; N(0,1) t=0.5 a=1 score {point:+.12f}")


def contraction_coefficient(mix, a, h=1e-6) -> float:
    """First-order mean-contraction error term s(a) + s'(a) a of a 1-D mixture's score."""
    s = lambda x: float(mix.score(np.array([x]))[0])
    return s(a) + (s(a + h) - s(a - h)) / (2 * h) * a


def rate_probe_point(mix=RATE_MIXTURE) -> float:
    """Probe where the first-order mean-contraction error term vanishes.

    The time-(1-eps) marginal both smooths and contracts the target; at
    generic points the contraction contributes a first-order error that
    masks the quadratic smoothing rate, so the rate is measured where its
    coefficient s(a) + s'(a) a crosses zero.
    """
    return float(brentq(lambda a: contraction_coefficient(mix, a), -0.8, -0.3, xtol=1e-13))


def suite_perturbation_rate() -> Outcome:
    """Score error decays at second order in the perturbation at the probe point."""
    mix = RATE_MIXTURE
    a = np.array([rate_probe_point()])
    ladder = (0.2, 0.1, 0.05, 0.025)
    errs = [float(np.linalg.norm(mix.marginal_score(1.0 - e, a) - mix.score(a)))
            for e in ladder]
    slope = float(np.polyfit(np.log(ladder), np.log(errs), 1)[0])
    return Outcome(1.7 <= slope <= 2.3, f"fitted slope {slope:.3f} at probe a={a[0]:+.6f}")


def suite_kl_quadrature() -> Outcome:
    """Quadrature KL matches closed forms and the Fisher quadratic form."""
    gauss = GaussianMixture.single([0.0], 1.0)
    grid = GridSpec((-9.0,), (9.0,), (4001,))
    kl_shift = kl_quadrature_oracle(gauss, lambda a: a + 0.3, None, grid).value
    ok_shift = abs(kl_shift - 0.045) < 1e-4
    grid_s = GridSpec((-12.0,), (12.0,), (6001,))
    kl_scale = kl_quadrature_oracle(gauss, lambda a: 1.1 * a, None, grid_s).value
    closed = 0.5 * (1.21 - 1.0 - np.log(1.21))
    ok_scale = abs(kl_scale - closed) < 1e-4
    grid_m = GridSpec((-10.0,), (10.0,), (20001,))
    c = 0.05
    kl_mix = kl_quadrature_oracle(OVERLAP_MIXTURE, lambda a: a + c, None, grid_m).value
    quad = expected_quadratic_penalty(OVERLAP_MIXTURE, lambda a: np.full_like(a, c), grid_m)
    ok_mix = abs(quad - kl_mix) / kl_mix < 0.20
    ok = ok_shift and ok_scale and ok_mix
    return Outcome(ok, f"shift KL {kl_shift:.6f}, scale KL {kl_scale:.6f} "
                       f"(closed {closed:.6f}), mixture rel gap "
                       f"{abs(quad - kl_mix) / kl_mix:.2%}")


def linear_residual_map(c) -> TransportMap:
    """Stateless 2-D transport map with displacement c * a (the cap is far away)."""
    net = nets.DenseNet([2, 2], [c * np.eye(2)], [np.zeros(2)], "gelu")
    policy = FlowPolicy(VelocityField.create(0, 2, hidden=(4,), rng=0), steps=2)
    return TransportMap(net, policy, max_displacement=1e6)


def suite_determinant_expansion() -> Outcome:
    """First-order inverse-determinant expansion has a quadratically small gap."""
    gaps = [log_det_inverse_approx(linear_residual_map(c), None, np.zeros(2)).gap
            for c in (0.01, 0.005)]
    ok = gaps[0] < 3e-4 and gaps[0] / gaps[1] >= 3.5
    return Outcome(ok, f"gap at c=0.01: {gaps[0]:.2e}, halving ratio {gaps[0]/gaps[1]:.2f}")


def suite_optimal_epsilon() -> Outcome:
    """The bias/rounding trade-off minimizer lands at O(1e-1) for FP32 precision."""
    res = optimal_epsilon(1.0, 1.0, 1e-6)
    in_order = 0.03 < res.epsilon < 0.3
    is_argmin = all(
        perturbation_total_error(1.0, 1.0, 1e-6, f * res.epsilon) > res.total_error
        for f in (0.5, 2.0))
    return Outcome(in_order and is_argmin, f"eps* {res.epsilon:.4f}, argmin check "
                                           f"{'ok' if is_argmin else 'failed'}")


def suite_optimality_gap() -> Outcome:
    """Direct and eigendecomposed value-gap forms agree on random damped metrics."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        metric = fisher_matrix(rng.normal(size=d), normalize=bool(rng.integers(2)),
                               damping=float(rng.uniform(0.01, 1.0)))
        res = optimality_gap(metric, rng.normal(size=d), float(rng.uniform(0.1, 4.0)))
        worst = max(worst, abs(res.direct - res.eigen))
    from .score import FisherMetric
    diag = optimality_gap(FisherMetric(np.diag([2.0, 0.5]), False, 0.0),
                          np.array([1.0, 1.0]), 1.0)
    ok = worst < 1e-8 and abs(diag.direct - 0.25) < 1e-12
    return Outcome(ok, f"max form disagreement {worst:.2e}; diag example {diag.direct:.4f}")


def all_suites():
    return [
        ("score-identity", suite_score_identity),
        ("perturbation-rate", suite_perturbation_rate),
        ("kl-quadrature", suite_kl_quadrature),
        ("determinant-expansion", suite_determinant_expansion),
        ("optimal-epsilon", suite_optimal_epsilon),
        ("optimality-gap", suite_optimality_gap),
    ]
