"""Self-contained oracle validation suites, runnable from the CLI.

Each suite checks one analytic claim of the method against an independent
closed-form or quadrature oracle and returns a pass/fail outcome with a
one-line detail. The suites are the single source of these checks:
`fisherflow validate` runs them so a built artifact can re-validate itself,
and the acceptance tests (criteria 1-4 and 6, and the eps* half of
criterion 9) assert on their outcomes. The mixtures and fixtures the suites
use live here too, for the tests and demos that share them, and so does
`optimality_gap`, which only its suite calls; its eigendecomposition oracle
builds the one dense d x d metric in the library.

The perturbation-rate probe is the stored constant `RATE_PROBE`, a root of
the suite's own contraction coefficient, so the suite runs no root find and
no fisherflow process loads `scipy.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .densities import GaussianMixture, OracleVelocityField
from .errors import NumericError
from .flow import FlowPolicy, VelocityField
from .score import (batched_scores, damped_inverse_apply, optimal_epsilon,
                    perturbation_total_error, rank1_scale)
from .transport import (GridSpec, TransportMap, expected_quadratic_penalty, kl_quadratic,
                        kl_quadrature_oracle, log_det_inverse_approx)


@dataclass(frozen=True)
class Outcome:
    passed: bool
    detail: str


RATE_MIXTURE = GaussianMixture([0.4, 0.6], [[-1.0], [1.2]], [[0.55**2], [0.7**2]])
OVERLAP_MIXTURE = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[0.36], [0.36]])
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def suite_score_identity() -> Outcome:
    """Perturbed score from the exact velocity equals the marginal score exactly."""
    standard = OracleVelocityField(GaussianMixture.single([0.0], 1.0))
    t = 0.5
    grid = np.linspace(-3.0, 3.0, 61)[:, None]
    grid = grid[np.abs(grid[:, 0]) > 1e-9]  # the origin, where both scores vanish
    exact = -grid / (t**2 + (1 - t) ** 2)  # marginal N(0, t^2 + (1-t)^2)
    worst = float(np.max(np.abs(batched_scores(standard, None, grid, t) - exact) / np.abs(exact)))
    field = OracleVelocityField(RATE_MIXTURE)
    grid = np.linspace(-2.5, 2.5, 41)[:, None]
    for t_eps in (0.5, 0.8, 0.95):
        est = batched_scores(field, None, grid, t_eps)
        exact = RATE_MIXTURE.marginal(t_eps).score(grid)
        worst = max(worst, float(np.max(np.abs(est - exact) / np.maximum(np.abs(exact), 1e-12))))
    point = batched_scores(standard, None, np.array([[1.0]]), t)[0, 0]
    ok = worst < 1e-10 and abs(point + 2.0) < 1e-12
    return Outcome(ok, f"max rel err {worst:.2e}; N(0,1) t=0.5 a=1 score {point:+.12f}")


# central-difference steps of the two error-term coefficients below
CONTRACTION_FD_STEP = 1e-6
CURVATURE_FD_STEP = 1e-4


def contraction_coefficient(mix, a) -> float:
    """First-order mean-contraction error term s(a) + s'(a) a of a 1-D mixture's score."""
    s = lambda x: float(mix.score(np.array([[x]]))[0, 0])
    h = CONTRACTION_FD_STEP
    return s(a) + (s(a + h) - s(a - h)) / (2 * h) * a


def grad_curvature_ratio(mix, a) -> float:
    """d/da of (lap pi / pi) of a 1-D mixture, the constant in the second-order error term."""
    p = lambda x: float(mix.density(np.array([[x]]))[0])
    h = CURVATURE_FD_STEP
    lap_over_p = lambda x: (p(x + h) - 2 * p(x) + p(x - h)) / (h * h * p(x))
    return (lap_over_p(a + h) - lap_over_p(a - h)) / (2 * h)


# Probe of RATE_MIXTURE where the first-order mean-contraction error term
# vanishes. The time-(1-eps) marginal both smooths and contracts the target;
# at generic points the contraction contributes a first-order error that
# masks the quadratic smoothing rate, so the rate is measured where its
# coefficient s(a) + s'(a) a crosses zero: the root
# scipy.optimize.brentq(lambda a: contraction_coefficient(RATE_MIXTURE, a),
# -0.8, -0.3, xtol=1e-13) returns. suite_perturbation_rate fails unless the
# coefficient there is below 1e-9, so a stale value cannot pass silently.
RATE_PROBE = -0.5833334538221382


def suite_perturbation_rate() -> Outcome:
    """Score error decays at second order in the perturbation at the probe point."""
    mix = RATE_MIXTURE
    probe = RATE_PROBE
    contraction = contraction_coefficient(mix, probe)
    curvature = grad_curvature_ratio(mix, probe)
    a = np.array([[probe]])
    field = OracleVelocityField(mix)
    marginal_dev, errs = 0.0, []
    for eps in EPS_LADDER:
        est = batched_scores(field, None, a, 1.0 - eps)[0]
        marginal = mix.marginal(1.0 - eps).score(a)[0]
        marginal_dev = max(marginal_dev, float(np.max(np.abs(est - marginal) / np.abs(marginal))))
        errs.append(float(np.linalg.norm(est - mix.score(a)[0])))
    slope = loglog_slope(EPS_LADDER, errs)
    ok = (abs(contraction) < 1e-9 and abs(curvature) > 1.0 and marginal_dev <= 1e-10
          and 1.7 < slope < 2.3)
    return Outcome(ok, f"fitted slope {slope:.3f} at probe a={probe:+.6f} "
                       f"(contraction {contraction:.1e}, curvature {curvature:+.2f}); "
                       f"estimator vs marginal rel err {marginal_dev:.1e}")


def suite_kl_quadrature() -> Outcome:
    """Quadrature KL matches closed forms and the Fisher quadratic form."""
    gauss = GaussianMixture.single([0.0], 1.0)
    grid = GridSpec((-9.0,), (9.0,), (4001,))
    kl_shift = kl_quadrature_oracle(gauss, lambda a: a + 0.3, None, grid).value
    samples = gauss.sample(np.random.default_rng(33), 10_000)
    mc = kl_quadratic(lambda a: np.full_like(a, 0.3), gauss, samples)
    grid_s = GridSpec((-12.0,), (12.0,), (6001,))
    kl_scale = kl_quadrature_oracle(gauss, lambda a: 1.1 * a, None, grid_s).value
    closed = 0.5 * (1.21 - 1.0 - np.log(1.21))
    # two modes with enough overlap that the higher-order KL terms sit far
    # above quadrature noise
    grid_m = GridSpec((-10.0,), (10.0,), (20001,))
    shifts = (0.1, 0.05, 0.025)
    gaps, rels = [], []
    for c in shifts:
        kl = kl_quadrature_oracle(OVERLAP_MIXTURE, lambda a: a + c, None, grid_m).value
        quad = expected_quadratic_penalty(OVERLAP_MIXTURE, lambda a: np.full_like(a, c), grid_m)
        gaps.append(abs(kl - quad))
        rels.append(gaps[-1] / kl)
    slope = loglog_slope(shifts, gaps)
    ok = (abs(kl_shift - 0.045) < 1e-4 and abs(mc.value - kl_shift) < 3 * mc.stderr
          and abs(kl_scale - closed) < 1e-4 and max(rels) < 0.20 and slope >= 2.5)
    return Outcome(ok, f"shift KL {kl_shift:.6f} (MC within "
                       f"{abs(mc.value - kl_shift) / mc.stderr:.2f} SE), scale KL "
                       f"{kl_scale:.6f} (closed {closed:.6f}), mixture rel gap "
                       f"{', '.join(f'{r:.2%}' for r in rels)} at c={shifts}, "
                       f"gap slope {slope:.2f}")


def linear_residual_map(w, cap=1e6) -> TransportMap:
    """Stateless transport map whose raw residual is exactly a @ w (w is d x d).

    With the default cap the tanh is the identity to machine precision.
    """
    d = w.shape[0]
    net = nets.DenseNet([d, d], [np.asarray(w, dtype=np.float64)], [np.zeros(d)])
    policy = FlowPolicy(VelocityField.create(0, d, hidden=(4,), rng=0), steps=2)
    return TransportMap(net, policy, max_displacement=cap)


def suite_determinant_expansion() -> Outcome:
    """First-order inverse-determinant expansion has a quadratically small gap."""
    gaps = [log_det_inverse_approx(linear_residual_map(c * np.eye(2)), None,
                                   np.zeros((1, 2))).gap[0]
            for c in (0.02, 0.01, 0.005)]
    ratios = (gaps[0] / gaps[1], gaps[1] / gaps[2])
    ok = gaps[1] < 3e-4 and min(ratios) >= 3.5
    return Outcome(ok, f"gap at c=0.01: {gaps[1]:.2e}, halving ratios "
                       f"{ratios[0]:.2f}, {ratios[1]:.2f}")


def suite_optimal_epsilon() -> Outcome:
    """The bias/rounding trade-off minimizer lands at O(1e-1) for FP32 precision."""
    res = optimal_epsilon(1.0, 1.0, 1e-6)
    off = abs(res.epsilon - (5e-7) ** (1 / 6))  # closed form (delta / 2)^(1/6) for C1 = C2 = 1
    in_order = 0.03 < res.epsilon < 0.3
    is_argmin = all(
        perturbation_total_error(1.0, 1.0, 1e-6, f * res.epsilon) > res.total_error
        for f in (0.5, 2.0))
    return Outcome(off < 1e-12 and in_order and is_argmin,
                   f"eps* {res.epsilon:.4f} (closed form off by {off:.1e}), argmin check "
                   f"{'ok' if is_argmin else 'failed'}")


@dataclass(frozen=True)
class GapResult:
    direct: float
    eigen: float


def optimality_gap(score, g, lam, normalize=False, damping=0.0) -> GapResult:
    """Value gap (g^T M^-1 g - g^T g) / (2 lambda) of the isotropic surrogate.

    M is the metric of one score (d,) under `normalize` and `damping`, and g
    is a (d,) vector. The gap is computed both directly, through
    `damped_inverse_apply`, and from the eigendecomposition of the dense M
    as sum_i (u_i^T g)^2 (1/lambda_i - 1) / (2 lambda); `suite_optimality_gap`
    judges how well the two agree.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    s = np.asarray(score, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    x = damped_inverse_apply(s[None], g[None], normalize, damping)[0]
    direct = (float(g @ x) - float(g @ g)) / (2.0 * lam)
    d = s.shape[0]
    m = rank1_scale(np.vecdot(s, s), d, normalize) * np.outer(s, s) + damping * np.eye(d)
    eigvals, eigvecs = np.linalg.eigh(m)
    if np.any(eigvals <= 0):
        raise NumericError("singular metric in optimality gap")
    proj = eigvecs.T @ g
    eigen = float(np.sum(proj**2 * (1.0 / eigvals - 1.0)) / (2.0 * lam))
    return GapResult(direct, eigen)


def suite_optimality_gap() -> Outcome:
    """Direct and eigendecomposed value-gap forms agree on random damped metrics."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        s, normalize = rng.normal(size=d), bool(rng.integers(2))
        damping = float(rng.uniform(0.01, 1.0))
        res = optimality_gap(s, rng.normal(size=d), float(rng.uniform(0.1, 4.0)), normalize,
                             damping)
        worst = max(worst, abs(res.direct - res.eigen))
    # the isotropic metric: a zero score at unit damping
    identity = optimality_gap(np.zeros(3), np.array([1.0, -2.0, 0.5]), 1.3, damping=1.0)
    identity_gap = max(abs(identity.direct), abs(identity.eigen))
    # e1 e1^T + 0.5 I = diag(1.5, 0.5), and M^-1 g = (2, 4), exactly
    diag = optimality_gap(np.array([1.0, 0.0]), np.array([3.0, 2.0]), 2.0, damping=0.5)
    ok = worst < 1e-8 and identity_gap < 1e-12 and abs(diag.direct - 0.25) < 1e-12
    return Outcome(ok, f"max form disagreement {worst:.2e}; identity gap {identity_gap:.1e}; "
                       f"diag example {diag.direct:.4f}")


def all_suites():
    return [
        ("score-identity", suite_score_identity),
        ("perturbation-rate", suite_perturbation_rate),
        ("kl-quadrature", suite_kl_quadrature),
        ("determinant-expansion", suite_determinant_expansion),
        ("optimal-epsilon", suite_optimal_epsilon),
        ("optimality-gap", suite_optimality_gap),
    ]
