"""Score estimation from the velocity field and the local Fisher metric.

The score of the time-t marginal comes straight out of the velocity field as
(t v(t, s, a) - a) / (1 - t); evaluating at a perturbed time t_eps < 1 avoids
the 0/0 limit at t = 1. The local Fisher metric of each row of a (B, d)
batch of scores s is M = c s s^T + mu I: the rank-1 outer product of that
score, optionally trace-normalized to trace = d (c = d / |s|^2, `rank1_scale`),
plus damping mu for invertibility. A metric is thus the score rows plus
`normalize` and `damping`; the isotropic baseline is a zero score at unit
damping. Products with M, 0.5 delta^T M delta and M^-1 g all come in closed
form, so no kernel builds a d x d metric; only the eigendecomposition oracle
of `validate.optimality_gap` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_DEGENERATE_TRACE = 1e-24


def perturbed_score(field, s, a, t_eps) -> np.ndarray:
    """Score of the time-t_eps marginal: (t_eps v(t_eps, s, a) - a) / (1 - t_eps)."""
    t_eps = float(t_eps)
    if not 0.0 < t_eps < 1.0:
        raise ValueError("t_eps must lie strictly inside (0, 1); the identity is singular at t = 1")
    a = np.asarray(a, dtype=np.float64)
    v = field(t_eps, s, a)
    score = (t_eps * v - a) / (1.0 - t_eps)
    if not np.isfinite(score).all():
        raise NumericError("non-finite score estimate")
    return score


def batched_scores(field, s, a, t_eps) -> np.ndarray:
    """perturbed_score over a batch of actions (B, d) -> (B, d); the field refuses other shapes."""
    return perturbed_score(field, s, a, t_eps)


def rank1_scale(sq, dim, normalize):
    """Coefficient c of c s s^T given |s|^2 per row: dim / |s|^2 when trace-normalizing, else 1.

    A score with |s|^2 <= _DEGENERATE_TRACE cannot be normalized; it gets c = 0.
    """
    if not normalize:
        return np.ones_like(sq)
    ok = sq > _DEGENERATE_TRACE
    return np.where(ok, dim / np.where(ok, sq, 1.0), 0.0)


def _metric_rows(scores, other, what, damping):
    """`scores` and `other` as matching float64 (B, d) batches, once damping is known >= 0."""
    if damping < 0:
        raise ValueError("damping must be >= 0")
    s = np.asarray(scores, dtype=np.float64)
    x = np.asarray(other, dtype=np.float64)
    if s.ndim != 2 or x.shape != s.shape:
        raise ValueError(f"scores and {what} must be matching (B, d) batches, "
                         f"got shapes {s.shape} and {x.shape}")
    return s, x


def _metric_apply(s, scale, damping, x):
    """Each row's s . x and M x, for M = scale s s^T + damping I in factored form."""
    dot = np.sum(s * x, axis=1)
    return dot, (scale * dot)[:, None] * s + damping * x


def damped_inverse_apply(scores, g, normalize=False, damping=0.0) -> np.ndarray:
    """Solve M x = g in closed form for each row's M = c s s^T + mu I; (B, d) -> (B, d).

    With damping mu > 0 this is Sherman-Morrison. With mu = 0 the metric is
    rank-1: g inside span(s) gets the minimum-norm solution, anything else is
    a genuine singularity. Any row that cannot be solved, or whose residual
    against the penalty kernel's M x exceeds 1e-8 max(|g|, |M| |x|), raises
    NumericError: |M| = c |s|^2 + mu admits a backward-stable solve's eps |M| |x|
    at any conditioning, and at mu = 0 the bound is 1e-8 |g|.
    """
    s, g = _metric_rows(scores, g, "vectors", damping)
    sq, sg = np.vecdot(s, s), np.vecdot(s, g)
    c, mu = rank1_scale(sq, s.shape[1], normalize), float(damping)
    if mu > 0.0:
        x = g / mu
        rank1 = c != 0.0
        denom = mu * (mu + c * sq)
        if np.any(rank1 & (denom == 0.0)):
            raise NumericError("metric damping underflows: mu (mu + c |s|^2) = 0")
        coef = c * sg / np.where(rank1, denom, 1.0)
        x = np.where(rank1[:, None], x - coef[:, None] * s, x)
    else:
        if np.any((c == 0.0) | (sq <= _DEGENERATE_TRACE)):
            raise NumericError("metric is singular: no rank-1 term and no damping")
        x = (sg / (c * sq * sq))[:, None] * s
    resid = np.linalg.norm(_metric_apply(s, c, mu, x)[1] - g, axis=1)
    size = np.maximum(np.linalg.norm(g, axis=1), np.linalg.norm((c * sq + mu)[:, None] * x, axis=1))
    bound = 1e-8 * np.maximum(size, 1e-300)
    bad = ~(resid <= bound) | ~(bound < np.inf)  # NaN fails too, and so does an overflowed x
    if bad.any():
        raise NumericError(f"inverse apply residual too large: {resid[bad].max():.3e}"
                           + ("; the vector lies outside the score span" if mu == 0.0 else ""))
    return x


@dataclass(frozen=True)
class EpsilonStar:
    """Optimal perturbation and the total-error value attained there."""

    epsilon: float
    total_error: float


def perturbation_total_error(c1, c2, machine_delta, eps) -> float:
    """Truncation-plus-rounding model C1 eps^4 + C2 delta / eps^2."""
    return c1 * eps**4 + c2 * machine_delta / eps**2


def optimal_epsilon(c1, c2, machine_delta) -> EpsilonStar:
    """Minimizer (C2 delta / (2 C1))^(1/6) of the total-error model.

    Machine precision is an input so the same calculator covers FP32-scale
    analyses regardless of the build's own float width.
    """
    if c1 <= 0 or c2 <= 0 or machine_delta <= 0:
        raise ValueError("C1, C2 and machine_delta must all be positive")
    eps = (c2 * machine_delta / (2.0 * c1)) ** (1.0 / 6.0)
    return EpsilonStar(eps, perturbation_total_error(c1, c2, machine_delta, eps))


def fisher_penalty_batch(scores, deltas, normalize=True, damping=0.0):
    """Vectorized 0.5 delta^T M delta and its delta-gradient M delta, one metric per row.

    Row i uses M = c s s^T + damping I of score s = scores[i], read through
    its factored form. Scores and displacements are matching (B, d) batches.
    Returns (values (B,), gradients (B, d)).
    """
    s, dl = _metric_rows(scores, deltas, "displacements", damping)
    scale = rank1_scale(np.sum(s * s, axis=1), s.shape[1], normalize)
    dot, grads = _metric_apply(s, scale, damping, dl)
    values = 0.5 * scale * dot**2 + 0.5 * damping * np.sum(dl * dl, axis=1)
    return values, grads
