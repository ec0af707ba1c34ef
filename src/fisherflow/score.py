"""Score estimation from the velocity field and the local Fisher metric.

The score of the time-t marginal comes straight out of the velocity field as
(t v(t, s, a) - a) / (1 - t); evaluating at a perturbed time t_eps < 1 avoids
the 0/0 limit at t = 1. The local Fisher metric is kept in one factored
form, M = c s s^T + mu I: the rank-1 outer product of that score, optionally
trace-normalized to trace = d (c = d / |s|^2), plus damping mu for
invertibility. The isotropic baseline is the same form with c = 0, mu = 1.
Products with M, 0.5 delta^T M delta and M^-1 g all come in closed form, so
the dense matrix is only built on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_DEGENERATE_TRACE = 1e-24


@dataclass(frozen=True)
class FisherMetric:
    """The damped rank-1 metric M = scale * score score^T + damping * I."""

    score: np.ndarray
    scale: float
    damping: float

    @property
    def dim(self):
        return self.score.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric PSD d x d form of M."""
        return self.scale * np.outer(self.score, self.score) + self.damping * np.eye(self.dim)


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
    """perturbed_score over a batch of actions (B, d) -> (B, d)."""
    return perturbed_score(field, s, np.atleast_2d(a), t_eps)


def _rank1_scale(sq, dim, normalize):
    """Coefficient c of c s s^T given |s|^2: dim / |s|^2 when trace-normalizing, else 1.

    A score with |s|^2 <= _DEGENERATE_TRACE cannot be normalized; it gets c = 0.
    """
    if not normalize:
        return np.ones_like(sq)
    ok = sq > _DEGENERATE_TRACE
    return np.where(ok, dim / np.where(ok, sq, 1.0), 0.0)


def fisher_matrix(score, normalize=False, damping=0.0) -> FisherMetric:
    """The metric s s^T, rescaled to trace d if requested, plus damping * I.

    Normalizing a zero score drops the rank-1 term, leaving damping * I.
    """
    if damping < 0:
        raise ValueError("damping must be >= 0")
    s = np.atleast_1d(np.asarray(score, dtype=np.float64))
    return FisherMetric(s, float(_rank1_scale(float(s @ s), s.shape[0], normalize)), float(damping))


def isotropic_metric(dim) -> FisherMetric:
    """Identity metric of the ablation baseline: zero score, unit damping."""
    return FisherMetric(np.zeros(dim), 0.0, 1.0)


def damped_inverse_apply(metric: FisherMetric, g) -> np.ndarray:
    """Solve M x = g in closed form for M = c s s^T + mu I.

    With damping mu > 0 this is Sherman-Morrison. With mu = 0 the metric is
    rank-1: g inside span(s) gets the minimum-norm solution, anything else is
    a genuine singularity.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != metric.dim:
        raise ValueError("vector dimension does not match metric")
    s, c, mu = metric.score, metric.scale, metric.damping
    if mu > 0.0:
        x = g / mu
        if c != 0.0:
            denom = mu * (mu + c * float(s @ s))
            if denom == 0.0:
                raise NumericError("metric damping underflows: mu (mu + c |s|^2) = 0")
            x = x - (c * float(s @ g) / denom) * s
    else:
        sq = float(s @ s)
        if c == 0.0 or sq <= _DEGENERATE_TRACE:
            raise NumericError("metric is singular: no rank-1 term and no damping")
        x = (float(s @ g) / (c * sq * sq)) * s
    resid = np.linalg.norm(metric.matrix @ x - g)
    if not resid <= 1e-8 * max(float(np.linalg.norm(g)), 1e-300):  # NaN fails too
        raise NumericError(f"inverse apply residual too large: {resid:.3e}"
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

    Row i uses M = fisher_matrix(scores[i], normalize, damping), read through
    its factored form, so no d x d matrix is built. Returns (values (B,),
    gradients (B, d)).
    """
    if damping < 0:
        raise ValueError("damping must be >= 0")
    s = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    dl = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if s.shape != dl.shape:
        raise ValueError("scores and displacements must have matching shapes")
    scale = _rank1_scale(np.sum(s * s, axis=1), s.shape[1], normalize)
    dot = np.sum(s * dl, axis=1)
    values = 0.5 * scale * dot**2 + 0.5 * damping * np.sum(dl * dl, axis=1)
    grads = (scale * dot)[:, None] * s + damping * dl
    return values, grads
