"""Score estimation from the velocity field and the local Fisher metric.

The score of the time-t marginal comes straight out of the velocity field as
(t v(t, s, a) - a) / (1 - t); evaluating at a perturbed time t_eps < 1 avoids
the 0/0 limit at t = 1. The local Fisher matrix is the rank-1 outer product
of that score, optionally trace-normalized to trace = d (so the isotropic
limit is exactly the identity) and damped for invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_DEGENERATE_TRACE = 1e-24


@dataclass(frozen=True)
class FisherMetric:
    """Symmetric PSD d x d matrix s s^T, optionally trace-normalized and damped.

    `rank1_scale` and `score` retain the factored form (matrix =
    rank1_scale * score score^T + damping * I) when one exists, enabling the
    Sherman-Morrison inverse path. `degenerate` flags the zero-score
    fallback where the matrix is damping * I only.
    """

    matrix: np.ndarray
    normalized: bool
    damping: float
    score: np.ndarray | None = None
    rank1_scale: float = 1.0
    degenerate: bool = False

    @property
    def dim(self):
        return self.matrix.shape[0]


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


def fisher_matrix(score, normalize=False, damping=0.0) -> FisherMetric:
    """Build s s^T, rescale to trace d if requested, then add damping * I.

    A zero score with normalize=True cannot be rescaled; that case falls back
    to damping * I and is flagged degenerate.
    """
    if damping < 0:
        raise ValueError("damping must be >= 0")
    s = np.atleast_1d(np.asarray(score, dtype=np.float64))
    d = s.shape[0]
    sq = float(s @ s)
    degenerate = False
    scale = 1.0
    if normalize:
        if sq <= _DEGENERATE_TRACE:
            degenerate = True
            s = np.zeros(d)
            sq = 0.0
        else:
            scale = d / sq
    m = scale * np.outer(s, s) + damping * np.eye(d)
    m = 0.5 * (m + m.T)
    return FisherMetric(m, normalize, float(damping), score=s, rank1_scale=scale, degenerate=degenerate)


def isotropic_metric(dim) -> FisherMetric:
    """Identity metric of the ablation baseline."""
    return FisherMetric(np.eye(dim), False, 0.0, score=np.zeros(dim), rank1_scale=0.0)


def quadratic_penalty(metric: FisherMetric, delta) -> float:
    """0.5 * delta^T M delta; nonnegative by PSD-ness."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape[0] != metric.dim:
        raise ValueError("displacement dimension does not match metric")
    return 0.5 * float(delta @ metric.matrix @ delta)


def damped_inverse_apply(metric: FisherMetric, g, method="auto") -> np.ndarray:
    """Solve M x = g for the damped rank-1 metric.

    `method` is "solve" (dense d x d), "sherman_morrison" (uses the factored
    form scale * s s^T + mu I), or "auto". With zero damping the matrix is
    rank-1: g inside span(s) gets the minimum-norm solution, anything else is
    a genuine singularity.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != metric.dim:
        raise ValueError("vector dimension does not match metric")
    mu = metric.damping
    gnorm = max(float(np.linalg.norm(g)), 1e-300)
    if mu == 0.0 and metric.rank1_scale != 0.0 and metric.score is not None:
        # Undamped rank-1 metric: minimum-norm solution inside span(s) only.
        s = metric.score
        sq = float(s @ s)
        if sq <= _DEGENERATE_TRACE:
            raise NumericError("metric is singular: zero score and no damping")
        x = (float(s @ g) / (metric.rank1_scale * sq * sq)) * s
        if np.linalg.norm(metric.matrix @ x - g) > 1e-8 * gnorm:
            raise NumericError("singular metric: vector lies outside the score span")
        return x
    if method == "sherman_morrison" or (method == "auto" and metric.score is not None and mu > 0.0):
        if metric.score is None or mu <= 0.0:
            raise ValueError("sherman_morrison path needs a factored metric with damping > 0")
        s, c = metric.score, metric.rank1_scale
        x = g / mu
        if c != 0.0:
            denom = mu * (mu + c * float(s @ s))
            x = x - (c * float(s @ g) / denom) * s
    else:
        try:
            x = np.linalg.solve(metric.matrix, g)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular metric: {exc}") from exc
    resid = np.linalg.norm(metric.matrix @ x - g)
    if resid > 1e-8 * gnorm:
        raise NumericError(f"inverse apply residual too large: {resid:.3e}")
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
    """Vectorized 0.5 delta^T M delta and its delta-gradient, one metric per row.

    Matches fisher_matrix + quadratic_penalty row by row (including the
    degenerate zero-score fallback) without materializing d x d matrices.
    Returns (values (B,), gradients (B, d)).
    """
    if damping < 0:
        raise ValueError("damping must be >= 0")
    s = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    dl = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if s.shape != dl.shape:
        raise ValueError("scores and displacements must have matching shapes")
    d = s.shape[1]
    sq = np.sum(s * s, axis=1)
    if normalize:
        ok = sq > _DEGENERATE_TRACE
        scale = np.where(ok, d / np.where(ok, sq, 1.0), 0.0)
    else:
        scale = np.ones_like(sq)
    dot = np.sum(s * dl, axis=1)
    values = 0.5 * scale * dot**2 + 0.5 * damping * np.sum(dl * dl, axis=1)
    grads = (scale * dot)[:, None] * s + damping * dl
    return values, grads
