"""Diagonal Gaussian mixtures with every quantity the oracles need in closed form.

A mixture plays three roles here: test-oracle behavioral density (exact
log-density, score, sampling), analytic stand-in for a trained flow (the
time-t marginal of the linear noise-to-data interpolation is again a
mixture, so the conditional-expectation velocity field is exact), and
ground truth for quadrature KL checks.

Linear interpolation path: x_t = t * x1 + (1 - t) * x0 with x0 ~ N(0, I)
and x1 drawn from the mixture. Component j of the time-t marginal is then
N(t * mu_j, t^2 * var_j + (1 - t)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of axis-aligned Gaussians: weights (k,), means (k, d), variances (k, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        v = np.asarray(self.variances, dtype=np.float64)
        if v.ndim < 2:
            v = np.broadcast_to(np.atleast_1d(v)[:, None], m.shape).copy()
        if np.any(w <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        if m.shape != v.shape or w.shape[0] != m.shape[0]:
            raise ValueError("component shapes disagree")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @classmethod
    def single(cls, mean, sigma):
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        return cls(np.array([1.0]), mean[None, :], np.full((1, mean.size), float(sigma) ** 2))

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.shape[0]

    def _component_log_pdf(self, x):
        """log N(x; mu_j, var_j) for every component; x is (B, d) -> (B, k)."""
        diff = x[:, None, :] - self.means[None, :, :]
        np.square(diff, out=diff)  # in place on the fresh difference, as are the steps below
        diff /= self.variances[None, :, :]
        quad = np.sum(diff, axis=2)
        log_norm = 0.5 * np.sum(np.log(2.0 * np.pi * self.variances), axis=1)
        quad *= -0.5
        quad -= log_norm[None, :]
        return quad

    def log_density(self, x):
        x, single = _as_batch(x, self.dim)
        out = logsumexp(self._component_log_pdf(x) + np.log(self.weights)[None, :], axis=1)
        return out[0] if single else out

    def density(self, x):
        return np.exp(self.log_density(x))

    def responsibilities(self, x):
        x, single = _as_batch(x, self.dim)
        logp = self._component_log_pdf(x) + np.log(self.weights)[None, :]
        r = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
        return r[0] if single else r

    def score(self, x):
        """Exact score sum_j r_j(x) * (mu_j - x) / var_j, via the log-sum-exp path."""
        x, single = _as_batch(x, self.dim)
        r = self.responsibilities(x) if self.n_components > 1 else np.ones((x.shape[0], 1))
        comp = (self.means[None, :, :] - x[:, None, :]) / self.variances[None, :, :]
        s = np.sum(r[:, :, None] * comp, axis=1)
        return s[0] if single else s

    def sample(self, rng, count):
        """Ancestral sampling: pick components, then draw the Gaussians."""
        rng = np.random.default_rng(rng)
        idx = rng.choice(self.n_components, size=count, p=self.weights)
        eps = rng.standard_normal((count, self.dim))
        return self.means[idx] + eps * np.sqrt(self.variances[idx])

    def log_density_hessian(self, x):
        """Hessian of log density: sum_j r_j (u_j u_j^T - diag(1/var_j)) - s s^T."""
        x, single = _as_batch(x, self.dim)
        r = self.responsibilities(x) if self.n_components > 1 else np.ones((x.shape[0], 1))
        u = (self.means[None, :, :] - x[:, None, :]) / self.variances[None, :, :]
        outer = u[:, :, :, None] * u[:, :, None, :]
        inv_var = np.zeros((self.n_components, self.dim, self.dim))
        idx = np.arange(self.dim)
        inv_var[:, idx, idx] = 1.0 / self.variances
        per_comp = outer - inv_var[None, :, :, :]
        s = np.sum(r[:, :, None] * u, axis=1)
        h = np.sum(r[:, :, None, None] * per_comp, axis=1) - s[:, :, None] * s[:, None, :]
        return h[0] if single else h

    def marginal(self, t):
        """Time-t marginal of the linear interpolation path, again a mixture."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        return GaussianMixture(
            self.weights.copy(),
            t * self.means,
            t * t * self.variances + (1.0 - t) ** 2,
        )

    def posterior_data_mean(self, t, x):
        """E[x1 | x_t = x]: per-component Gaussian conditioning mixed by responsibilities."""
        t = float(t)
        x, single = _as_batch(x, self.dim)
        marg = self.marginal(t)
        r = marg.responsibilities(x) if self.n_components > 1 else np.ones((x.shape[0], 1))
        mvar = marg.variances  # t^2 var + (1-t)^2
        cond = self.means[None, :, :] + (t * self.variances)[None, :, :] * (
            (x[:, None, :] - marg.means[None, :, :]) / mvar[None, :, :]
        )
        out = np.sum(r[:, :, None] * cond, axis=1)
        return out[0] if single else out

    def velocity(self, t, x):
        """Exact conditional-expectation velocity E[x1 - x0 | x_t = x].

        Equals (E[x1 | x_t] - x) / (1 - t); undefined at t = 1 where the
        path degenerates onto the data.
        """
        t = float(t)
        if not 0.0 <= t < 1.0:
            raise ValueError("velocity requires t in [0, 1)")
        return (self.posterior_data_mean(t, x) - np.asarray(x, dtype=np.float64)) / (1.0 - t)

    def marginal_score(self, t, x):
        """Score of the time-t marginal, directly from the mixture form."""
        return self.marginal(t).score(x)


class OracleVelocityField:
    """Adapter exposing a mixture's exact velocity with the (t, s, a) call shape.

    Stands in for a trained conditional field; the state argument is ignored
    because the target density is state-independent.
    """

    def __init__(self, mixture: GaussianMixture):
        self.mixture = mixture
        self.action_dim = mixture.dim

    def __call__(self, t, s, a):
        return self.mixture.velocity(t, a)


def _as_batch(x, dim):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x[None]
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"point has dimension {x.shape[0]}, mixture has {dim}")
        return x[None, :], True
    if x.shape[1] != dim:
        raise ValueError(f"points have dimension {x.shape[1]}, mixture has {dim}")
    return x, False
