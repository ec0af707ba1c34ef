"""Diagonal Gaussian mixtures with every quantity the oracles need in closed form.

A mixture plays three roles here: test-oracle behavioral density (exact
log-density, score, sampling), analytic stand-in for a trained flow (the
time-t marginal of the linear noise-to-data interpolation is again a
mixture, so the conditional-expectation velocity field is exact), and
ground truth for quadrature KL checks.

Linear interpolation path: x_t = t * x1 + (1 - t) * x0 with x0 ~ N(0, I)
and x1 drawn from the mixture. Component j of the time-t marginal is then
N(t * mu_j, t^2 * var_j + (1 - t)^2).

Every point method takes a (B, d) batch, one point being a batch of one,
and returns one row (or value) per point; any other shape is a ValueError.
One component pass serves a whole point set. Given an empty list as
`saved`, `log_density` (and `density`) put the responsibilities of their
pass into it; `score`, `density_hessian_ratio` and `log_density_hessian`
given that list consume it instead of running the component log-pdf and
its log-sum-exp again. hess p / p and the Hessian never hold
per-component (N, k, d, d) tensors: they add one component at a time into
a single (N, d, d) array (with d = 1 the terms are scalars, one array the
size of the responsibilities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import as_batch


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

    def _log_joint(self, x):
        """log w_j + log N(x; mu_j, var_j) per component (B, k), and its log-sum-exp (B,)."""
        logp = self._component_log_pdf(x)
        logp += np.log(self.weights)[None, :]
        return logp, _logsumexp_rows(logp)

    def log_density(self, x, saved=None):
        """log p(x) per point.

        When `saved` is given (an empty list), it receives the (B, k)
        responsibilities of this pass for `score` and `log_density_hessian`.
        """
        x = as_batch(x, self.dim)
        logp, out = self._log_joint(x)
        if saved is not None:
            saved.append(_normalized(logp, out))
        return out

    def density(self, x, saved=None):
        """p(x) per point; `saved` as in `log_density`."""
        return np.exp(self.log_density(x, saved))

    def responsibilities(self, x):
        x = as_batch(x, self.dim)
        return _normalized(*self._log_joint(x))

    def _responsibilities_of(self, x, saved):
        """Responsibilities for batch x: the ones in `saved` when given, else a fresh pass.

        A single component gets exactly 1.0 wherever its log-pdf is finite.
        """
        if saved is None:
            return self.responsibilities(x)
        [r] = saved
        if r.shape[0] != x.shape[0]:
            raise ValueError(f"saved pass holds {r.shape[0]} rows, got {x.shape[0]} points")
        return r

    def score(self, x, saved=None):
        """Exact score sum_j r_j(x) * (mu_j - x) / var_j, via the log-sum-exp path.

        `saved` is the list a `log_density(x, saved)` call filled; without
        one, this runs the responsibilities pass itself.
        """
        x = as_batch(x, self.dim)
        r = self._responsibilities_of(x, saved)
        comp = (self.means[None, :, :] - x[:, None, :]) / self.variances[None, :, :]
        return np.sum(r[:, :, None] * comp, axis=1)

    def sample(self, rng, count):
        """Ancestral sampling: pick components, then draw the Gaussians."""
        rng = np.random.default_rng(rng)
        idx = rng.choice(self.n_components, size=count, p=self.weights)
        eps = rng.standard_normal((count, self.dim))
        return self.means[idx] + eps * np.sqrt(self.variances[idx])

    def density_hessian_ratio(self, x, saved=None):
        """hess p / p = sum_j r_j (u_j u_j^T - diag(1/var_j)), u_j = (mu_j - x) / var_j.

        `saved` works as in `score`. For d >= 2 the component terms are added
        one at a time into one (N, d, d) array, from zero in component order,
        which is how np.sum over the component axis adds them; no (N, k, d, d)
        tensor is held.
        """
        x = as_batch(x, self.dim)
        r = self._responsibilities_of(x, saved)
        u = (self.means[None, :, :] - x[:, None, :]) / self.variances[None, :, :]
        inv_var = 1.0 / self.variances
        if self.dim == 1:
            # scalar terms, where np.sum adds each row of k pairwise; (N, k) is the
            # size of r, so they are summed as one array in that order
            u1 = u[:, :, 0]
            return np.sum(r * (u1 * u1 - inv_var[:, 0]), axis=1)[:, None, None]
        h = np.zeros((x.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        for j in range(self.n_components):
            term = u[:, j, :, None] * u[:, j, None, :]
            term[:, idx, idx] -= inv_var[j]
            term *= r[:, j, None, None]
            h += term
        return h

    def log_density_hessian(self, x, saved=None):
        """Hessian of log density: hess p / p - s s^T, both from one pass; `saved` as in `score`."""
        if saved is None:
            saved = [self.responsibilities(x)]
        h = self.density_hessian_ratio(x, saved)
        s = self.score(x, saved)
        h -= s[:, :, None] * s[:, None, :]
        return h

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
        x = as_batch(x, self.dim)
        marg = self.marginal(t)
        r = marg.responsibilities(x)
        mvar = marg.variances  # t^2 var + (1-t)^2
        cond = self.means[None, :, :] + (t * self.variances)[None, :, :] * (
            (x[:, None, :] - marg.means[None, :, :]) / mvar[None, :, :]
        )
        return np.sum(r[:, :, None] * cond, axis=1)

    def velocity(self, t, x):
        """Exact conditional-expectation velocity E[x1 - x0 | x_t = x].

        Equals (E[x1 | x_t] - x) / (1 - t); undefined at t = 1 where the
        path degenerates onto the data.
        """
        t = float(t)
        if not 0.0 <= t < 1.0:
            raise ValueError("velocity requires t in [0, 1)")
        return (self.posterior_data_mean(t, x) - np.asarray(x, dtype=np.float64)) / (1.0 - t)


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


def _logsumexp_rows(a):
    """Row-wise log-sum-exp of (B, k) `a`, bit for bit scipy.special.logsumexp(a, axis=1).

    A port of scipy's real path without its ~0.1 ms fixed cost per call:
    log1p(sum of exp(a - max) off the row max / m) + log m + max, m the
    count of max entries; rows where that is not finite take log(sum(exp(a))).
    """
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    ties = np.sum(at_top, axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=1, keepdims=True)
        out = (np.log1p(rest / ties) + np.log(ties) + top)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _normalized(logp, lse):
    """exp(logp - lse) per row, written into logp."""
    logp -= lse[:, None]
    return np.exp(logp, out=logp)
