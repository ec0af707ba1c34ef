"""Shared finite-difference and closed-form oracles for the test suite."""

import numpy as np


def fd_gradient(f, x, step=1e-4):
    """Central-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = step
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def fd_array_gradient(f, arr, step=1e-4):
    """Central differences of scalar f w.r.t. every entry of an array."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + step
        hi = f()
        arr[idx] = old - step
        lo = f()
        arr[idx] = old
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def rel_error(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    scale = np.maximum(scale, floor)
    return float(np.max(np.abs(a - b) / scale))


def fd_divergence(tmap, s, a, step=1e-6):
    """Central-difference trace of the displacement field's action-Jacobian."""
    a = np.asarray(a, dtype=np.float64)
    total = 0.0
    for i in range(a.size):
        e = np.zeros(a.size)
        e[i] = step
        total += float(tmap.residual(s, a + e)[i] - tmap.residual(s, a - e)[i]) / (2 * step)
    return total


def gaussian_oracle_velocity(mu, sigma, t, a):
    """Closed-form velocity E[x1 - x0 | x_t = a] of the linear path to N(mu, sigma^2 I).

    The time-t marginal is N(t mu, (t^2 sigma^2 + (1-t)^2) I), so E[x1 | x_t]
    is jointly Gaussian conditioning and the velocity is
    (E[x1 | x_t] - x_t) / (1 - t), for t in [0, 1).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    a = np.asarray(a, dtype=np.float64)
    m_t = t * t * sigma * sigma + (1.0 - t) ** 2
    posterior = mu + t * sigma * sigma * (a - t * mu) / m_t
    return (posterior - a) / (1.0 - t)
