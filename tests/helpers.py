"""Shared finite-difference and closed-form oracles for the test suite."""

import numpy as np
from scipy.special import logsumexp

from fisherflow import nets, transport
from fisherflow.errors import ConvergenceError
from fisherflow.score import fisher_penalty_batch


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


def responsibilities_reference(mix, x):
    """Out-of-place responsibilities of batch x: exp(log p_j - logsumexp_j log p_j)."""
    logp = mix._component_log_pdf(x) + np.log(mix.weights)[None, :]
    return np.exp(logp - logsumexp(logp, axis=1, keepdims=True))


def density_hessian_ratio_reference(mix, x):
    """hess p / p of batch x from every component's (d, d) term at once.

    Builds the (N, k, d, d) tensor r_j (u_j u_j^T - diag(1/var_j)) and sums
    it with np.sum(axis=1).
    """
    r = responsibilities_reference(mix, x) if mix.n_components > 1 else np.ones((x.shape[0], 1))
    u = (mix.means[None, :, :] - x[:, None, :]) / mix.variances[None, :, :]
    outer = u[:, :, :, None] * u[:, :, None, :]
    inv_var = np.zeros((mix.n_components, mix.dim, mix.dim))
    idx = np.arange(mix.dim)
    inv_var[:, idx, idx] = 1.0 / mix.variances
    per_comp = outer - inv_var[None, :, :, :]
    return np.sum(r[:, :, None, None] * per_comp, axis=1)


def log_density_hessian_reference(mix, x):
    """Hessian of log density of batch x: the reference hess p / p minus s s^T."""
    r = responsibilities_reference(mix, x) if mix.n_components > 1 else np.ones((x.shape[0], 1))
    u = (mix.means[None, :, :] - x[:, None, :]) / mix.variances[None, :, :]
    s = np.sum(r[:, :, None] * u, axis=1)
    return density_hessian_ratio_reference(mix, x) - s[:, :, None] * s[:, None, :]


def iterate_quadratic_refine(metric, g, lam, max_steps=200_000, tol=1e-14) -> np.ndarray:
    """Fixed point of plain ascent on g^T d - (lambda/2) d^T M d.

    This is the actor update specialized to an exact quadratic surrogate with
    a free displacement vector; it converges to the closed-form solution
    (1/lambda) M^-1 g and serves as its independent check (criterion 5).
    """
    g = np.asarray(g, dtype=np.float64)
    m = metric.matrix
    lam_max = float(np.linalg.eigvalsh(m).max())
    step = 1.0 / (lam * lam_max + 1e-12)
    d = np.zeros_like(g)
    for _ in range(max_steps):
        grad = g - lam * (m @ d)
        d = d + step * grad
        if np.linalg.norm(grad) < tol:
            break
    return d


def invert_map_reference(map_fn, targets, max_iter=100, tol=1e-12):
    """Fixed-point inversion over the full array: gathers the active rows and scatters them back.

    Raises ConvergenceError naming the rows still moving, out of all rows.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    a = targets.copy()
    active = np.ones(a.shape[0], dtype=bool)
    for _ in range(max_iter):
        delta = np.atleast_2d(map_fn(a[active])) - a[active]
        new = targets[active] - delta
        moved = np.abs(new - a[active]).max(axis=1)
        if not np.isfinite(new).all():
            raise ConvergenceError("map inversion diverged to non-finite values")
        a[active] = new
        still = moved >= tol
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
        if not active.any():
            return a
    raise ConvergenceError(f"{int(active.sum())} of {a.shape[0]} rows still moving")


def grid_oracles_reference(density, delta_fn, grid, mask):
    """The four grid integrals of `transport`, each evaluated over the whole mesh in one array.

    The map is T(a) = a + delta_fn(a). Returns the KL oracle's value (map
    inverted and finite-differenced on the full mesh), the quadratic
    penalty, the curvature diagnostic and the pushforward region mass.
    """
    map_fn = lambda a: a + delta_fn(a)
    pts = grid.mesh()
    pre = transport.invert_map(map_fn, pts)
    p_theta = density.density(pre) / transport._fd_jacobian_det(map_fn, pre)
    log_p_beta = density.log_density(pts)
    safe = p_theta > 0
    kl = np.zeros_like(p_theta)
    kl[safe] = p_theta[safe] * (np.log(p_theta[safe]) - log_p_beta[safe])
    deltas = np.atleast_2d(delta_fn(pts))
    p = density.density(pts)
    penalty, _ = fisher_penalty_batch(density.score(pts), deltas, normalize=False)
    curvature = np.einsum("bi,bij,bj->b", deltas, density.density_hessian_ratio(pts), deltas)
    inside = np.where(mask(np.atleast_2d(map_fn(pts))), p, 0.0)
    return {"kl": grid.integrate(kl), "penalty": grid.integrate(penalty * p),
            "curvature": -0.5 * grid.integrate(curvature * p), "region_mass": grid.integrate(inside)}


def gated_actions_reference(task, states, rng):
    """Per-row ancestral sampling of a gated task: one mixture per state, one draw from each.

    Builds `task.density(s)` (a `GaussianMixture`, with its weight checks)
    for every state and draws one action from it with `rng`: the
    component by `Generator.choice`, then d standard normals.
    """
    return np.stack([task.density(s).sample(rng, 1)[0] for s in states])


def net_to_dict(net):
    """The JSON-ready dict of a `DenseNet` that `nets.DenseNet.from_dict` reads."""
    return {
        "format_version": nets.CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activation": net.activation,
        "weights": [w.ravel(order="C").tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def checkpoint_payload(result, task_name):
    """The dict whose `json.dump` `training.save_checkpoint` must reproduce byte for byte."""
    return {
        "format_version": nets.CHECKPOINT_FORMAT_VERSION,
        "task": task_name,
        "flow_net": net_to_dict(result.policy.field.net),
        "flow_integration_steps": result.policy.steps,
        "residual_net": net_to_dict(result.transport_map.residual_net),
        "max_displacement": result.transport_map.max_displacement,
        "critic_nets": ([net_to_dict(n) for n in result.critic.online]
                        if result.critic is not None else None),
        "dual": {"lam": result.dual.lam, "epsilon": result.dual.epsilon, "eta": result.dual.eta},
    }
