"""Shared finite-difference and closed-form oracles for the test suite."""

import numpy as np
from scipy.special import logsumexp

from fisherflow import flow, nets, training, transport
from fisherflow.errors import ConvergenceError, NumericError
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


def vjp(net, x, upstream):
    """`nets.backward`'s tape for `upstream` at batch x: one cached forward, then the backward."""
    cache = []
    nets.forward(net, x, cache)
    return nets.backward(net, upstream, cache)


def fd_divergence(tmap, s, a, step=1e-6):
    """Central-difference trace of the displacement field's action-Jacobian at a (1, d) point."""
    a = np.asarray(a, dtype=np.float64)
    total = 0.0
    for i in range(a.shape[1]):
        e = np.zeros_like(a)
        e[0, i] = step
        total += float(tmap.residual(s, a + e)[0, i] - tmap.residual(s, a - e)[0, i]) / (2 * step)
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


def dense_metric_reference(s, normalize, damping):
    """The dense d x d metric of one score s, c s s^T + damping I, built and symmetrized.

    A zero score that cannot be trace-normalized becomes the zero vector with scale 1.
    """
    d, sq, scale = s.shape[0], float(s @ s), 1.0
    if normalize:
        if sq <= 1e-24:
            s = np.zeros(d)
        else:
            scale = d / sq
    m = scale * np.outer(s, s) + damping * np.eye(d)
    return 0.5 * (m + m.T)


def iterate_quadratic_refine(score, g, lam, normalize=False, damping=0.0, max_steps=200_000,
                             tol=1e-14) -> np.ndarray:
    """Fixed point of plain ascent on g^T d - (lambda/2) d^T M d, M the metric of one score (d,).

    This is the actor update specialized to an exact quadratic surrogate with
    a free displacement vector: each step reads M d from the gradient of
    `fisher_penalty_batch`, the penalty kernel the actor trains with, and the
    step size 1 / (lambda lambda_max) uses M's top eigenvalue c |s|^2 + mu in
    closed form. It converges to the closed-form solution (1/lambda) M^-1 g
    and serves as its independent check (criterion 5).
    """
    s = np.asarray(score, dtype=np.float64)[None]
    g = np.asarray(g, dtype=np.float64)
    sq = float(s[0] @ s[0])
    c = (s.shape[1] / sq if sq > 1e-24 else 0.0) if normalize else 1.0
    step = 1.0 / (lam * (c * sq + damping) + 1e-12)
    d = np.zeros_like(g)
    for _ in range(max_steps):
        _, md = fisher_penalty_batch(s, d[None], normalize, damping)
        grad = g - lam * md[0]
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


def base_stream_reference(policy, config, dataset, task):
    """A base stream's draws by the serial loop, given the stream's pretrained policy.

    Each step draws its minibatch indices and then its Euler noise from the
    loop generator and samples its base actions at once; the evaluation draw
    follows. Returns (indices, actions, eval_states, eval_actions).
    """
    _, _, _, _, rng_loop, rng_eval = training._run_rngs(config.seed)
    size, d = len(dataset), task.action_dim
    b = min(config.batch_size, size)
    indices = np.empty((config.steps, b), dtype=np.int64)
    actions = np.empty((config.steps, b, d))
    for step in range(config.steps):
        try:
            indices[step] = rng_loop.integers(0, size, size=b)
            z = rng_loop.standard_normal((b, d))
            actions[step] = flow.sample_action(policy, dataset.states[indices[step]], z)
        except NumericError as exc:
            raise NumericError(f"training step {step}: {exc}") from exc
    eval_states, eval_actions = training.evaluation_inputs(policy, task, config.eval_samples,
                                                           rng_eval)
    return indices, actions, eval_states, eval_actions


def gated_actions_reference(task, states, rng):
    """Per-row ancestral sampling of a gated task: one mixture per state, one draw from each.

    Builds `task.density(s)` (a `GaussianMixture`, with its weight checks)
    for every state and draws one action from it with `rng`: the
    component by `Generator.choice`, then d standard normals.
    """
    return np.stack([task.density(s).sample(rng, 1)[0] for s in states])


class AdamReference:
    """The former Adam update: weights, then biases, each group with its own moment lists.

    Betas 0.9 and 0.999 and eps 1e-8, every moment and parameter computed
    out of place and then written back.
    """

    def __init__(self, net, learning_rate):
        self.learning_rate, self.step = learning_rate, 0
        self.m_w = [np.zeros_like(w) for w in net.weights]
        self.v_w = [np.zeros_like(w) for w in net.weights]
        self.m_b = [np.zeros_like(b) for b in net.biases]
        self.v_b = [np.zeros_like(b) for b in net.biases]

    def step_net(self, net, tape):
        t = self.step + 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        scale = self.learning_rate * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        for params, grads, ms, vs in ((net.weights, tape.d_weights, self.m_w, self.v_w),
                                      (net.biases, tape.d_biases, self.m_b, self.v_b)):
            for p, g, m, v in zip(params, grads, ms, vs):
                m[...] = m * b1 + (1.0 - b1) * g
                v[...] = v * b2 + (1.0 - b2) * g * g
                p[...] = p - scale * m / (np.sqrt(v) + eps)
        self.step = t


def net_to_dict(net):
    """The JSON-ready dict of a `DenseNet` that `nets.DenseNet.from_dict` reads."""
    return {
        "format_version": nets.CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activation": "gelu",
        "weights": [w.ravel(order="C").tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def checkpoint_payload(result, task_name):
    """The dict whose `json.dump` `training.save_checkpoint` must reproduce byte for byte."""
    return {
        "format_version": nets.CHECKPOINT_FORMAT_VERSION,
        "task": task_name,
        "flow_net": net_to_dict(result.transport_map.base_policy.field.net),
        "flow_integration_steps": result.transport_map.base_policy.steps,
        "residual_net": net_to_dict(result.transport_map.residual_net),
        "max_displacement": result.transport_map.max_displacement,
        "critic_nets": ([net_to_dict(n) for n in result.critic.online]
                        if result.critic is not None else None),
        "dual": {"lam": result.dual.lam, "epsilon": result.dual.epsilon, "eta": result.dual.eta},
    }


# RefineConfig settings that the config refuses, each with a word its message must hold
# (TD settings come with a learned critic, so the refused value is the only fault)
REFUSED_SETTINGS = [
    (dict(grad_clip=float("nan")), "grad_clip"),
    (dict(mode="td", analytic_q=False, gamma=float("nan")), "gamma"),
    (dict(mode="td", analytic_q=False, gamma=3.0), "gamma"),
    (dict(mode="td", analytic_q=False, tau=-5.0), "tau"),
    (dict(eta=float("inf")), "eta"),
    (dict(epsilon=float("inf")), "epsilon"),
    (dict(lambda_init=float("inf")), "lambda_init"),
    (dict(damping=float("inf")), "damping"),
    (dict(max_displacement=float("inf")), "max_displacement"),
    (dict(mode="td"), "analytic_q"),  # the default analytic Q
    (dict(t_eps=1.0), "t_eps"),  # the default fisher metric
]
# settings only a library caller can make: the config codec parses each value to its field's type
LIBRARY_REFUSED_SETTINGS = [
    (dict(analytic_q="false"), "analytic_q"),  # a truthy string
    (dict(normalize_metric="false"), "normalize_metric"),
    (dict(normalize_metric=1), "normalize_metric"),
    (dict(steps=True), "steps"),
    (dict(eval_samples=True), "eval_samples"),
    (dict(learning_rate=False), "learning_rate"),
    # every count is an integer, and the seed one >= 0
    (dict(steps=2.5), "steps"),
    (dict(flow_steps=2.5), "flow_steps"),
    (dict(batch_size=16.0), "batch_size"),
    (dict(hidden=(8.5,)), "hidden"),
    (dict(hidden=(True, 4)), "hidden"),
    (dict(eval_samples=10.5), "eval_samples"),
    (dict(log_interval=1.5), "log_interval"),
    (dict(flow_integration_steps=2.5), "flow_integration_steps"),
    (dict(seed=1.5), "seed"),
    (dict(seed=-1), "seed"),
]
