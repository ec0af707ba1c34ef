"""Residual transport maps and the machinery that validates them.

The refined policy is the pushforward of the behavioral policy under
T_s(a) = a + delta(s, a). This module holds the map itself (a tanh-capped
residual net over the flow policy), the log-determinant expansion (with
the divergence of delta) used by the cheap density correction, the
Monte-Carlo quadratic KL form, and a quadrature oracle that computes the KL
exactly (for d <= 2) by numerically inverting the map on a grid. The oracle
deliberately uses finite-difference Jacobians so it stays independent of the
analytic path it validates.

Every grid function walks the mesh in blocks of GRID_BLOCK_ROWS points,
writing one value per point into an (N,) vector that is then integrated,
so no call holds (N, width) activations or (N, k) mixture arrays for a
whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import nets
from .densities import GaussianMixture
from .errors import ConvergenceError
from .flow import FlowPolicy, state_action_input
from .score import fisher_penalty_batch

GRID_COVER_STD = 6.0  # standard deviations of each mixture component a KL oracle grid spans
FD_STEP = 1e-5  # central-difference step of the oracle's Jacobian determinant
INVERT_MAX_ITER = 100  # fixed-point iterations `invert_map` allows before a row fails
INVERT_TOL = 1e-12  # last-step size below which `invert_map` takes a row as converged


@dataclass
class TransportMap:
    """Base flow policy plus a residual displacement net (input n + d, output d).

    The raw net output passes through max_displacement * tanh(raw /
    max_displacement): identity-like slope near zero, hard cap at
    max_displacement per coordinate. The cap bounds |delta|, not its
    Lipschitz constant, so it does not make T invertible: T is invertible
    where the displacement Jacobian has norm below 1, and a trained map can
    fold where it does not.
    """

    residual_net: nets.DenseNet
    base_policy: FlowPolicy
    max_displacement: float = 1.0

    def __post_init__(self):
        cap = self.max_displacement
        if isinstance(cap, bool) or not isinstance(cap, Real) or not 0.0 < cap < np.inf:
            raise ValueError(f"max_displacement must be a finite number > 0, got {cap!r}")
        net, n, d = self.residual_net, self.state_dim, self.action_dim
        if [net.in_size, net.out_size] != [n + d, d]:
            raise ValueError(f"a residual net maps {n + d} -> {d}, got {net.layer_sizes}")

    @classmethod
    def create(cls, state_dim, action_dim, base_policy, hidden=(64, 64),
               max_displacement=1.0, rng=None):
        net = nets.DenseNet.create([state_dim + action_dim, *hidden, action_dim], rng)
        # zero final layer: the map starts as an exact identity
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        return cls(net, base_policy, max_displacement)

    @property
    def state_dim(self):
        return self.base_policy.field.state_dim

    @property
    def action_dim(self):
        return self.base_policy.field.action_dim

    def residual(self, s, a, saved=None):
        """delta(s, a) = cap * tanh(raw / cap) of the residual net's raw output.

        When `saved` is given (an empty list), it receives this pass as
        (tanh(raw / cap), the net's forward cache) for residual_backward to
        consume.
        """
        inp = state_action_input(s, a, self.state_dim)
        cache = None if saved is None else []
        raw = nets.forward(self.residual_net, inp, cache)
        cap = self.max_displacement
        squashed = np.tanh(raw / cap)
        if saved is not None:
            saved.append((squashed, cache))
        return cap * squashed

    def residual_backward(self, upstream, saved):
        """VJP of the capped residual pass a `residual(s, a, saved)` call put in `saved`.

        Returns the net's tape and the gradient in the action; `upstream`
        has the (B, d) shape of that pass's output.
        """
        [(squashed, cache)] = saved
        if np.shape(upstream) != squashed.shape:
            raise ValueError(f"upstream has shape {np.shape(upstream)}, the pass {squashed.shape}")
        chain = 1.0 - squashed ** 2
        tape = nets.backward(self.residual_net, np.asarray(upstream) * chain, cache)
        return tape, tape.d_input[:, self.state_dim:]

    def action_map(self, s):
        """The per-state map a -> T_s(a) as a plain callable (vectorized)."""
        return lambda a: np.asarray(a, dtype=np.float64) + self.residual(s, np.asarray(a))

    def delta_fn(self, s):
        return lambda a: self.residual(s, np.asarray(a))


def displacement_jacobian(tmap: TransportMap, s, a) -> np.ndarray:
    """Jacobians (B, d, d) of delta w.r.t. the action at a (B, d) batch.

    One residual pass, then one VJP per output coordinate i, which gives
    row i of every point's Jacobian at once: jac[b, i, j] = d delta_i / d a_j.
    """
    a = nets.as_batch(a, tmap.action_dim, "actions")
    saved = []
    tmap.residual(s, a, saved)
    rows = []
    for i in range(tmap.action_dim):
        e = np.zeros_like(a)
        e[:, i] = 1.0
        _, d_action = tmap.residual_backward(e, saved)
        rows.append(d_action)
    return np.stack(rows, axis=1)


@dataclass(frozen=True)
class DetExpansion:
    """First-order vs exact inverse-Jacobian determinant, one (B,) entry per point."""

    divergence: np.ndarray
    approx_multiplier: np.ndarray  # 1 - div(delta)
    exact_multiplier: np.ndarray   # |det(I + grad delta)|^-1
    in_regime: np.ndarray          # False where 1 - div <= 0 (expansion invalid)

    @property
    def gap(self):
        return np.abs(self.exact_multiplier - self.approx_multiplier)


def log_det_inverse_approx(tmap: TransportMap, s, a) -> DetExpansion:
    """First-order determinant expansion of the inverse map at each row of a (B, d) batch."""
    jac = displacement_jacobian(tmap, s, a)
    div = np.trace(jac, axis1=1, axis2=2)
    exact = 1.0 / np.abs(np.linalg.det(np.eye(tmap.action_dim) + jac))
    approx = 1.0 - div
    return DetExpansion(divergence=div, approx_multiplier=approx,
                        exact_multiplier=exact, in_regime=approx > 0.0)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float


def kl_quadratic(delta_fn, density: GaussianMixture, samples) -> MCEstimate:
    """Monte-Carlo second-order KL: mean of 0.5 delta^T I delta over samples.

    `delta_fn` maps actions (N, d) to displacements; I = s s^T takes the
    density's exact scores, raw (neither trace-normalized nor damped), the
    form that approximates the KL.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] == 0:
        raise ValueError("empty sample set")
    deltas = delta_fn(samples)
    scores = density.score(samples)
    values, _ = fisher_penalty_batch(scores, deltas, normalize=False)
    n = values.shape[0]
    return MCEstimate(float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular quadrature grid: per-dimension (lo, hi, points), finite lo < hi, points >= 2."""

    lo: tuple
    hi: tuple
    points: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        pts = tuple(int(v) for v in np.atleast_1d(self.points))
        if not len(lo) == len(hi) == len(pts):
            raise ValueError("grid spec dimensions disagree")
        if any(p < 2 for p in pts):
            raise ValueError("each grid dimension needs at least 2 points")
        if not all(np.isfinite(l) and np.isfinite(h) and l < h for l, h in zip(lo, hi)):
            raise ValueError(f"each grid dimension needs finite lo < hi, got lo {lo}, hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return len(self.points)

    def axes(self):
        return [np.linspace(l, h, p) for l, h, p in zip(self.lo, self.hi, self.points)]

    def mesh(self):
        """All grid points as an (N, d) array, C-order over the axes."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def integrate(self, values):
        """Iterated trapezoidal rule of point values shaped like the grid."""
        arr = np.asarray(values, dtype=np.float64).reshape(self.points)
        for axis_pts in reversed(self.axes()):
            arr = np.trapezoid(arr, axis_pts, axis=-1)
        return float(arr)

    def covers(self, mixture: GaussianMixture):
        sd = np.sqrt(mixture.variances)
        lo_need = (mixture.means - GRID_COVER_STD * sd).min(axis=0)
        hi_need = (mixture.means + GRID_COVER_STD * sd).max(axis=0)
        return bool(np.all(np.asarray(self.lo) <= lo_need) and np.all(np.asarray(self.hi) >= hi_need))


def invert_map(map_fn, targets):
    """Solve T(a) = a' per row by fixed-point iteration a <- a' - delta(a).

    Valid while the displacement Jacobian stays below 1 in norm; rows are
    tracked individually (only the rows still moving are iterated, kept in
    compact arrays with their targets) until their last step is below
    INVERT_TOL, and any row still moving after INVERT_MAX_ITER iterations
    raises ConvergenceError.
    """
    targets = np.asarray(targets, dtype=np.float64)
    out = np.empty_like(targets)
    rows = np.arange(targets.shape[0])
    goal, a = targets, targets.copy()
    step = np.array([np.inf])  # no step taken yet
    for _ in range(INVERT_MAX_ITER):
        new = goal - (map_fn(a) - a)
        step = np.abs(new - a).max(axis=1)
        if not np.isfinite(new).all():
            raise ConvergenceError("map inversion diverged to non-finite values")
        still = step >= INVERT_TOL
        out[rows[~still]] = new[~still]
        rows, goal, a = rows[still], goal[still], new[still]
        if rows.size == 0:
            return out
    raise ConvergenceError(
        f"map inversion did not converge within {INVERT_MAX_ITER} iterations: {rows.size} of "
        f"{targets.shape[0]} rows still moving, largest last step {step.max():.3g}")


def _fd_jacobian_det(map_fn, points):
    """|det grad T| per row via central finite differences of step FD_STEP (oracle path)."""
    d = points.shape[1]
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = FD_STEP
        cols.append((map_fn(points + e) - map_fn(points - e)) / (2 * FD_STEP))
    jac = np.stack(cols, axis=2)  # (N, d_out, d_in)
    if d == 1:
        return np.abs(jac[:, 0, 0])
    return np.abs(np.linalg.det(jac))


def pushforward_density(density: GaussianMixture, map_fn, points):
    """Exact change-of-variables density of the pushforward at given points."""
    pre = invert_map(map_fn, points)
    det = _fd_jacobian_det(map_fn, pre)
    return density.density(pre) / det


# Points per block of a grid walk. Smaller blocks turn each 20001-point 1-D
# ladder into many Python-level steps; larger ones hold more memory.
GRID_BLOCK_ROWS = 4096


def _integrate_blocks(grid: GridSpec, point_fn) -> float:
    """Trapezoidal integral of point_fn over the grid mesh, GRID_BLOCK_ROWS points at a time.

    point_fn maps an (n, d) block of mesh points to their (n,) values.
    """
    pts = grid.mesh()
    values = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], GRID_BLOCK_ROWS):
        stop = start + GRID_BLOCK_ROWS
        values[start:stop] = point_fn(pts[start:stop])
    return grid.integrate(values)


@dataclass(frozen=True)
class QuadratureKL:
    """KL(pushforward || base) on a quadrature grid."""

    value: float


def kl_quadrature_oracle(density: GaussianMixture, transport, s, grid: GridSpec) -> QuadratureKL:
    """Grid-exact KL(pi_theta || pi_beta) for d <= 2.

    pi_theta on the grid comes from numerically inverting the map per grid
    point (fixed-point iteration) and a finite-difference Jacobian
    determinant; the divergence is then a trapezoidal integral of
    pi_theta log(pi_theta / pi_beta).
    """
    if grid.dim > 2 or density.dim > 2:
        raise ValueError("quadrature oracle supports d <= 2 only")
    if grid.dim != density.dim:
        raise ValueError("grid and density dimensions disagree")
    if not grid.covers(density):
        raise ValueError(f"grid must cover at least {GRID_COVER_STD:g} standard deviations "
                         "per mixture component")
    map_fn = transport.action_map(s) if isinstance(transport, TransportMap) else transport

    def integrand(pts):
        p_theta = pushforward_density(density, map_fn, pts)
        log_p_beta = density.log_density(pts)
        safe = p_theta > 0
        out = np.zeros_like(p_theta)
        out[safe] = p_theta[safe] * (np.log(p_theta[safe]) - log_p_beta[safe])
        return out

    return QuadratureKL(_integrate_blocks(grid, integrand))


def expected_quadratic_penalty(density: GaussianMixture, delta_fn, grid: GridSpec) -> float:
    """Deterministic counterpart of kl_quadratic: quadrature of 0.5 delta^T I delta."""

    def integrand(pts):
        deltas = delta_fn(pts)
        saved = []
        p = density.density(pts, saved)
        values, _ = fisher_penalty_batch(density.score(pts, saved), deltas, normalize=False)
        return values * p

    return _integrate_blocks(grid, integrand)


def curvature_term_diagnostic(density: GaussianMixture, delta_fn, grid: GridSpec) -> float:
    """Magnitude of the dropped density-curvature term of the KL expansion.

    The retained Fisher form omits -0.5 E[delta^T (hess pi / pi) delta];
    this evaluates it by quadrature so runs can report how small it
    actually is. Diagnostic only.
    """

    def integrand(pts):
        deltas = delta_fn(pts)
        saved = []
        p = density.density(pts, saved)
        ratio = density.density_hessian_ratio(pts, saved)
        return np.einsum("bi,bij,bj->b", deltas, ratio, deltas) * p

    return -0.5 * _integrate_blocks(grid, integrand)


def region_mass(density_values, grid: GridSpec, mask) -> float:
    """Trapezoidal mass of point values restricted to a region.

    `mask` is a callable (N, d) -> bool over grid points.
    """
    vals = np.asarray(density_values, dtype=np.float64).copy()
    vals[~mask(grid.mesh())] = 0.0
    return grid.integrate(vals)


def pushforward_region_mass(density: GaussianMixture, map_fn, grid: GridSpec, mask) -> float:
    """Mass the pushforward assigns to a region, without inverting the map.

    Change of variables: P(T(a) in R) = integral of pi_beta(a) 1[T(a) in R],
    so the indicator is evaluated at the mapped grid points. `mask` must
    therefore be a callable (N, d) -> bool over points; an array over grid
    points would ignore the map and raises TypeError. Robust even where the
    displacement Jacobian is large and inversion would fail.
    """
    if not callable(mask):
        raise TypeError("pushforward_region_mass takes a callable mask over mapped points")
    return _integrate_blocks(
        grid, lambda pts: np.where(mask(map_fn(pts)), density.density(pts), 0.0))
