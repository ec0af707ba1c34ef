"""Synthetic 2D refinement tasks with closed-form densities and value landscapes.

Every task pairs an analytic behavioral mixture (exact score, exact
sampling) with an analytic value landscape (sums of Gaussian bumps, exact
gradient). States are a constant empty vector by default (n = 0), which
isolates the action-space geometry; one gated variant conditions the
mixture weights on a 2D state to exercise the conditional path.

Landscape geometries:
  bimodal_asymmetric     two modes, value favors the right one, low saddle between
  saddle_barrier         two modes, strong negative barrier through the corridor
  thin_manifold_corridor arc-shaped support, value rises along the arc
  detached_hotspot       arc support plus an off-support peak that beats the arc
  crescent               crescent support with two competing high-value lobes
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import GaussianMixture
from .nets import as_batch

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class QLandscape:
    """Sum of isotropic Gaussian bumps: Q(a) = sum_i A_i exp(-|a - c_i|^2 / (2 w_i^2))."""

    amplitudes: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=np.float64))
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        widths = np.atleast_1d(np.asarray(self.widths, dtype=np.float64))
        if not amps.shape[0] == centers.shape[0] == widths.shape[0]:
            raise ValueError("bump parameter counts disagree")
        if np.any(widths <= 0):
            raise ValueError("bump widths must be positive")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    def value_and_gradient(self, a):
        """Q (B,) and its exact gradient (B, d) at a (B, d) batch, from one pass over the bumps."""
        a = as_batch(a, self.centers.shape[1])
        diff = a[:, None, :] - self.centers[None, :, :]
        expo = np.exp(-0.5 * np.sum(diff**2, axis=2) / self.widths[None, :] ** 2)
        value = expo @ self.amplitudes
        coeff = self.amplitudes[None, :] * expo / self.widths[None, :] ** 2
        grad = -np.sum(coeff[:, :, None] * diff, axis=1)
        return value, grad


@dataclass(frozen=True)
class SyntheticTask:
    """Behavioral density + value landscape + state sampler, all analytic."""

    name: str
    behavioral: GaussianMixture
    landscape: QLandscape
    state_dim: int = 0
    corridor: tuple | None = None     # ((lo, hi) per dim) of the documented low-density region
    weight_gate: object = None        # optional callable s -> component weights

    @property
    def action_dim(self):
        return self.behavioral.dim

    def density(self, s=None) -> GaussianMixture:
        """Behavioral mixture at state s (state-independent unless gated)."""
        if self.weight_gate is None or s is None:
            return self.behavioral
        w = np.asarray(self.weight_gate(np.asarray(s, dtype=np.float64)), dtype=np.float64)
        return GaussianMixture(w, self.behavioral.means.copy(), self.behavioral.variances.copy())

    def sample_states(self, rng, count):
        if self.state_dim == 0:
            return np.zeros((count, 0))
        return np.random.default_rng(rng).standard_normal((count, self.state_dim))

    def sample_behavioral(self, rng, count):
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.behavioral.sample(rng, count)

    def q_value(self, s, a):
        """Analytic values (B,) and exact action gradients (B, d) of the landscape at `a` (B, d).

        The landscape ignores `s`: a task's gating only reweights its
        behavioral mixture, never the value.
        """
        a = np.asarray(a, dtype=np.float64)
        if not np.isfinite(a).all():
            raise ValueError("actions must be finite")
        return self.landscape.value_and_gradient(a)

    def corridor_mask(self, points):
        if self.corridor is None:
            raise ValueError(f"task {self.name!r} documents no corridor region")
        pts = as_batch(points, self.action_dim)
        mask = np.ones(pts.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.corridor):
            if lo is not None:
                mask &= pts[:, i] >= lo
            if hi is not None:
                mask &= pts[:, i] <= hi
        return mask


def _arc_mixture(n_components=8, radius=2.0, sigma=0.15, start=0.0, end=np.pi / 2):
    angles = np.linspace(start, end, n_components)
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    weights = np.full(n_components, 1.0 / n_components)
    return GaussianMixture(weights, means, np.full((n_components, 2), sigma**2)), angles


def _bimodal_task(name, barrier_amp, state_dim=0, weight_gate=None):
    behavioral = GaussianMixture(
        [0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], np.full((2, 2), 0.4**2)
    )
    # value favors the right mode; the peaks sit slightly off the mode centers so
    # on-support (tangential) refinement pays, and the corridor is a low-value saddle
    landscape = QLandscape(
        amplitudes=[1.2, 0.4, -barrier_amp],
        centers=[[2.0, 0.9], [-2.0, 0.9], [0.0, 0.0]],
        widths=[0.8, 0.8, 0.8],
    )
    return SyntheticTask(
        name, behavioral, landscape, state_dim=state_dim,
        corridor=((-0.8, 0.8), (None, None)),
        weight_gate=weight_gate,
    )


def make_task(name) -> SyntheticTask:
    """Build a catalog task by name."""
    if name == "bimodal_asymmetric":
        task = _bimodal_task(name, barrier_amp=0.7)
    elif name == "saddle_barrier":
        task = _bimodal_task(name, barrier_amp=1.5)
    elif name in ("thin_manifold_corridor", "detached_hotspot"):
        behavioral, angles = _arc_mixture()
        amps = list(0.2 + 0.8 * angles / angles[-1])
        centers = list(2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1))
        widths = [0.45] * len(angles)
        if name == "detached_hotspot":
            # off-arc peak that beats everything on the support (neighboring arc
            # bumps overlap and sum to ~2.1): the OOD trap
            amps.append(2.8)
            centers.append(np.array([3.2, 3.2]))
            widths.append(0.35)
        landscape = QLandscape(amps, np.stack(centers), widths)
        task = SyntheticTask(name, behavioral, landscape)
    elif name == "crescent":
        behavioral, angles = _arc_mixture(n_components=10, radius=1.8, sigma=0.2,
                                          start=-0.35 * np.pi, end=0.35 * np.pi)
        landscape = QLandscape(
            amplitudes=[1.0, 0.9, -0.6],
            centers=[[1.8 * np.cos(0.3 * np.pi), 1.8 * np.sin(0.3 * np.pi)],
                     [1.8 * np.cos(-0.3 * np.pi), 1.8 * np.sin(-0.3 * np.pi)],
                     [0.5, 0.0]],
            widths=[0.5, 0.5, 0.7],
        )
        task = SyntheticTask(name, behavioral, landscape)
    elif name == "bimodal_gated":

        def gate(s):
            w = 1.0 / (1.0 + np.exp(-2.0 * float(np.atleast_1d(s)[0])))
            return np.array([1.0 - w, w])

        task = _bimodal_task(name, barrier_amp=0.7, state_dim=2, weight_gate=gate)
    else:
        raise ValueError(f"unknown task {name!r}")
    return task


TASK_NAMES = ("bimodal_asymmetric", "saddle_barrier", "thin_manifold_corridor",
              "detached_hotspot", "crescent", "bimodal_gated")


@dataclass
class OfflineDataset:
    """Rows of (s, a[, r, s']) plus generator metadata."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray | None = None
    next_states: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.actions.shape[0]

    @property
    def state_dim(self):
        return self.states.shape[1]

    @property
    def action_dim(self):
        return self.actions.shape[1]


def make_dataset(task: SyntheticTask, size, seed, mode="bandit", noise=0.0) -> OfflineDataset:
    """Seeded dataset generator.

    bandit: r = Q(s, a) + noise, no next state (terminal transitions).
    chain:  adds a next state drawn from the state sampler, for TD exercise.

    One generator draws, in order: the states, the actions, the reward
    noise (when noise > 0), then the next states (chain). An ungated task
    samples all actions from its mixture at once. A gated task draws per
    row, as ancestral sampling from that row's mixture would: one uniform
    picking the component, then d standard normals (see `_gated_actions`).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if mode not in ("bandit", "chain"):
        raise ValueError(f"unknown dataset mode {mode!r}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    states = task.sample_states(rng, size)
    if task.weight_gate is None:
        actions = task.sample_behavioral(rng, size)
    else:
        actions = _gated_actions(task, states, rng)
    values, _ = task.q_value(states, actions)
    rewards = values + (noise * rng.standard_normal(size) if noise else 0.0)
    next_states = task.sample_states(rng, size) if mode == "chain" else None
    meta = {"task": task.name, "seed": int(seed), "mode": mode, "noise": float(noise),
            "n": task.state_dim, "d": task.action_dim}
    return OfflineDataset(states, actions, rewards, next_states, meta)


def _gated_actions(task: SyntheticTask, states, rng):
    """One action per state from the state's gated mixture, without building a mixture per row.

    Row i takes u = rng.random(), then eps = rng.standard_normal(d): the
    draws `task.density(states[i]).sample(rng, 1)` makes, in its order, so
    the actions are bit for bit those of per-row sampling. The component is
    the number of entries of cdf = cumsum(w) / cumsum(w)[-1] that are <= u
    (numpy's `Generator.choice` rule), and the action is
    means[idx] + eps * sqrt(variances[idx]). The gate weights pass the
    mixture's own checks first.
    """
    mix = task.behavioral
    w = np.array([task.weight_gate(s) for s in states], dtype=np.float64)
    if w.shape != (states.shape[0], mix.n_components):
        raise ValueError("component shapes disagree")
    if not (w > 0).all():
        raise ValueError("mixture weights must be positive")
    if (np.abs(w.sum(axis=1) - 1.0) > 1e-12).any():
        raise ValueError("mixture weights must sum to 1")
    u = np.empty(states.shape[0])
    eps = np.empty((states.shape[0], mix.dim))
    for i in range(states.shape[0]):
        u[i] = rng.random()
        eps[i] = rng.standard_normal(mix.dim)
    cdf = np.cumsum(w, axis=1)
    cdf /= cdf[:, -1:]
    idx = np.sum(cdf <= u[:, None], axis=1)
    return mix.means[idx] + eps * np.sqrt(mix.variances[idx])


def save_dataset(dataset: OfflineDataset, path):
    """Delimited text with a header row declaring n, d and optional columns."""
    n, d = dataset.state_dim, dataset.action_dim
    has_r = dataset.rewards is not None
    has_next = dataset.next_states is not None
    cols = [dataset.states, dataset.actions]
    if has_r:
        cols.append(np.asarray(dataset.rewards).reshape(-1, 1))
    if has_next:
        cols.append(dataset.next_states)
    table = np.concatenate(cols, axis=1)
    meta = dataset.meta
    header = (
        f"fisherflow-dataset v{DATASET_FORMAT_VERSION} "
        f"n={n} d={d} reward={int(has_r)} next_state={int(has_next)} "
        f"task={meta.get('task', '?')} seed={meta.get('seed', '?')} "
        f"mode={meta.get('mode', '?')} noise={meta.get('noise', 0.0)}"
    )
    with open(path, "w") as fh:
        np.savetxt(fh, table, fmt="%.17g", header=header)


def load_dataset(path) -> OfflineDataset:
    """Read a file written by `save_dataset`.

    The header line is checked first; numpy then parses the rest of the open
    file in place, so no copy of the body is held as text. A foreign header,
    one without a format version or without a column field (n, d, reward,
    next_state), an unreadable cell, an empty body, a column count other
    than the header's, or a non-finite value is a ValueError.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# fisherflow-dataset"):
            raise ValueError("not a fisherflow dataset file")
        tokens = header.split()
        if len(tokens) < 3:
            raise ValueError(f"{path}: the dataset header names no format version")
        if tokens[2] != f"v{DATASET_FORMAT_VERSION}":
            raise ValueError(f"unsupported dataset format {tokens[2]!r}")
        fields = dict(tok.split("=", 1) for tok in tokens[3:] if "=" in tok)
        missing = [key for key in ("n", "d", "reward", "next_state") if key not in fields]
        if missing:
            raise ValueError(f"{path}: the dataset header lacks {', '.join(missing)}")
        table = np.loadtxt(fh, ndmin=2)
    n, d = int(fields["n"]), int(fields["d"])
    has_r, has_next = bool(int(fields["reward"])), bool(int(fields["next_state"]))
    expected = n + d + int(has_r) + (n if has_next else 0)
    if not table.shape[0]:
        raise ValueError(f"{path}: the file holds no data rows")
    if table.shape[1] != expected:
        raise ValueError(f"dataset has {table.shape[1]} columns, header implies {expected}")
    bad_rows = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{path}: data row {bad_rows[0]} (0-based) has a non-finite value")
    states = table[:, :n]
    actions = table[:, n:n + d]
    col = n + d
    rewards = table[:, col] if has_r else None
    col += int(has_r)
    next_states = table[:, col:col + n] if has_next else None
    meta = {"task": fields.get("task"), "seed": _maybe_int(fields.get("seed")),
            "mode": fields.get("mode"), "noise": float(fields.get("noise", 0.0)),
            "n": n, "d": d}
    return OfflineDataset(states, actions, rewards, next_states, meta)


def _maybe_int(v):
    try:
        return int(v)
    except (TypeError, ValueError):
        return v
