"""Conditional flow-matching behavioral policy.

The velocity net takes (state, interpolant, time) concatenated and returns a
velocity in action space. Sampling is fixed-grid explicit Euler from noise,
matching the training-time linear interpolation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import nets
from .errors import NumericError


def state_action_input(s, a, state_dim, t=None) -> np.ndarray:
    """Net input [s, a] (then a time column t, when given) for a batch of actions (B, d).

    One action is a batch of one, and `s` is None (a zero state) or a batch
    (B, n) with one row per action, one state being a batch of one; any other
    shape is a ValueError. Without state columns or a time, `a` itself is
    returned.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"actions must be a (B, d) batch, got shape {a.shape}")
    if s is not None:
        s = nets.as_batch(s, state_dim, "states")
        if s.shape[0] != a.shape[0]:
            raise ValueError(f"{s.shape[0]} state rows for {a.shape[0]} actions")
    parts = [a]
    if state_dim:
        parts.insert(0, np.zeros((a.shape[0], state_dim)) if s is None else s)
    if t is not None:
        parts.append(np.broadcast_to(np.asarray(t, dtype=np.float64), (a.shape[0], 1)))
    return np.concatenate(parts, axis=-1) if len(parts) > 1 else a


@dataclass
class VelocityField:
    """Trainable velocity net v(t, s, a) with input size n + d + 1."""

    net: nets.DenseNet
    state_dim: int
    action_dim: int

    @classmethod
    def create(cls, state_dim, action_dim, hidden=(64, 64), rng=None):
        sizes = [state_dim + action_dim + 1, *hidden, action_dim]
        return cls(nets.DenseNet.create(sizes, rng), state_dim, action_dim)

    def __post_init__(self):
        n, d = self.state_dim, self.action_dim
        if [self.net.in_size, self.net.out_size] != [n + d + 1, d]:
            raise ValueError(f"a velocity net maps {n + d + 1} -> {d}, got {self.net.layer_sizes}")

    def __call__(self, t, s, a):
        return nets.forward(self.net, state_action_input(s, a, self.state_dim, t))


@dataclass
class FlowPolicy:
    """Euler sampler over a velocity field; `steps` is the integration grid size."""

    field: VelocityField
    steps: int = 10

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, Integral) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")


def sample_action(policy: FlowPolicy, s, z) -> np.ndarray:
    """Integrate dz/dt = v(t, s, z) with M explicit Euler steps from t = 0.

    Deterministic given (parameters, s, z). `z` is a (B, d) batch of noise,
    one sample being a batch of one, and the actions come back as (B, d).
    """
    z = np.array(z, dtype=np.float64)
    m = policy.steps
    for k in range(m):
        v = policy.field(k / m, s, z)
        z = z + v / m
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite action trajectory at Euler step {k}")
    return z


def flow_matching_loss(field: VelocityField, states, actions, rng):
    """Sampled conditional flow-matching loss and its parameter gradients.

    Per batch row draws t ~ U[0,1] and x0 ~ N(0, I_d), regresses
    v(t, s, x_t) onto (x1 - x0) at x_t = (1-t) x0 + t x1, and returns the
    batch-mean squared error together with a GradientTape for the net.
    """
    actions = nets.as_batch(actions, field.action_dim, "actions")
    if actions.shape[0] == 0:
        raise ValueError("empty batch")
    if not np.isfinite(actions).all():
        raise ValueError("actions must be finite")
    b, d = actions.shape
    t = rng.uniform(0.0, 1.0, size=(b, 1))
    x0 = rng.standard_normal((b, d))
    xt = (1.0 - t) * x0 + t * actions
    target = actions - x0
    inp = state_action_input(states, xt, field.state_dim, t)
    cache = []
    pred = nets.forward(field.net, inp, cache)
    resid = pred - target
    loss = float(np.sum(resid * resid) / b)
    tape = nets.backward(field.net, (2.0 / b) * resid, cache)
    return loss, tape


# the sampled regression target has large irreducible variance, so raw SGD
# iterates bounce around the optimum; a weight average fixes that
EMA_DECAY = 0.999


@dataclass
class FlowTrainConfig:
    steps: int = 2000
    batch_size: int = 256
    learning_rate: float = 3e-4
    grad_clip: float = 5.0

    def __post_init__(self):
        if not self.steps >= 0:
            raise ValueError(f"steps must be >= 0, got {self.steps!r}")
        if not self.batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        for name in ("learning_rate", "grad_clip"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")


def train_flow(policy: FlowPolicy, states, actions, config: FlowTrainConfig, rng) -> np.ndarray:
    """Train the policy's velocity field in place; returns the loss curve.

    Keeps an exponential moving average of the weights and installs it at
    the end. Raises NumericError if the loss goes non-finite; the loss curve
    of a healthy run trends down (median of the last tenth below the first
    tenth).
    """
    actions = nets.as_batch(actions, policy.field.action_dim, "actions")
    n = actions.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    n_state = policy.field.state_dim
    # one (N, n) state row per action, so minibatches can index states and actions alike
    states = state_action_input(states, actions, n_state)[:, :n_state]
    net = policy.field.net
    adam = nets.AdamState.for_net(net, config.learning_rate)
    shadow = [p.copy() for p in net.parameters()]
    curve = np.empty(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        loss, tape = flow_matching_loss(policy.field, states[idx], actions[idx], rng)
        if not np.isfinite(loss):
            raise NumericError(f"flow loss diverged at step {step}")
        nets.clip_gradients(tape, config.grad_clip)
        nets.adam_step(net, tape, adam)
        # warm up the average fast, then settle at EMA_DECAY
        decay = min(EMA_DECAY, (step + 1.0) / (step + 10.0))
        for avg, p in zip(shadow, net.parameters()):
            avg *= decay
            avg += (1.0 - decay) * p
        curve[step] = loss
    for p, avg in zip(net.parameters(), shadow):
        p[:] = avg
    return curve
