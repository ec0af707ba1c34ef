"""Primal-dual refinement training.

The loop interleaves: (1) TD critic updates with a double-critic pessimistic
target, (2) flow-matching updates of the behavioral velocity field, (3) one
ascent step on the residual transport map against the Lagrangian
Q - lambda * (penalty - epsilon), and (4) a projected dual update. The
default synthetic protocol is a bandit: gamma = 0 with an analytic value
landscape, which freezes steps (1)-(2) after pretraining and isolates the
metric choice (fisher vs isotropic) that the ablations compare.

With an analytic Q (`analytic_q=True`) the flow is frozen after
pretraining, so the pretrained flow, every step's minibatch indices and
Euler base actions, and the evaluation inputs depend only on the seed, the
dataset and the fields in `STREAM_FIELDS`. A `BaseStream` records them once;
every arm of one seed (fisher or isotropic metric, any t_eps, epsilon,
eta, ...) can replay it through `run_refinement(..., base=stream)` and gets
exactly the run it would have got alone. `run_arms` runs the arms of one
seed that way, the one place paired comparisons share a stream. It holds about
steps x batch x (8 + 8 d) bytes (int64 indices and float64 base actions).
Runs with a learned critic train the flow every step and sample their base
actions live; they take no stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import nets
from .errors import NumericError
from .flow import (FlowPolicy, FlowTrainConfig, VelocityField, flow_matching_loss,
                   state_action_input, train_flow)
from .score import batched_scores, fisher_penalty_batch
from .tasks import OfflineDataset, SyntheticTask, make_task
from .transport import TransportMap


@dataclass
class Critic:
    """Double critic with target-network trails (pessimistic min combiner)."""

    state_dim: int
    online: tuple
    target: tuple
    adams: tuple
    tau: float = 0.005
    gamma: float = 0.99

    @classmethod
    def create(cls, state_dim, action_dim, hidden=(64, 64), learning_rate=3e-4,
               tau=0.005, gamma=0.99, activation="gelu", rng=None):
        rng = np.random.default_rng(rng)
        sizes = [state_dim + action_dim, *hidden, 1]
        online = tuple(nets.DenseNet.create(sizes, activation, rng) for _ in range(2))
        target = tuple(net.clone() for net in online)
        adams = tuple(nets.AdamState.for_net(net, learning_rate) for net in online)
        return cls(state_dim, online, target, adams, tau, gamma)

    def net_input(self, s, a):
        return state_action_input(s, np.atleast_2d(a), self.state_dim)

    def target_values(self, s, a):
        x = self.net_input(s, a)
        return np.stack([nets.forward(net, x)[:, 0] for net in self.target])

    def value_and_action_grad(self, s, a):
        """Pessimistic value and its gradient in the action (per sample)."""
        x = self.net_input(s, a)
        caches = [[] for _ in self.online]
        outs = [nets.forward(net, x, cache)[:, 0] for net, cache in zip(self.online, caches)]
        upstream = np.ones((x.shape[0], 1))
        grads = [nets.backward(net, x, upstream, cache).d_input[:, self.state_dim:]
                 for net, cache in zip(self.online, caches)]
        first_wins = (outs[0] <= outs[1])[:, None]
        return np.minimum(*outs), np.where(first_wins, grads[0], grads[1])

    def soft_update(self):
        for online, target in zip(self.online, self.target):
            for po, pt in zip(online.parameters(), target.parameters()):
                pt *= 1.0 - self.tau
                pt += self.tau * po


@dataclass(frozen=True)
class DualState:
    """Projected Lagrange multiplier for the trust-region constraint."""

    lam: float = 10.0
    epsilon: float = 0.1
    eta: float = 1e-3

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def dual_update(dual: DualState, constraint_value: float) -> DualState:
    """lambda <- relu(lambda + eta (constraint - epsilon))."""
    violation = float(constraint_value) - dual.epsilon
    return replace(dual, lam=max(0.0, dual.lam + dual.eta * violation))


def trust_region_penalty(velocity_field, metric="fisher", t_eps=0.8, normalize=True,
                         damping=1e-3):
    """penalty(s, base, delta) -> (values, delta-gradients) of 0.5 delta^T M delta per row.

    "fisher" takes M from the velocity field's perturbed score at the base
    action. "isotropic" is the same form with zero scores and unit damping,
    i.e. the L2 baseline 0.5 |delta|^2; negative-zero scores make its
    gradient exactly delta, signed zeros included.
    """
    if metric == "isotropic":
        return lambda s, base, delta: fisher_penalty_batch(
            np.full_like(delta, -0.0), delta, normalize=False, damping=1.0)
    return lambda s, base, delta: fisher_penalty_batch(
        batched_scores(velocity_field, s, base, t_eps), delta, normalize, damping)


@dataclass(frozen=True)
class ActorStats:
    objective: float
    mean_q: float
    constraint: float


def actor_update(tmap: TransportMap, q_fn, penalty_fn, dual: DualState,
                 states, base, adam: nets.AdamState, q_normalization=True,
                 grad_clip=5.0) -> ActorStats:
    """One ascent step on the residual net against the Lagrangian.

    `q_fn(s, a)` returns Q values and their action gradients (a task's
    q_value or a critic's value_and_action_grad); `penalty_fn(s, base,
    delta)` is a trust_region_penalty. `base` holds one base action per
    state, sampled by the caller from the frozen flow (no gradients reach
    the velocity field); the metric is evaluated at the base action. Q
    values are normalized by their batch mean absolute value when enabled.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    base = np.atleast_2d(np.asarray(base, dtype=np.float64))
    b = states.shape[0]
    if base.shape != (b, tmap.action_dim):
        raise ValueError(f"base actions of shape {base.shape}, want {(b, tmap.action_dim)}")
    saved = []
    delta = tmap.residual(states, base, saved)
    refined = base + delta
    q, dq = q_fn(states, refined)
    q = np.atleast_1d(q)
    scale = 1.0 / max(float(np.mean(np.abs(q))), 1e-8) if q_normalization else 1.0
    pen, pen_grad = penalty_fn(states, base, delta)
    constraint = float(pen.mean())
    objective = scale * float(q.mean()) - dual.lam * (constraint - dual.epsilon)
    # ascent on the objective = descent on its negation
    upstream = -(scale * dq - dual.lam * pen_grad) / b
    tape, _ = tmap.residual_backward(states, base, upstream, saved)
    nets.clip_gradients(tape, grad_clip)
    nets.adam_step(tmap.residual_net, tape, adam)
    return ActorStats(objective, float(q.mean()), constraint)


def critic_update(critic: Critic, tmap: TransportMap, batch, rng, grad_clip=5.0) -> float:
    """TD step: target r + gamma * min of the target critics at the refined next action."""
    states, actions, rewards, next_states = batch
    actions = np.atleast_2d(actions)
    b = actions.shape[0]
    if b == 0:
        raise ValueError("empty batch")
    rewards = np.asarray(rewards, dtype=np.float64)
    if critic.gamma > 0.0 and next_states is not None:
        z = rng.standard_normal((b, tmap.action_dim))
        base = tmap.base_policy.sample(next_states, z)
        next_actions = base + tmap.residual(next_states, base)
        target = rewards + critic.gamma * critic.target_values(next_states, next_actions).min(axis=0)
    else:
        target = rewards
    if not np.isfinite(target).all():
        raise NumericError("non-finite TD target")
    x = critic.net_input(states, actions)
    total = 0.0
    for net, adam in zip(critic.online, critic.adams):
        cache = []
        pred = nets.forward(net, x, cache)[:, 0]
        resid = pred - target
        total += float(np.mean(resid**2))
        tape = nets.backward(net, x, (2.0 / b) * resid[:, None], cache)
        nets.clip_gradients(tape, grad_clip)
        nets.adam_step(net, tape, adam)
    critic.soft_update()
    return total / 2.0


# smallest allowed value of each RefineConfig count and nonnegative training value
_LEAST_VALUES = {"steps": 0, "flow_steps": 0, "log_interval": 0, "batch_size": 1,
                 "eval_samples": 1, "flow_integration_steps": 1,
                 "damping": 0.0, "eta": 0.0, "lambda_init": 0.0}
# RefineConfig values that must be strictly positive
_POSITIVE_VALUES = ("max_displacement", "epsilon", "learning_rate")


@dataclass
class RefineConfig:
    """Everything a refinement run needs; fully determined by its fields."""

    seed: int = 0
    steps: int = 3000
    flow_steps: int = 2000
    batch_size: int = 256
    learning_rate: float = 3e-4
    grad_clip: float = 5.0
    hidden: tuple = (64, 64)
    flow_integration_steps: int = 10
    activation: str = "gelu"
    max_displacement: float = 1.0
    metric: str = "fisher"            # "fisher" | "isotropic"
    t_eps: float = 0.8
    normalize_metric: bool = True
    damping: float = 1e-3
    epsilon: float = 0.1
    eta: float = 1e-3
    lambda_init: float = 10.0
    q_normalization: bool = True
    mode: str = "bandit"              # "bandit" (gamma = 0) | "td"
    analytic_q: bool = True
    gamma: float = 0.99
    tau: float = 0.005
    log_interval: int = 100
    eval_samples: int = 2000

    def __post_init__(self):
        if self.metric not in ("fisher", "isotropic"):
            raise ValueError(f"unknown metric kind {self.metric!r}")
        if self.mode not in ("bandit", "td"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, least in _LEAST_VALUES.items():
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        for name in _POSITIVE_VALUES:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        self.hidden = tuple(self.hidden)


@dataclass
class RunResult:
    transport_map: TransportMap
    policy: FlowPolicy
    critic: Critic | None
    dual: DualState
    log: list
    final: dict


def save_checkpoint(result: RunResult, task_name, path):
    """Write the run's nets, sampler steps, displacement cap and dual state as one JSON object.

    Keys in order: format_version, task, flow_net, flow_integration_steps,
    residual_net, max_displacement, critic_nets (the online critics, or null
    without a critic) and dual (lam, epsilon, eta). The frame is written by
    hand and each net streams its parameters (`DenseNet.write_json`), so the
    bytes are those of one `json.dump` of that dict while only a slice of a
    parameter array is held as text at a time.
    """
    dual = {"lam": result.dual.lam, "epsilon": result.dual.epsilon, "eta": result.dual.eta}
    with open(path, "w") as fh:
        fh.write(f'{{"format_version": {nets.CHECKPOINT_FORMAT_VERSION}, '
                 f'"task": {json.dumps(task_name)}, "flow_net": ')
        result.policy.field.net.write_json(fh)
        fh.write(f', "flow_integration_steps": {json.dumps(result.policy.steps)}, '
                 f'"residual_net": ')
        result.transport_map.residual_net.write_json(fh)
        fh.write(f', "max_displacement": {json.dumps(result.transport_map.max_displacement)}, '
                 f'"critic_nets": ')
        if result.critic is None:
            fh.write("null")
        else:
            fh.write("[")
            for k, net in enumerate(result.critic.online):
                if k:
                    fh.write(", ")
                net.write_json(fh)
            fh.write("]")
        fh.write(f', "dual": {json.dumps(dual)}}}')


def load_checkpoint(path):
    """(task, transport map) of a checkpoint written by save_checkpoint."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != nets.CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')!r}")
    task = make_task(payload["task"])
    flow_net = nets.DenseNet.from_dict(payload["flow_net"])
    field = VelocityField(flow_net, task.state_dim, task.action_dim)
    policy = FlowPolicy(field, steps=payload["flow_integration_steps"])
    tmap = TransportMap(nets.DenseNet.from_dict(payload["residual_net"]), policy,
                        payload["max_displacement"])
    return task, tmap


def evaluate_policy(tmap: TransportMap, task: SyntheticTask, states, base):
    """Ground-truth mean landscape value of refined and base samples at (states, base)."""
    refined = base + tmap.residual(states, base)
    v_refined, _ = task.q_value(states, refined)
    v_base, _ = task.q_value(states, base)
    return float(np.mean(v_refined)), float(np.mean(v_base))


# RefineConfig fields that, with the seed's dataset and task, fix a run's base stream
STREAM_FIELDS = ("seed", "flow_steps", "steps", "batch_size", "learning_rate", "grad_clip",
                 "hidden", "activation", "flow_integration_steps", "eval_samples")


def _run_rngs(seed):
    """(flow init, flow training, residual init, critic init, loop, evaluation) generators."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6))


def _check_dims(dataset: OfflineDataset, task: SyntheticTask):
    if dataset.action_dim != task.action_dim or dataset.state_dim != task.state_dim:
        raise ValueError("dataset and task dimensions disagree")


def _pretrained_policy(config: RefineConfig, dataset: OfflineDataset, task: SyntheticTask,
                       rng_init, rng_flow):
    """Behavioral flow policy fitted to the dataset, and its loss curve."""
    policy = FlowPolicy(
        VelocityField.create(task.state_dim, task.action_dim, config.hidden, config.activation,
                             rng_init),
        steps=config.flow_integration_steps)
    curve = np.zeros(0)
    if config.flow_steps > 0:
        curve = train_flow(
            policy, dataset.states, dataset.actions,
            FlowTrainConfig(config.flow_steps, config.batch_size,
                            config.learning_rate, config.grad_clip), rng_flow)
    return policy, curve


def _evaluation_inputs(policy: FlowPolicy, task: SyntheticTask, count, rng):
    """Evaluation states and the policy's base actions at them."""
    states = task.sample_states(rng, count)
    z = rng.standard_normal((count, task.action_dim))
    return states, policy.sample(states, z)


def _source_of(dataset: OfflineDataset, task: SyntheticTask):
    """What a base stream takes from its dataset and task: the task's name and shape, the data."""
    h = hashlib.blake2b(digest_size=16)
    for part in (dataset.states, dataset.actions):
        part = np.ascontiguousarray(part, dtype=np.float64)
        h.update(repr(part.shape).encode())
        h.update(part.tobytes())
    return (task.name, task.state_dim, task.action_dim, h.hexdigest())


@dataclass(frozen=True)
class BaseStream:
    """Frozen-flow inputs of every analytic-Q run of one seed, dataset and task.

    Holds the pretrained flow policy and its loss curve, each step's
    minibatch indices (steps, B) and Euler base actions (steps, B, d),
    drawn in the loop generator's order (indices, then noise), and the
    evaluation states and base actions. Every run that replays it shares
    the policy, which no analytic-Q run trains.
    """

    key: tuple
    source: tuple
    policy: FlowPolicy
    flow_curve: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    actions: np.ndarray = field(repr=False)
    eval_states: np.ndarray = field(repr=False)
    eval_actions: np.ndarray = field(repr=False)

    @classmethod
    def record(cls, config: RefineConfig, dataset: OfflineDataset,
               task: SyntheticTask) -> "BaseStream":
        """Pretrain the flow and draw every base action that `config`'s run would draw."""
        _check_dims(dataset, task)
        rng_init, rng_flow, _, _, rng_loop, rng_eval = _run_rngs(config.seed)
        policy, curve = _pretrained_policy(config, dataset, task, rng_init, rng_flow)
        size, d = len(dataset), task.action_dim
        b = min(config.batch_size, size)
        indices = np.empty((config.steps, b), dtype=np.int64)
        actions = np.empty((config.steps, b, d))
        for step in range(config.steps):
            try:
                indices[step] = rng_loop.integers(0, size, size=b)
                z = rng_loop.standard_normal((b, d))
                actions[step] = policy.sample(dataset.states[indices[step]], z)
            except NumericError as exc:
                raise NumericError(f"training step {step}: {exc}") from exc
        eval_states, eval_actions = _evaluation_inputs(policy, task, config.eval_samples, rng_eval)
        for shared in (curve, indices, actions, eval_states, eval_actions):
            shared.flags.writeable = False  # every arm reads them; none may change them
        return cls(tuple(getattr(config, name) for name in STREAM_FIELDS),
                   _source_of(dataset, task), policy, curve, indices, actions,
                   eval_states, eval_actions)

    def check(self, config: RefineConfig, dataset: OfflineDataset, task: SyntheticTask):
        """Raise ValueError unless a run of `config` on (dataset, task) would draw this stream."""
        if not config.analytic_q:
            raise ValueError("a base stream replays a frozen flow; learned-critic runs sample live")
        changed = [name for name, value in zip(STREAM_FIELDS, self.key)
                   if getattr(config, name) != value]
        if changed:
            raise ValueError(f"base stream was recorded with other {', '.join(changed)}")
        if _source_of(dataset, task) != self.source:
            raise ValueError("base stream was recorded on another dataset or task")


def run_refinement(config: RefineConfig, dataset: OfflineDataset, task: SyntheticTask,
                   base: BaseStream | None = None) -> RunResult:
    """Full training pipeline; deterministic given config.seed.

    Analytic-Q runs replay `base` (recorded here when not given, and checked
    against config, dataset and task before any step when given); learned-
    critic runs pretrain and sample live and take no stream. Any numeric
    failure aborts with the offending step index attached.
    """
    _check_dims(dataset, task)
    if base is not None:
        base.check(config, dataset, task)
    elif config.analytic_q:
        base = BaseStream.record(config, dataset, task)
    rng_flow_init, rng_flow, rng_res, rng_critic, rng_loop, rng_eval = _run_rngs(config.seed)

    n, d = task.state_dim, task.action_dim
    gamma = 0.0 if config.mode == "bandit" else config.gamma
    if base is None:
        policy, flow_curve = _pretrained_policy(config, dataset, task, rng_flow_init, rng_flow)
    else:
        policy, flow_curve = base.policy, base.flow_curve
    tmap = TransportMap.create(n, d, policy, config.hidden, config.activation,
                               config.max_displacement, rng_res)

    critic = None
    if config.analytic_q:
        q_fn = task.q_value
    else:
        critic = Critic.create(n, d, config.hidden, config.learning_rate,
                               config.tau, gamma, config.activation, rng_critic)
        q_fn = critic.value_and_action_grad
    penalty_fn = trust_region_penalty(policy.field, config.metric, config.t_eps,
                                      config.normalize_metric, config.damping)
    dual = DualState(config.lambda_init, config.epsilon, config.eta)
    actor_adam = nets.AdamState.for_net(tmap.residual_net, config.learning_rate)
    flow_adam = nets.AdamState.for_net(policy.field.net, config.learning_rate)

    rows = []
    size = len(dataset)
    flow_loss = float(flow_curve[-1]) if flow_curve.size else float("nan")
    td_loss = 0.0
    stats = ActorStats(0.0, 0.0, 0.0)
    for step in range(config.steps):
        try:
            if base is not None:
                states, base_actions = dataset.states[base.indices[step]], base.actions[step]
            else:
                idx = rng_loop.integers(0, size, size=min(config.batch_size, size))
                states = dataset.states[idx]
                batch = (states, dataset.actions[idx],
                         dataset.rewards[idx] if dataset.rewards is not None else np.zeros(len(idx)),
                         dataset.next_states[idx] if dataset.next_states is not None else None)
                td_loss = critic_update(critic, tmap, batch, rng_loop, config.grad_clip)
                loss, tape = flow_matching_loss(policy.field, states, dataset.actions[idx], rng_loop)
                nets.clip_gradients(tape, config.grad_clip)
                nets.adam_step(policy.field.net, tape, flow_adam)
                flow_loss = loss
                base_actions = policy.sample(states, rng_loop.standard_normal((len(idx), d)))
            stats = actor_update(tmap, q_fn, penalty_fn, dual, states, base_actions,
                                 actor_adam, config.q_normalization, config.grad_clip)
            dual = dual_update(dual, stats.constraint)
        except NumericError as exc:
            raise NumericError(f"training step {step}: {exc}") from exc
        if config.log_interval and (step % config.log_interval == 0 or step == config.steps - 1):
            rows.append({"step": step, "flow_loss": float(flow_loss), "td_loss": float(td_loss),
                         "mean_q": stats.mean_q, "constraint": stats.constraint,
                         "lambda": dual.lam})

    if base is not None:
        eval_states, eval_actions = base.eval_states, base.eval_actions
    else:
        eval_states, eval_actions = _evaluation_inputs(policy, task, config.eval_samples, rng_eval)
    mean_refined, mean_base = evaluate_policy(tmap, task, eval_states, eval_actions)
    final = {
        "mean_refined_value": mean_refined,
        "mean_base_value": mean_base,
        "final_constraint": stats.constraint,
        "final_lambda": dual.lam,
        "flow_loss": float(flow_loss),
        "td_loss": float(td_loss),
    }
    return RunResult(tmap, policy, critic, dual, rows, final)


def run_arms(configs, dataset: OfflineDataset, task: SyntheticTask):
    """Yield the run of each config in order, all replaying one base stream when analytic-Q.

    The stream is recorded from the first config when it sets analytic_q
    (every later one must fit it, see `BaseStream.check`), else there is none.
    """
    analytic = configs and configs[0].analytic_q
    stream = BaseStream.record(configs[0], dataset, task) if analytic else None
    for config in configs:
        yield run_refinement(config, dataset, task, base=stream)
