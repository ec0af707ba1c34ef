"""Primal-dual refinement training.

The loop interleaves: (1) TD critic updates with a double-critic pessimistic
target, (2) flow-matching updates of the behavioral velocity field, (3) one
ascent step on the residual transport map against the Lagrangian
Q - lambda * (penalty - epsilon), and (4) a projected dual update. The
default synthetic protocol is a bandit: gamma = 0 with an analytic value
landscape, which freezes steps (1)-(2) after pretraining and isolates the
metric choice (fisher vs isotropic) that the ablations compare.

Each actor step gets its step's fisher scores (`batched_scores` at the base
actions), or None for the isotropic arm, and `actor_update` builds the
penalty 0.5 delta^T M delta from them: one penalty path for both metrics.

With an analytic Q (`analytic_q=True`) the flow is frozen after
pretraining, so the pretrained flow, every step's minibatch indices and
Euler base actions, and the evaluation inputs depend only on the seed, the
dataset and the fields in `STREAM_FIELDS`. A `BaseStream` records them once;
every arm of one seed (fisher or isotropic metric, any t_eps, epsilon,
eta, ...) can replay it through `run_refinement(..., base=stream)` and gets
exactly the run it would have got alone. `run_arms` runs the arms of one
seed that way, the one place paired comparisons share a stream. It holds about
steps x batch x (8 + 8 d) bytes (int64 indices and float64 base actions).
A fisher arm that replays a stream computes its trust-region scores for
every step before its first step, 8 x steps x batch x d bytes that it frees
when it returns. Recording and that score pass run their independent steps
on up to `MAX_STEP_WORKERS` threads, one per usable core, each step with the
same calls and shapes as a serial loop, so the bits are the same for any
core count. Runs with a learned critic (TD runs) train the flow every step
and sample their base actions live; they take no stream, and a fisher TD
run scores each step's base actions just before its actor step.

A TD step with a next-action sample (gamma > 0) overlaps its two Euler
integrations within the same `MAX_STEP_WORKERS` budget: a worker thread
computes the critic target (`td_target`, forward passes only) through a
frozen copy of the flow as it was before the step, while the calling
thread updates the flow and samples and scores the step's base actions
(`_flow_step`). After both end, the online critics fit the target
(`critic_update`), then the actor and dual steps run. Every call keeps its
inputs and shapes, so the bits are the same on any core count. With one
usable core or gamma = 0 the step runs serially on the caller, target
first.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import flow, nets
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
               tau=0.005, gamma=0.99, rng=None):
        rng = np.random.default_rng(rng)
        sizes = [state_dim + action_dim, *hidden, 1]
        online = tuple(nets.DenseNet.create(sizes, rng) for _ in range(2))
        target = tuple(net.clone() for net in online)
        adams = tuple(nets.AdamState.for_net(net, learning_rate) for net in online)
        return cls(state_dim, online, target, adams, tau, gamma)

    def target_values(self, s, a):
        x = state_action_input(s, a, self.state_dim)
        return np.stack([nets.forward(net, x)[:, 0] for net in self.target])

    def value_and_action_grad(self, s, a):
        """Pessimistic value and its gradient in the action (per sample)."""
        x = state_action_input(s, a, self.state_dim)
        caches = [[] for _ in self.online]
        outs = [nets.forward(net, x, cache)[:, 0] for net, cache in zip(self.online, caches)]
        upstream = np.ones((x.shape[0], 1))
        grads = [nets.backward(net, upstream, cache).d_input[:, self.state_dim:]
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
        # each test is false for nan
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")


def dual_update(dual: DualState, constraint_value: float) -> DualState:
    """lambda <- max(0, lambda + eta (constraint - epsilon)).

    A nan or inf constraint is a NumericError, so the run fails at its step.
    """
    violation = float(constraint_value) - dual.epsilon
    if not np.isfinite(violation):
        raise NumericError(f"non-finite trust-region constraint {float(constraint_value)}")
    return replace(dual, lam=max(0.0, dual.lam + dual.eta * violation))


@dataclass(frozen=True)
class ActorStats:
    mean_q: float
    constraint: float


def actor_update(tmap: TransportMap, q_fn, scores, dual: DualState, states, base,
                 adam: nets.AdamState, normalize=True, damping=1e-3, grad_clip=5.0) -> ActorStats:
    """One ascent step on the residual net against the Lagrangian.

    `q_fn(s, a)` returns Q values and their action gradients (a task's
    q_value or a critic's value_and_action_grad). `base` holds one base
    action per state, sampled by the caller from the frozen flow (no
    gradients reach the velocity field). The trust-region penalty is
    0.5 delta^T M delta per row: with fisher `scores` (the velocity field's
    perturbed scores at the base actions, `batched_scores`) M is their
    `fisher_penalty_batch` metric under `normalize` and `damping`; with
    `scores=None` (the isotropic arm) it is the L2 baseline 0.5 |delta|^2,
    from negative-zero scores at unit damping without normalization, so its
    gradient is exactly delta, signed zeros included. Q values are always
    scaled by 1 / max(batch mean |Q|, 1e-8), as in TD3+BC.
    """
    states = np.asarray(states, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    b = states.shape[0]
    if base.shape != (b, tmap.action_dim):
        raise ValueError(f"base actions of shape {base.shape}, want {(b, tmap.action_dim)}")
    saved = []
    delta = tmap.residual(states, base, saved)
    refined = base + delta
    q, dq = q_fn(states, refined)
    scale = 1.0 / max(float(np.mean(np.abs(q))), 1e-8)
    if scores is None:
        scores, normalize, damping = np.full_like(delta, -0.0), False, 1.0
    pen, pen_grad = fisher_penalty_batch(scores, delta, normalize, damping)
    constraint = float(pen.mean())
    # ascent on the Lagrangian = descent on its negation
    upstream = -(scale * dq - dual.lam * pen_grad) / b
    tape, _ = tmap.residual_backward(upstream, saved)
    nets.clip_gradients(tape, grad_clip)
    nets.adam_step(tmap.residual_net, tape, adam)
    return ActorStats(float(q.mean()), constraint)


def td_target(critic: Critic, tmap: TransportMap, rewards, next_states=None, z=None):
    """TD target: r + gamma * min of the target critics at the refined next action.

    The next action is `tmap`'s refined Euler sample at `next_states` from
    noise `z`: base + residual(base), base being `flow.sample_action` of
    the base policy. Without `z` (gamma = 0) the target is the rewards.
    Forward passes only; a non-finite target is a NumericError.
    """
    target = np.asarray(rewards, dtype=np.float64)
    if z is not None:
        base = flow.sample_action(tmap.base_policy, next_states, z)
        next_actions = tmap.action_map(next_states)(base)
        target = target + critic.gamma * critic.target_values(next_states, next_actions).min(axis=0)
    if not np.isfinite(target).all():
        raise NumericError("non-finite TD target")
    return target


def critic_update(critic: Critic, states, actions, target, grad_clip=5.0) -> float:
    """Fit both online critics one step to `target`, then soft-update the target critics.

    Returns the mean of the two critics' squared TD errors before the step.
    """
    b = np.shape(actions)[0]
    if b == 0:
        raise ValueError("empty batch")
    x = state_action_input(states, actions, critic.state_dim)
    total = 0.0
    for net, adam in zip(critic.online, critic.adams):
        cache = []
        pred = nets.forward(net, x, cache)[:, 0]
        resid = pred - target
        total += float(np.mean(resid**2))
        tape = nets.backward(net, (2.0 / b) * resid[:, None], cache)
        nets.clip_gradients(tape, grad_clip)
        nets.adam_step(net, tape, adam)
    critic.soft_update()
    return total / 2.0


def _flow_step(policy: FlowPolicy, adam: nets.AdamState, states, actions, rng, grad_clip,
               t_eps, fisher):
    """One flow-matching update, then the updated flow's base actions at `states`.

    Returns (flow loss, base actions, their fisher scores at t_eps, or None
    unless `fisher`). Draws the loss's t and x0, then the Euler noise, from `rng`.
    """
    loss, tape = flow_matching_loss(policy.field, states, actions, rng)
    nets.clip_gradients(tape, grad_clip)
    nets.adam_step(policy.field.net, tape, adam)
    base = flow.sample_action(policy, states, rng.standard_normal(actions.shape))
    return loss, base, batched_scores(policy.field, states, base, t_eps) if fisher else None


def _frozen_map(tmap: TransportMap) -> TransportMap:
    """`tmap` over a copy of its flow net: the map as it stands, while the live flow trains."""
    policy = tmap.base_policy
    field = replace(policy.field, net=policy.field.net.clone())
    return replace(tmap, base_policy=replace(policy, field=field))


# smallest allowed value of each RefineConfig count and nonnegative training value
_LEAST_VALUES = {"steps": 0, "flow_steps": 0, "log_interval": 0, "batch_size": 1,
                 "eval_samples": 1, "flow_integration_steps": 1,
                 "damping": 0.0, "eta": 0.0, "lambda_init": 0.0, "gamma": 0.0}
# RefineConfig values that must be strictly positive
_POSITIVE_VALUES = ("max_displacement", "epsilon", "learning_rate", "grad_clip", "tau")
# largest allowed value of each RefineConfig rate
_MOST_VALUES = {"gamma": 1.0, "tau": 1.0}


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
    max_displacement: float = 1.0
    metric: str = "fisher"            # "fisher" | "isotropic"
    t_eps: float = 0.8
    normalize_metric: bool = True
    damping: float = 1e-3
    epsilon: float = 0.1
    eta: float = 1e-3
    lambda_init: float = 10.0
    mode: str = "bandit"              # "bandit" (gamma = 0) | "td"
    analytic_q: bool = True
    gamma: float = 0.99
    tau: float = 0.005
    log_interval: int = 100
    eval_samples: int = 2000

    def __post_init__(self):
        """The one owner of every training-setting rule: a bad setting is a ValueError here."""
        if self.metric not in ("fisher", "isotropic"):
            raise ValueError(f"unknown metric kind {self.metric!r}")
        if self.mode not in ("bandit", "td"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for f in fields(self):
            value, flag = getattr(self, f.name), isinstance(f.default, bool)
            if isinstance(value, bool) != flag:  # a flag takes only a bool, no other field one
                raise ValueError(f"{f.name} must {'' if flag else 'not '}be a bool, got {value!r}")
            if isinstance(f.default, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name, least in _LEAST_VALUES.items():
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        for name in _POSITIVE_VALUES:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name, most in _MOST_VALUES.items():
            if not getattr(self, name) <= most:
                raise ValueError(f"{name} must be <= {most}, got {getattr(self, name)!r}")
        # the perturbed time the fisher metric scores at
        if self.metric == "fisher" and not 0.0 < self.t_eps < 1.0:
            raise ValueError(f"t_eps must lie strictly inside (0, 1), got {self.t_eps!r}")
        if self.mode == "td" and self.analytic_q:
            raise ValueError("mode 'td' trains a learned critic: set analytic_q to false")
        self.hidden = tuple(self.hidden)
        if not all(width >= 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden!r}")


@dataclass
class RunResult:
    transport_map: TransportMap
    critic: Critic | None
    dual: DualState
    log: list
    final: dict


def save_checkpoint(result: RunResult, task_name, path):
    """Write the run's nets, sampler steps, displacement cap and dual state as one JSON object.

    Keys in order: format_version, task, flow_net, flow_integration_steps,
    residual_net, max_displacement, critic_nets (the online critics, or null
    without a critic) and dual (lam, epsilon, eta): one dict, each net's
    `to_dict` holding its parameter arrays, that `nets.write_json` streams.
    """
    tmap, critic, dual = result.transport_map, result.critic, result.dual
    with open(path, "w") as fh:
        nets.write_json(fh, {
            "format_version": nets.CHECKPOINT_FORMAT_VERSION, "task": task_name,
            "flow_net": tmap.base_policy.field.net.to_dict(),
            "flow_integration_steps": tmap.base_policy.steps,
            "residual_net": tmap.residual_net.to_dict(), "max_displacement": tmap.max_displacement,
            "critic_nets": None if critic is None else [net.to_dict() for net in critic.online],
            "dual": {"lam": dual.lam, "epsilon": dual.epsilon, "eta": dual.eta}})


def load_checkpoint(path):
    """(task, transport map) of a checkpoint written by save_checkpoint.

    A checkpoint that is not a JSON object, has another format version or
    lacks a key read here is a ValueError.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a checkpoint is a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != nets.CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')!r}")
    missing = [key for key in ("task", "flow_net", "flow_integration_steps", "residual_net",
                               "max_displacement") if key not in payload]
    if missing:
        raise ValueError(f"{path}: the checkpoint lacks {', '.join(missing)}")
    task = make_task(payload["task"])
    flow_net = nets.DenseNet.from_dict(payload["flow_net"])
    field = VelocityField(flow_net, task.state_dim, task.action_dim)
    policy = FlowPolicy(field, steps=payload["flow_integration_steps"])
    tmap = TransportMap(nets.DenseNet.from_dict(payload["residual_net"]), policy,
                        payload["max_displacement"])
    return task, tmap


def evaluate_policy(tmap: TransportMap, task: SyntheticTask, states, base):
    """Ground-truth mean landscape value of refined and base samples at (states, base)."""
    v_refined, _ = task.q_value(states, tmap.action_map(states)(base))
    v_base, _ = task.q_value(states, base)
    return float(np.mean(v_refined)), float(np.mean(v_base))


# RefineConfig fields that, with the seed's dataset and task, fix a run's base stream
STREAM_FIELDS = ("seed", "flow_steps", "steps", "batch_size", "learning_rate", "grad_clip",
                 "hidden", "flow_integration_steps", "eval_samples")


def _run_rngs(seed):
    """(flow init, flow training, residual init, critic init, loop, evaluation) generators."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6))


def check_data(config: RefineConfig, dataset: OfflineDataset, task: SyntheticTask):
    """Raise ValueError unless a run of `config` can train on (dataset, task).

    The dimensions must agree. A learned critic (`analytic_q=False`) fits
    the data's rewards, and in TD mode with gamma > 0 bootstraps from its
    next states, so the data must hold them.
    """
    if dataset.action_dim != task.action_dim or dataset.state_dim != task.state_dim:
        raise ValueError("dataset and task dimensions disagree")
    if not config.analytic_q and dataset.rewards is None:
        raise ValueError("a learned critic (analytic_q false) fits rewards; the data has none")
    if config.mode == "td" and config.gamma > 0.0 and dataset.next_states is None:
        raise ValueError(f"mode 'td' with gamma {config.gamma!r} bootstraps from next states; "
                         "the data has none (chain data has them)")


def _pretrained_policy(config: RefineConfig, dataset: OfflineDataset, task: SyntheticTask,
                       rng_init, rng_flow):
    """Behavioral flow policy fitted to the dataset, and its last loss (nan without training)."""
    policy = FlowPolicy(
        VelocityField.create(task.state_dim, task.action_dim, config.hidden, rng_init),
        steps=config.flow_integration_steps)
    if config.flow_steps == 0:
        return policy, float("nan")
    curve = train_flow(
        policy, dataset.states, dataset.actions,
        FlowTrainConfig(config.flow_steps, config.batch_size,
                        config.learning_rate, config.grad_clip), rng_flow)
    return policy, float(curve[-1])


def evaluation_inputs(policy: FlowPolicy, task: SyntheticTask, count, rng):
    """Evaluation states and the policy's base actions at them: states, then noise, from `rng`."""
    states = task.sample_states(rng, count)
    z = rng.standard_normal((count, task.action_dim))
    return states, flow.sample_action(policy, states, z)


def _source_of(dataset: OfflineDataset, task: SyntheticTask):
    """What a base stream takes from its dataset and task: the task's name and shape, the data."""
    h = hashlib.blake2b(digest_size=16)
    for part in (dataset.states, dataset.actions):
        part = np.ascontiguousarray(part, dtype=np.float64)
        h.update(repr(part.shape).encode())
        h.update(part.tobytes())
    return (task.name, task.state_dim, task.action_dim, h.hexdigest())


# Most threads `_thread_count` allows: the largest count whose speed-up has been
# measured (2 cores, BLAS on 1 thread); more cores leave the rest idle
MAX_STEP_WORKERS = 2


def _usable_cores():
    """Cores this process may run on (every core where the platform cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(parts):
    """Threads for `parts` independent parts: one per usable core, at most MAX_STEP_WORKERS."""
    return max(1, min(_usable_cores(), MAX_STEP_WORKERS, parts))


def _run_parts(parts, threads):
    """Call every part (a no-argument callable) on `threads` threads; their results in order.

    With one thread the parts run in order on the caller and the first
    failure propagates at once. With more, the last part runs on the caller
    and the others on `threads - 1` worker threads. Once every part has
    ended and every worker is gone, the error of the first failing part in
    list order is raised, the one a serial run would have raised.

    The caller runs a part, rather than idling while the pool runs them all
    (`ThreadPoolExecutor.map`), to keep memory flat: running every part on
    pool threads raised td-wide's peak RSS from 87.3 to 93.7 MB (+7.4%) in
    4 of 4 paired runs on a 2-core host, while bandit-ablation's held. The
    likely cause, not verified, is that the flow half's width-256 buffers
    then land in a worker thread's malloc arena.
    """
    if threads <= 1:
        return [part() for part in parts]
    with ThreadPoolExecutor(threads - 1) as pool:
        others = [pool.submit(part) for part in parts[:-1]]
        try:
            last, failure = parts[-1](), None
        except Exception as exc:  # raised after the parts before it, whose errors win
            failure = exc
    results = [done.result() for done in others]
    if failure is not None:
        raise failure
    return results + [last]


def _each_step(steps, step_fn):
    """Call step_fn(k) for every k < steps in contiguous blocks, one thread per usable core.

    The steps must be independent: each reads shared inputs and writes only
    its own step's outputs. Within a block the steps run in order, and a
    block stops at its first failure. The first failing block's error is
    raised (`_run_parts`), a NumericError as "training step k: ...", so a
    failure names the lowest failing k, as a serial loop would.
    """
    def block(lo, hi):
        for k in range(lo, hi):
            try:
                step_fn(k)
            except NumericError as exc:
                raise NumericError(f"training step {k}: {exc}") from exc

    threads = _thread_count(steps)
    bounds = [steps * i // threads for i in range(threads + 1)]
    _run_parts([partial(block, lo, hi) for lo, hi in zip(bounds, bounds[1:])], threads)


@dataclass(frozen=True)
class BaseStream:
    """Frozen-flow inputs of every analytic-Q run of one seed, dataset and task.

    Holds the pretrained flow policy and its last loss, each step's
    minibatch indices (steps, B) and Euler base actions (steps, B, d), drawn
    in the loop generator's order (indices, then noise), and the evaluation
    states and base actions. Every run that replays it shares the policy,
    which no analytic-Q run trains. The Euler steps run on one thread per
    usable core (`_each_step`); each step makes the call a serial loop would,
    with the same shapes, so the bits do not depend on the number of cores.
    Learned-critic (TD) runs take no stream: they train the flow and sample
    live.
    """

    key: tuple
    source: tuple
    policy: FlowPolicy
    flow_loss: float
    indices: np.ndarray = field(repr=False)
    actions: np.ndarray = field(repr=False)
    eval_states: np.ndarray = field(repr=False)
    eval_actions: np.ndarray = field(repr=False)

    @classmethod
    def record(cls, config: RefineConfig, dataset: OfflineDataset,
               task: SyntheticTask) -> "BaseStream":
        """Pretrain the flow and draw every base action that `config`'s run would draw.

        Every step's indices and noise are drawn first, in loop order, the
        noise straight into the action array; then each step's noise is
        replaced by its Euler sample.
        """
        check_data(config, dataset, task)
        rng_init, rng_flow, _, _, rng_loop, rng_eval = _run_rngs(config.seed)
        policy, flow_loss = _pretrained_policy(config, dataset, task, rng_init, rng_flow)
        size, d = len(dataset), task.action_dim
        b = min(config.batch_size, size)
        indices = np.empty((config.steps, b), dtype=np.int64)
        actions = np.empty((config.steps, b, d))
        for step in range(config.steps):
            indices[step] = rng_loop.integers(0, size, size=b)
            rng_loop.standard_normal(out=actions[step])

        def euler(step):
            actions[step] = flow.sample_action(policy, dataset.states[indices[step]], actions[step])

        _each_step(config.steps, euler)
        eval_states, eval_actions = evaluation_inputs(policy, task, config.eval_samples, rng_eval)
        for shared in (indices, actions, eval_states, eval_actions):
            shared.flags.writeable = False  # every arm reads them; none may change them
        return cls(tuple(getattr(config, name) for name in STREAM_FIELDS),
                   _source_of(dataset, task), policy, flow_loss, indices, actions,
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

    `config` has passed its own checks (`RefineConfig`); the data is checked
    against it here (`check_data`: a learned critic needs rewards, and next
    states when its discount is > 0), before the flow is pretrained.
    Analytic-Q runs replay `base` (recorded here when not given, and checked
    against config, dataset and task before any step when given); learned-
    critic runs pretrain and sample live and take no stream. Any numeric
    failure aborts with the offending step index attached.
    """
    check_data(config, dataset, task)
    if base is not None:
        base.check(config, dataset, task)
    elif config.analytic_q:
        base = BaseStream.record(config, dataset, task)
    rng_flow_init, rng_flow, rng_res, rng_critic, rng_loop, rng_eval = _run_rngs(config.seed)

    n, d = task.state_dim, task.action_dim
    if base is None:
        policy, flow_loss = _pretrained_policy(config, dataset, task, rng_flow_init, rng_flow)
    else:
        policy, flow_loss = base.policy, base.flow_loss
    tmap = TransportMap.create(n, d, policy, config.hidden, config.max_displacement, rng_res)
    fisher = config.metric == "fisher"
    critic = stream_scores = None
    if base is None:
        gamma = 0.0 if config.mode == "bandit" else config.gamma
        critic = Critic.create(n, d, config.hidden, config.learning_rate,
                               config.tau, gamma, rng_critic)
        q_fn = critic.value_and_action_grad
        flow_adam = nets.AdamState.for_net(policy.field.net, config.learning_rate)
    else:
        q_fn = task.q_value
        if fisher:
            # the frozen flow's scores at every replayed step, made before the first step
            stream_scores = np.empty(base.actions.shape)

            def score(step):
                stream_scores[step] = batched_scores(
                    policy.field, dataset.states[base.indices[step]], base.actions[step],
                    config.t_eps)

            _each_step(config.steps, score)
    dual = DualState(config.lambda_init, config.epsilon, config.eta)
    actor_adam = nets.AdamState.for_net(tmap.residual_net, config.learning_rate)

    rows = []
    size = len(dataset)
    td_loss = 0.0
    stats = ActorStats(0.0, 0.0)
    for step in range(config.steps):
        try:
            if base is not None:
                states, base_actions = dataset.states[base.indices[step]], base.actions[step]
                scores = None if stream_scores is None else stream_scores[step]
            else:
                idx = rng_loop.integers(0, size, size=min(config.batch_size, size))
                states, actions = dataset.states[idx], dataset.actions[idx]
                rewards = dataset.rewards[idx]
                z = rng_loop.standard_normal((len(idx), d)) if critic.gamma > 0.0 else None
                next_states = None if z is None else dataset.next_states[idx]
                # the TD target reads a frozen copy of the flow as it was before this step's
                # update, so with a next-action sample it can run on a second core
                threads = 1 if z is None else _thread_count(2)
                target, (flow_loss, base_actions, scores) = _run_parts(
                    [partial(td_target, critic, _frozen_map(tmap), rewards, next_states, z),
                     partial(_flow_step, policy, flow_adam, states, actions, rng_loop,
                             config.grad_clip, config.t_eps, fisher)], threads)
                td_loss = critic_update(critic, states, actions, target, config.grad_clip)
            stats = actor_update(tmap, q_fn, scores, dual, states, base_actions, actor_adam,
                                 config.normalize_metric, config.damping, config.grad_clip)
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
        eval_states, eval_actions = evaluation_inputs(policy, task, config.eval_samples, rng_eval)
    mean_refined, mean_base = evaluate_policy(tmap, task, eval_states, eval_actions)
    final = {
        "mean_refined_value": mean_refined,
        "mean_base_value": mean_base,
        "final_constraint": stats.constraint,
        "final_lambda": dual.lam,
        "flow_loss": float(flow_loss),
        "td_loss": float(td_loss),
    }
    return RunResult(tmap, critic, dual, rows, final)


def run_arms(configs, dataset: OfflineDataset, task: SyntheticTask):
    """Yield the run of each config in order, all replaying one base stream when analytic-Q.

    The stream is recorded from the first config when it sets analytic_q
    (every later one must fit it, see `BaseStream.check`), else there is none.
    """
    analytic = configs and configs[0].analytic_q
    stream = BaseStream.record(configs[0], dataset, task) if analytic else None
    for config in configs:
        yield run_refinement(config, dataset, task, base=stream)
