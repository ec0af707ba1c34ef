import io
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from fisherflow import cli, flow, nets, score, tasks, training, validate
from fisherflow.errors import NumericError

from helpers import (LIBRARY_REFUSED_SETTINGS, REFUSED_SETTINGS, base_stream_reference,
                     checkpoint_payload)


def small_config(**kw):
    base = dict(steps=60, flow_steps=120, batch_size=64, hidden=(16, 16),
                log_interval=20, eval_samples=200)
    base.update(kw)
    return training.RefineConfig(**base)


@pytest.fixture(scope="module")
def bimodal_setup():
    task = tasks.make_task("bimodal_asymmetric")
    dataset = tasks.make_dataset(task, 1024, seed=0)
    return task, dataset


# --- dual updates -----------------------------------------------------------

def test_dual_update_arithmetic():
    dual = training.DualState(lam=1.0, epsilon=0.3, eta=0.1)
    out = training.dual_update(dual, 0.5)
    assert abs(out.lam - 1.02) < 1e-12


def test_dual_update_no_violation_no_change():
    dual = training.DualState(lam=2.0, epsilon=0.3, eta=0.1)
    assert training.dual_update(dual, 0.3).lam == 2.0


def test_dual_update_projection_clamps_at_zero():
    dual = training.DualState(lam=0.01, epsilon=0.5, eta=1.0)
    assert training.dual_update(dual, 0.0).lam == 0.0


def test_dual_update_monotone_in_constraint():
    rng = np.random.default_rng(0)
    dual = training.DualState(lam=1.5, epsilon=0.2, eta=0.05)
    values = np.sort(rng.uniform(0, 1, size=20))
    lams = [training.dual_update(dual, float(v)).lam for v in values]
    assert all(a <= b + 1e-15 for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dual_update_refuses_a_non_finite_constraint(bad):
    with pytest.raises(NumericError, match=r"^non-finite trust-region constraint"):
        training.dual_update(training.DualState(lam=5.0), bad)


def test_non_finite_constraint_fails_the_run_at_its_step(tmp_path, capsys, monkeypatch):
    real = training.actor_update

    def nan_constraint(*args, **kwargs):
        return training.ActorStats(real(*args, **kwargs).mean_q, np.nan)

    monkeypatch.setattr(training, "actor_update", nan_constraint)
    code = cli.main(["train", "--out", str(tmp_path / "r"), "--set", "train.steps=2",
                     "--set", "train.flow_steps=0", "--set", "train.hidden=8,8",
                     "--set", "train.eval_samples=50", "--set", "data.size=64"])
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: training step 0: non-finite "
                                       "trust-region constraint nan\n")


def test_dual_state_validation():
    with pytest.raises(ValueError):
        training.DualState(lam=-1.0)
    with pytest.raises(ValueError):
        training.DualState(epsilon=0.0)
    with pytest.raises(ValueError):
        training.DualState(eta=-1e-3)
    # nan fails every comparison, so each bound must be written to fail for it
    for name, word in (("lam", "lambda"), ("epsilon", "epsilon"), ("eta", "eta")):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=word):
                training.DualState(**{name: bad})
    training.DualState(lam=0.0, eta=0.0)  # both lower bounds are inclusive


# --- closed-form refinement (1/lambda) M^-1 grad Q and the optimality gap ----

def test_iterated_update_stationary_point_does_not_move():
    s, g, lam = np.array([[0.6, -0.2]]), np.array([0.5, 1.0]), 2.0
    star = score.damped_inverse_apply(s, g[None], damping=0.3) / lam
    _, m_star = score.fisher_penalty_batch(s, star, normalize=False, damping=0.3)
    grad = g - lam * m_star[0]
    assert np.linalg.norm(grad) < 1e-10  # zero gradient: the update magnitude vanishes


def test_optimality_gap_zero_gradient():
    res = validate.optimality_gap(np.array([1.0, 2.0]), np.zeros(2), 1.0, damping=0.5)
    assert res.direct == 0.0


def test_optimality_gap_rejects_singular_metric():
    with pytest.raises(NumericError):  # rank-1, undamped
        validate.optimality_gap(np.array([1.0, 0.0]), np.array([0.3, 0.4]), 1.0)


# --- critic -----------------------------------------------------------------

def make_transport(state_dim, action_dim, seed=0):
    field = flow.VelocityField.create(state_dim, action_dim, hidden=(16, 16), rng=seed)
    policy = flow.FlowPolicy(field, steps=4)
    return transport_map(policy, state_dim, action_dim, seed)


def transport_map(policy, state_dim, action_dim, seed):
    from fisherflow.transport import TransportMap
    return TransportMap.create(state_dim, action_dim, policy, hidden=(16, 16), rng=seed)


def sampled_base(policy, states, rng):
    """Base actions of the policy at `states` from fresh Euler noise."""
    return flow.sample_action(policy, states,
                              rng.standard_normal((len(states), policy.field.action_dim)))


def test_critic_bandit_regresses_to_rewards():
    rng = np.random.default_rng(3)
    critic = training.Critic.create(0, 2, hidden=(32, 32), learning_rate=3e-3,
                                    gamma=0.0, rng=rng)
    tmap = make_transport(0, 2, seed=4)
    actions = rng.normal(size=(64, 2))
    rewards = 0.5 * actions[:, 0] - 0.2 * actions[:, 1]
    target = training.td_target(critic, tmap, rewards)  # gamma = 0: the rewards
    for _ in range(1500):
        loss = training.critic_update(critic, np.zeros((64, 0)), actions, target)
    assert loss < 0.05**2
    pred, _ = critic.value_and_action_grad(np.zeros((64, 0)), actions)
    assert float(np.max(np.abs(pred - rewards))) < 0.25


def test_critic_zero_rewards_shrink_values():
    rng = np.random.default_rng(5)
    critic = training.Critic.create(0, 2, hidden=(16, 16), learning_rate=1e-3,
                                    gamma=0.99, rng=rng)
    tmap = make_transport(0, 2, seed=6)
    actions = rng.normal(size=(64, 2))
    states = np.zeros((64, 0))
    before = float(np.mean(np.abs(critic.value_and_action_grad(states, actions)[0])))
    for _ in range(600):
        target = training.td_target(critic, tmap, np.zeros(64), states,
                                    rng.standard_normal((64, 2)))
        training.critic_update(critic, states, actions, target)
    after = float(np.mean(np.abs(critic.value_and_action_grad(states, actions)[0])))
    assert after < before


def test_critic_tau_one_copies_online_to_target():
    critic = training.Critic.create(1, 1, hidden=(8,), tau=1.0, gamma=0.0, rng=7)
    tmap = make_transport(1, 1, seed=8)
    training.critic_update(critic, np.zeros((4, 1)), np.zeros((4, 1)),
                           training.td_target(critic, tmap, np.ones(4)))
    for online, target in zip(critic.online, critic.target):
        for po, pt in zip(online.parameters(), target.parameters()):
            np.testing.assert_array_equal(po, pt)


def test_td_target_is_pessimistic():
    # the min combiner never exceeds either individual target-net estimate
    rng = np.random.default_rng(9)
    critic = training.Critic.create(0, 2, hidden=(16,), rng=rng)
    s = np.zeros((32, 0))
    a = rng.normal(size=(32, 2))
    both = critic.target_values(s, a)
    combined = both.min(axis=0)
    assert np.all(combined <= both[0] + 1e-15)
    assert np.all(combined <= both[1] + 1e-15)


def test_critic_rejects_nonfinite_targets():
    critic = training.Critic.create(0, 1, hidden=(8,), gamma=0.0, rng=10)
    tmap = make_transport(0, 1, seed=11)
    with pytest.raises(NumericError, match="non-finite TD target"):
        training.td_target(critic, tmap, np.array([np.inf, 0.0]))


# --- actor ------------------------------------------------------------------

def test_actor_update_leaves_flow_parameters_bit_identical(bimodal_setup):
    task, dataset = bimodal_setup
    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=12)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport_map(policy, 0, 2, seed=13)
    snapshot = [p.tobytes() for p in field.net.parameters()]
    adam = nets.AdamState.for_net(tmap.residual_net)
    states = dataset.states[:64]
    for _ in range(5):
        base = sampled_base(policy, states, np.random.default_rng(14))
        training.actor_update(tmap, task.q_value, score.batched_scores(field, states, base, 0.8),
                              training.DualState(), states, base, adam)
    assert [p.tobytes() for p in field.net.parameters()] == snapshot


def test_actor_update_huge_lambda_drives_penalty_to_zero(bimodal_setup):
    task, dataset = bimodal_setup
    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=15)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport_map(policy, 0, 2, seed=16)
    # give the residual something to unlearn
    tmap.residual_net.weights[-1][:] = 0.3
    adam = nets.AdamState.for_net(tmap.residual_net, 3e-3)
    dual = training.DualState(lam=1e6, epsilon=0.1)
    rng = np.random.default_rng(17)
    states = dataset.states[:64]
    for _ in range(1000):
        base = sampled_base(policy, states, rng)
        stats = training.actor_update(tmap, task.q_value,
                                      score.batched_scores(field, states, base, 0.8), dual,
                                      states, base, adam)
    assert stats.constraint < 1e-3


def test_actor_update_zero_lambda_ascends_quadratic_value():
    # analytic concave Q: one unconstrained ascent step increases mean Q
    def quadratic_q(s, a):
        a = np.atleast_2d(a)
        return -np.sum(a * a, axis=1), -2.0 * a

    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=18)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport_map(policy, 0, 2, seed=19)
    dual = training.DualState(lam=0.0, epsilon=0.1)
    adam = nets.AdamState.for_net(tmap.residual_net, 1e-3)
    states = np.zeros((128, 0))
    base = sampled_base(policy, states, np.random.default_rng(21))
    q0 = training.actor_update(tmap, quadratic_q, None, dual, states, base, adam).mean_q
    for _ in range(200):
        training.actor_update(tmap, quadratic_q, None, dual, states, base, adam)
    q1 = training.actor_update(tmap, quadratic_q, None, dual, states, base, adam).mean_q
    assert q1 > q0


# --- full runs (kept tiny here; the acceptance suite runs the real ones) ----

def test_run_refinement_deterministic_logs(bimodal_setup):
    task, dataset = bimodal_setup
    a = training.run_refinement(small_config(seed=5), dataset, task)
    b = training.run_refinement(small_config(seed=5), dataset, task)
    assert json.dumps(a.log) == json.dumps(b.log)
    assert a.final == b.final


def test_run_refinement_zero_value_task_stays_behavioral(bimodal_setup):
    _, dataset = bimodal_setup
    flat = replace(tasks.make_task("bimodal_asymmetric"),
                   landscape=tasks.QLandscape([0.0], [[0.0, 0.0]], [1.0]))
    res = training.run_refinement(small_config(seed=6, epsilon=0.1), dataset, flat)
    assert all(row["constraint"] < 0.1 for row in res.log)
    assert res.final["final_constraint"] < 0.01


def test_run_refinement_td_mode_smoke():
    task = tasks.make_task("bimodal_asymmetric")
    dataset = tasks.make_dataset(task, 512, seed=1, mode="chain", noise=0.05)
    cfg = small_config(seed=7, mode="td", analytic_q=False, steps=40, flow_steps=60)
    res = training.run_refinement(cfg, dataset, task)
    assert res.critic is not None
    assert np.isfinite(res.final["td_loss"])
    assert np.isfinite(res.final["mean_refined_value"])


def test_td_fisher_actor_steps_get_live_scores(monkeypatch):
    task = tasks.make_task("bimodal_asymmetric")
    dataset = tasks.make_dataset(task, 256, seed=1, mode="chain", noise=0.05)
    cfg = small_config(seed=9, mode="td", analytic_q=False, steps=6, flow_steps=10,
                       batch_size=32, hidden=(8, 8), eval_samples=50, t_eps=0.7)
    updated, mismatched = [], []
    real_flow, real_update = training._flow_step, training.actor_update

    def flow_step(policy, *args):
        out = real_flow(policy, *args)
        updated.append(replace(policy.field, net=policy.field.net.clone()))
        return out

    def checked(tmap, q_fn, scores, dual, states, base, *rest):
        # the flow trains every step: score it as its update left it, which the critic fit
        # between that update and this actor step must not change
        for field in (tmap.base_policy.field, updated[-1]):
            live = score.batched_scores(field, states, base, cfg.t_eps)
            mismatched.append(scores.tobytes() != live.tobytes())
        return real_update(tmap, q_fn, scores, dual, states, base, *rest)

    monkeypatch.setattr(training, "_flow_step", flow_step)
    monkeypatch.setattr(training, "actor_update", checked)
    for cores in (1, 2):  # on two cores the TD target overlaps the flow update
        use_cores(monkeypatch, cores)
        updated.clear()
        mismatched.clear()
        training.run_refinement(cfg, dataset, task)
        assert len(updated) == cfg.steps and mismatched == [False] * 2 * cfg.steps


# --- checkpoints --------------------------------------------------------------

@pytest.fixture(scope="module")
def wide_td_run():
    task = tasks.make_task("bimodal_gated")
    dataset = tasks.make_dataset(task, 256, seed=4, mode="chain", noise=0.05)
    cfg = small_config(seed=8, mode="td", analytic_q=False, steps=3, flow_steps=3,
                       hidden=(256, 256), eval_samples=50)
    return task, training.run_refinement(cfg, dataset, task)


@pytest.fixture(scope="module")
def bandit_run(bimodal_setup):
    task, dataset = bimodal_setup
    return task, training.run_refinement(small_config(seed=9, steps=5, flow_steps=5), dataset, task)


@pytest.mark.parametrize("run", ["bandit_run", "wide_td_run"])
def test_checkpoint_bytes_are_json_dump_of_the_payload(tmp_path, request, run):
    task, result = request.getfixturevalue(run)
    assert (result.critic is None) == (run == "bandit_run")
    path = tmp_path / "checkpoint.json"
    training.save_checkpoint(result, task.name, path)
    want = io.StringIO()
    json.dump(checkpoint_payload(result, task.name), want)
    assert path.read_text() == want.getvalue()

    loaded_task, tmap = training.load_checkpoint(path)
    assert loaded_task.name == task.name
    assert tmap.max_displacement == result.transport_map.max_displacement
    policy = result.transport_map.base_policy
    assert tmap.base_policy.steps == policy.steps
    for got, saved in [(tmap.residual_net, result.transport_map.residual_net),
                       (tmap.base_policy.field.net, policy.field.net)]:
        assert got.layer_sizes == saved.layer_sizes
        assert [p.tobytes() for p in got.parameters()] == [p.tobytes() for p in saved.parameters()]


def test_checkpoint_save_holds_no_parameter_copy_as_python_floats(tmp_path, wide_td_run):
    # about 270k parameters: as one list of Python floats that alone would be over 6 MB
    task, result = wide_td_run
    tracemalloc.start()
    try:
        training.save_checkpoint(result, task.name, tmp_path / "checkpoint.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_run_refinement_dimension_mismatch_rejected():
    task = tasks.make_task("bimodal_asymmetric")
    other = tasks.make_task("bimodal_gated")
    dataset = tasks.make_dataset(other, 64, seed=2)
    with pytest.raises(ValueError):
        training.run_refinement(small_config(), dataset, task)


# --- shared base streams ------------------------------------------------------

STREAM_CONFIG = dict(seed=11, log_interval=1)


@pytest.fixture(scope="module")
def small_stream(bimodal_setup):
    task, dataset = bimodal_setup
    return training.BaseStream.record(small_config(**STREAM_CONFIG), dataset, task)


def run_fingerprint(result):
    return (json.dumps(result.log), result.final,
            [p.tobytes() for p in result.transport_map.residual_net.parameters()],
            [p.tobytes() for p in result.transport_map.base_policy.field.net.parameters()])


def test_base_stream_draws_in_loop_order(bimodal_setup, small_stream):
    # the loop generator (fifth child of the seed) yields indices, then Euler noise, per step
    task, dataset = bimodal_setup
    cfg = small_config(**STREAM_CONFIG)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(6)[4])
    for step in range(cfg.steps):
        idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        z = rng.standard_normal((cfg.batch_size, task.action_dim))
        np.testing.assert_array_equal(small_stream.indices[step], idx)
        np.testing.assert_array_equal(
            small_stream.actions[step],
            flow.sample_action(small_stream.policy, dataset.states[idx], z))
    assert small_stream.eval_actions.shape == (cfg.eval_samples, task.action_dim)
    assert not small_stream.actions.flags.writeable  # shared by every arm


def test_shared_base_stream_reproduces_fresh_runs(bimodal_setup, small_stream):
    task, dataset = bimodal_setup
    arms = (dict(metric="fisher"), dict(metric="isotropic"), dict(t_eps=0.7),
            dict(t_eps=0.95, epsilon=0.05, eta=0.01))
    shared = [training.run_refinement(small_config(**STREAM_CONFIG, **arm), dataset, task,
                                      base=small_stream) for arm in arms]
    for arm, result in zip(arms, shared):
        fresh = training.run_refinement(small_config(**STREAM_CONFIG, **arm), dataset, task)
        assert run_fingerprint(result) == run_fingerprint(fresh), arm
    assert shared[0].final != shared[1].final  # the arms really differ


def refuse_training(monkeypatch):
    """Make pretraining, stream recording and actor steps fail the test if they start."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the input was checked")

    monkeypatch.setattr(training, "train_flow", no_training)
    monkeypatch.setattr(training, "actor_update", no_training)
    monkeypatch.setattr(training.BaseStream, "record", no_training)


@pytest.mark.parametrize("change", [
    dict(seed=12), dict(flow_steps=100), dict(batch_size=32), dict(steps=50),
    dict(hidden=(8, 8)), dict(eval_samples=100), dict(analytic_q=False),
])
def test_base_stream_rejects_a_run_it_does_not_fit(bimodal_setup, small_stream, monkeypatch,
                                                   change):
    task, dataset = bimodal_setup
    refuse_training(monkeypatch)
    with pytest.raises(ValueError):
        training.run_refinement(small_config(**{**STREAM_CONFIG, **change}), dataset, task,
                                base=small_stream)


# another valid value of every RefineConfig field but mode and analytic_q (a base stream is
# analytic-Q only); a new field fails the test below until it is listed here
OTHER_VALUES = dict(
    seed=12, steps=4, flow_steps=6, batch_size=8, learning_rate=1e-3, grad_clip=1e-3,
    hidden=(8, 4), flow_integration_steps=5, eval_samples=20,
    max_displacement=0.5, metric="isotropic", t_eps=0.7, normalize_metric=False, damping=0.01,
    epsilon=0.05, eta=0.01, lambda_init=3.0, gamma=0.5, tau=0.1,
    log_interval=1)


def stream_bytes(stream):
    return [(a.shape, a.tobytes()) for a in (stream.indices, stream.actions, stream.eval_states,
                                             stream.eval_actions,
                                             *stream.policy.field.net.parameters())]


def test_stream_fields_are_exactly_the_fields_that_change_the_stream(gated_setup):
    task, dataset = gated_setup
    assert set(OTHER_VALUES) == {f.name for f in fields(training.RefineConfig)} - {
        "mode", "analytic_q"}
    assert set(training.STREAM_FIELDS) <= set(OTHER_VALUES)
    config = tiny_stream_config(steps=3, flow_steps=5)
    stream = training.BaseStream.record(config, dataset, task)
    for name, value in OTHER_VALUES.items():
        other = replace(config, **{name: value})
        assert getattr(other, name) != getattr(config, name), name
        recorded = training.BaseStream.record(other, dataset, task)
        if name in training.STREAM_FIELDS:
            assert stream_bytes(recorded) != stream_bytes(stream), name
            with pytest.raises(ValueError, match=f"recorded with other {name}$"):
                stream.check(other, dataset, task)
        else:
            assert stream_bytes(recorded) == stream_bytes(stream), name
            stream.check(other, dataset, task)


def test_base_stream_rejects_another_dataset(bimodal_setup, small_stream):
    task, _ = bimodal_setup
    other = tasks.make_dataset(task, 1024, seed=1)
    with pytest.raises(ValueError, match="dataset"):
        training.run_refinement(small_config(**STREAM_CONFIG), other, task, base=small_stream)


@pytest.mark.parametrize("analytic_q", [True, False])
def test_run_arms_records_one_stream_from_the_first_analytic_config(bimodal_setup, monkeypatch,
                                                                   analytic_q):
    task, dataset = bimodal_setup
    runs = []
    monkeypatch.setattr(training.BaseStream, "record",
                        lambda config, *_: f"stream of {config.metric}")
    monkeypatch.setattr(training, "run_refinement",
                        lambda config, d, t, base: runs.append((config.metric, base)) or len(runs))
    arms = [small_config(metric=metric, analytic_q=analytic_q)
            for metric in ("isotropic", "fisher", "fisher")]
    assert list(training.run_arms(arms, dataset, task)) == [1, 2, 3]
    stream = "stream of isotropic" if analytic_q else None
    assert runs == [("isotropic", stream), ("fisher", stream), ("fisher", stream)]
    assert list(training.run_arms([], dataset, task)) == []


def test_config_validation():
    with pytest.raises(ValueError):
        training.RefineConfig(metric="euclidean")
    with pytest.raises(ValueError):
        training.RefineConfig(mode="online")


@pytest.mark.parametrize("change, key", REFUSED_SETTINGS + LIBRARY_REFUSED_SETTINGS)
def test_refused_setting_raises_before_training(gated_chain, monkeypatch, change, key):
    task, dataset = gated_chain  # chain data: rewards and next states for every critic
    refuse_training(monkeypatch)
    with pytest.raises(ValueError, match=key):
        training.run_refinement(small_config(**change), dataset, task)


def test_learned_critic_refuses_data_it_cannot_fit_before_training(gated_setup, monkeypatch):
    task, dataset = gated_setup  # bandit data: rewards, no next states
    refuse_training(monkeypatch)
    with pytest.raises(ValueError, match="next states"):
        training.run_refinement(small_config(mode="td", analytic_q=False), dataset, task)
    for mode in ("bandit", "td"):
        with pytest.raises(ValueError, match="rewards"):
            training.run_refinement(small_config(mode=mode, analytic_q=False),
                                    replace(dataset, rewards=None, next_states=dataset.states),
                                    task)


def test_td_at_gamma_zero_is_the_learned_critic_bandit(gated_setup):
    # discount 0 draws no next action, so it needs no next states
    task, dataset = gated_setup
    runs = [training.run_refinement(small_config(analytic_q=False, steps=3, flow_steps=4, **kw),
                                    dataset, task)
            for kw in (dict(mode="td", gamma=0.0), dict(mode="bandit"))]
    assert run_fingerprint(runs[0]) == run_fingerprint(runs[1])
    assert critic_bytes(runs[0]) == critic_bytes(runs[1])


# --- threaded recording and per-step scores ----------------------------------

def use_cores(monkeypatch, count):
    """Make the process see `count` usable cores and let `_each_step` start that many threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(training, "MAX_STEP_WORKERS", count)


@pytest.fixture(scope="module")
def gated_setup():
    task = tasks.make_task("bimodal_gated")
    return task, tasks.make_dataset(task, 256, seed=3)


def tiny_stream_config(**kw):
    return small_config(**{**dict(seed=21, flow_steps=10, batch_size=16, hidden=(8, 8),
                                  eval_samples=30), **kw})


def assert_stream_is_serial(stream, config, dataset, task):
    """Every array of `stream` equals the serial loop's, bit for bit."""
    want = base_stream_reference(stream.policy, config, dataset, task)
    got = (stream.indices, stream.actions, stream.eval_states, stream.eval_actions)
    for name, g, w in zip(("indices", "actions", "eval_states", "eval_actions"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def penalty_scores(monkeypatch):
    """A list of the score arrays the library hands `fisher_penalty_batch`, filled as it runs."""
    seen, real = [], training.fisher_penalty_batch

    def recording(scores, delta, *args, **kw):
        seen.append(np.array(scores))
        return real(scores, delta, *args, **kw)

    monkeypatch.setattr(training, "fisher_penalty_batch", recording)
    return seen


@pytest.mark.parametrize("setup", ["bimodal_setup", "gated_setup"])
@pytest.mark.parametrize("steps", [0, 1, 7])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_threaded_stream_equals_the_serial_loop(request, monkeypatch, setup, steps, cores):
    task, dataset = request.getfixturevalue(setup)
    use_cores(monkeypatch, cores)
    config = tiny_stream_config(steps=steps)
    stream = training.BaseStream.record(config, dataset, task)
    assert_stream_is_serial(stream, config, dataset, task)
    # a fisher arm replaying the stream penalizes every step with the live scores
    seen = penalty_scores(monkeypatch)
    training.run_refinement(config, dataset, task, base=stream)
    assert len(seen) == steps
    for k, got in enumerate(seen):
        live = score.batched_scores(stream.policy.field, dataset.states[stream.indices[k]],
                                    stream.actions[k], config.t_eps)
        assert got.tobytes() == live.tobytes(), k


def test_threaded_stream_under_thread_switching_stress(gated_setup, monkeypatch):
    # more threads than the host has cores, switching as often as the interpreter allows
    task, dataset = gated_setup
    use_cores(monkeypatch, 8)
    config = tiny_stream_config(steps=29)
    interval = sys.getswitchinterval()
    made = []
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: made.append(
            training.BaseStream.record(config, dataset, task)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(made) == 1
    assert_stream_is_serial(made[0], config, dataset, task)


@pytest.mark.parametrize("cores", [1, 2, 64])
def test_each_step_starts_at_most_the_measured_thread_count(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    threads = set()
    barrier = threading.Barrier(min(cores, training.MAX_STEP_WORKERS), timeout=30)

    def step(k):
        threads.add(threading.get_ident())
        if k == 0 or k == 50:  # the first step of each block waits for the other block
            barrier.wait()

    training._each_step(100, step)
    assert len(threads) == min(cores, training.MAX_STEP_WORKERS)


FAILING_STEPS = (3, 7)  # in different blocks for 2 and 3 threads; 3 is not in the first of 3


def loop_noise(config, dataset, task):
    """Each step's Euler noise, drawn as the loop generator draws it."""
    rng = training._run_rngs(config.seed)[4]
    noise = []
    for _ in range(config.steps):
        rng.integers(0, len(dataset), size=min(config.batch_size, len(dataset)))
        noise.append(rng.standard_normal((min(config.batch_size, len(dataset)), task.action_dim)))
    return noise


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_record_raises_the_lowest_failing_step_after_every_thread_ends(bimodal_setup, monkeypatch,
                                                                      cores):
    task, dataset = bimodal_setup
    config = tiny_stream_config(steps=9)
    noise = loop_noise(config, dataset, task)
    real = flow.sample_action

    def failing_sample(policy, s, z):
        if any(np.array_equal(z, noise[k]) for k in FAILING_STEPS):
            raise NumericError("injected failure")
        return real(policy, s, z)

    monkeypatch.setattr(flow, "sample_action", failing_sample)
    use_cores(monkeypatch, cores)
    before = threading.active_count()
    with pytest.raises(NumericError) as threaded:
        training.BaseStream.record(config, dataset, task)
    assert threading.active_count() == before
    rng_init, rng_flow = training._run_rngs(config.seed)[:2]
    policy, _ = training._pretrained_policy(config, dataset, task, rng_init, rng_flow)
    with pytest.raises(NumericError) as serial:
        base_stream_reference(policy, config, dataset, task)
    assert str(threaded.value) == str(serial.value) == "training step 3: injected failure"


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_score_pass_raises_the_lowest_failing_step_after_every_thread_ends(bimodal_setup,
                                                                          monkeypatch, cores):
    task, dataset = bimodal_setup
    use_cores(monkeypatch, cores)
    config = tiny_stream_config(steps=9)
    stream = training.BaseStream.record(config, dataset, task)
    real = training.batched_scores

    def failing_scores(field, s, a, t_eps):
        if any(np.array_equal(a, stream.actions[k]) for k in FAILING_STEPS):
            raise NumericError("non-finite score estimate")
        return real(field, s, a, t_eps)

    monkeypatch.setattr(training, "batched_scores", failing_scores)
    seen = penalty_scores(monkeypatch)
    before = threading.active_count()
    with pytest.raises(NumericError, match=r"^training step 3: non-finite score estimate$"):
        training.run_refinement(config, dataset, task, base=stream)
    assert threading.active_count() == before
    assert len(seen) == 3  # each step scores just before its actor step


@pytest.mark.parametrize("cores", [1, 2])
def test_each_step_passes_other_errors_through_unchanged(monkeypatch, cores):
    use_cores(monkeypatch, cores)
    raised = ValueError("t_eps must lie in (0, 1)")

    def step(k):
        if k == 4:
            raise raised

    with pytest.raises(ValueError) as caught:
        training._each_step(6, step)
    assert caught.value is raised


def count_score_calls(monkeypatch):
    """A Counter of the library's `batched_scores` calls by t_eps, filled as they happen."""
    calls, real = Counter(), training.batched_scores

    def counted(field, s, a, t_eps):
        calls[t_eps] += 1
        return real(field, s, a, t_eps)

    monkeypatch.setattr(training, "batched_scores", counted)
    return calls


def test_fisher_arm_on_a_stream_makes_one_score_pass(bimodal_setup, monkeypatch):
    task, dataset = bimodal_setup
    config = tiny_stream_config(steps=5)
    stream = training.BaseStream.record(config, dataset, task)
    calls = count_score_calls(monkeypatch)
    training.run_refinement(config, dataset, task, base=stream)
    assert calls == {0.8: 5}  # one call per step
    training.run_refinement(replace(config, metric="isotropic"), dataset, task, base=stream)
    assert calls == {0.8: 5}  # the isotropic arm evaluates no score


def test_replayed_fisher_arm_holds_no_score_array_that_grows_with_steps():
    # a score array of every step would be 8 x steps x B x d = 2 MB here
    task = tasks.make_task("bimodal_asymmetric")
    dataset = tasks.make_dataset(task, 256, seed=4)
    config = small_config(seed=6, steps=2000, flow_steps=10, batch_size=64, hidden=(8, 8),
                          eval_samples=20, log_interval=0)
    stream = training.BaseStream.record(config, dataset, task)
    tracemalloc.start()
    try:
        training.run_refinement(config, dataset, task, base=stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stream.actions.nbytes // 4


def test_sweep_teps_makes_one_score_pass_per_arm(tmp_path, monkeypatch):
    calls = count_score_calls(monkeypatch)
    assert cli.main(["sweep-teps", "--seeds", "1,2", "--set", "sweep.t_eps=0.6,0.8,0.95",
                     "--out", str(tmp_path / "sweep"), "--set", "train.steps=6",
                     "--set", "train.flow_steps=10", "--set", "train.batch_size=16",
                     "--set", "train.hidden=8,8", "--set", "train.eval_samples=20",
                     "--set", "data.size=128"]) == 0
    assert calls == {0.6: 12, 0.8: 12, 0.95: 12}  # 6 steps x 2 seeds each


@pytest.mark.parametrize("command", ["train", "sweep-teps"])
def test_fisher_arm_on_stream_scores_writes_the_live_penalty_artifacts(tmp_path, monkeypatch,
                                                                       command):
    argv = [command, "--seed", "5", "--set", "train.steps=30", "--set", "train.flow_steps=40",
            "--set", "train.batch_size=32", "--set", "train.hidden=16,16",
            "--set", "train.eval_samples=100", "--set", "train.log_interval=5",
            "--set", "data.size=256", "--set", "sweep.t_eps=0.7,0.9"]
    assert cli.main([*argv, "--out", str(tmp_path / "stream")]) == 0
    # every actor step gets live scores from the frozen flow at the run's t_eps
    run_t_eps, real_run, real_update = [], training.run_refinement, training.actor_update

    def run_refinement(config, *args, **kw):
        run_t_eps.append(config.t_eps)
        return real_run(config, *args, **kw)

    def live_update(tmap, q_fn, scores, dual, states, base, *rest):
        live = score.batched_scores(tmap.base_policy.field, states, base, run_t_eps[-1])
        return real_update(tmap, q_fn, live, dual, states, base, *rest)

    monkeypatch.setattr(training, "run_refinement", run_refinement)
    monkeypatch.setattr(training, "actor_update", live_update)
    assert cli.main([*argv, "--out", str(tmp_path / "live")]) == 0
    assert len(run_t_eps) == (2 if command == "sweep-teps" else 1)
    names = sorted(p.name for p in (tmp_path / "stream").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "live").iterdir())
    for name in names:
        if name != "config.txt":  # names its own output directory
            assert (tmp_path / "stream" / name).read_bytes() == \
                (tmp_path / "live" / name).read_bytes(), name


# --- overlapped TD steps --------------------------------------------------------

@pytest.fixture(scope="module")
def gated_chain():
    task = tasks.make_task("bimodal_gated")
    return task, tasks.make_dataset(task, 256, seed=5, mode="chain", noise=0.05)


def td_config(**kw):
    return small_config(**{**dict(seed=13, mode="td", analytic_q=False, steps=7, flow_steps=10,
                                  batch_size=32, hidden=(8, 8), eval_samples=50,
                                  log_interval=1), **kw})


def critic_bytes(result):
    return [p.tobytes() for group in (result.critic.online, result.critic.target)
            for net in group for p in net.parameters()]


@pytest.mark.parametrize("overrides, overlaps", [
    (dict(metric="fisher"), True),
    (dict(metric="isotropic"), True),
    (dict(mode="bandit"), False),  # gamma = 0: no next-action sample, nothing to overlap
])
def test_overlapped_td_step_is_bit_identical_on_any_core_count(gated_chain, monkeypatch,
                                                               overrides, overlaps):
    task, dataset = gated_chain
    config = td_config(**overrides)
    on_caller, real_target, real_flow = [], training.td_target, training._flow_step
    flow_done = threading.Event()

    def flow_step(*args):
        try:
            return real_flow(*args)
        finally:
            flow_done.set()

    def late_target(*args):
        on_caller.append(threading.get_ident() == threading.main_thread().ident)
        if not on_caller[-1]:
            # the worst order: the worker reads the flow after the update it must not see
            assert flow_done.wait(timeout=60)
            flow_done.clear()
        return real_target(*args)

    monkeypatch.setattr(training, "td_target", late_target)
    monkeypatch.setattr(training, "_flow_step", flow_step)
    runs = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        on_caller.clear()
        flow_done.clear()  # a serial run sets it and nothing waits
        result = training.run_refinement(config, dataset, task)
        runs.append((run_fingerprint(result), critic_bytes(result)))
        # with two cores and a next-action sample, every target runs on the worker
        assert on_caller == [cores == 1 or not overlaps] * config.steps
    assert runs[0] == runs[1]


NAN_STEP = 3


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("poisoned, message", [
    ("noise", "non-finite action trajectory at Euler step 0"),  # the snapshot's Euler
    ("rewards", "non-finite TD target"),
])
def test_nan_in_the_td_target_names_its_step(gated_chain, monkeypatch, cores, poisoned, message):
    task, dataset = gated_chain
    use_cores(monkeypatch, cores)
    calls, real = [], training.td_target

    def poisoning(critic, tmap, rewards, next_states, z):
        calls.append(None)
        if len(calls) == NAN_STEP + 1:
            if poisoned == "noise":
                z = np.full_like(z, np.nan)
            else:
                rewards = np.full_like(rewards, np.nan)
        return real(critic, tmap, rewards, next_states, z)

    monkeypatch.setattr(training, "td_target", poisoning)
    before = threading.active_count()
    with pytest.raises(NumericError, match=rf"^training step {NAN_STEP}: {message}$"):
        training.run_refinement(td_config(), dataset, task)
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2])
def test_both_halves_end_before_the_target_error_wins(gated_chain, monkeypatch, cores):
    task, dataset = gated_chain
    use_cores(monkeypatch, cores)
    flow_halves = []

    def failing_target(*args):
        raise NumericError("non-finite TD target")

    def failing_loss(*args):
        time.sleep(0.05)  # the worker's failure is long known when this one comes
        flow_halves.append(None)
        raise NumericError("non-finite flow loss")

    monkeypatch.setattr(training, "td_target", failing_target)
    monkeypatch.setattr(training, "flow_matching_loss", failing_loss)
    before = threading.active_count()
    with pytest.raises(NumericError, match=r"^training step 0: non-finite TD target$"):
        training.run_refinement(td_config(), dataset, task)
    assert threading.active_count() == before
    # serially the target fails first and the flow half never starts; overlapped, both end
    assert len(flow_halves) == (cores > 1)


@pytest.mark.parametrize("cores", [1, 2])
def test_flow_half_error_waits_for_the_target_and_precedes_the_critic_fit(gated_chain,
                                                                         monkeypatch, cores):
    task, dataset = gated_chain
    use_cores(monkeypatch, cores)
    targets, real = [], training.td_target

    def slow_target(*args):
        time.sleep(0.05)
        targets.append(real(*args))
        return targets[-1]

    def failing_loss(*args):
        raise NumericError("non-finite flow loss")

    def failing_fit(*args):
        raise NumericError("non-finite parameter after optimizer step")

    monkeypatch.setattr(training, "td_target", slow_target)
    monkeypatch.setattr(training, "flow_matching_loss", failing_loss)
    monkeypatch.setattr(training, "critic_update", failing_fit)
    before = threading.active_count()
    # the online critics fit after the flow half, so its error is the one raised
    with pytest.raises(NumericError, match=r"^training step 0: non-finite flow loss$"):
        training.run_refinement(td_config(), dataset, task)
    assert threading.active_count() == before
    assert len(targets) == 1  # the worker's target was done before the raise


@pytest.mark.parametrize("cores", [1, 2])
def test_td_score_error_follows_its_steps_critic_fit(gated_chain, monkeypatch, cores):
    task, dataset = gated_chain
    use_cores(monkeypatch, cores)
    fits, real_fit, real_scores = [], training.critic_update, training.batched_scores

    def counted_fit(*args):
        fits.append(None)
        return real_fit(*args)

    def failing_scores(field, s, a, t_eps):
        if len(fits) == NAN_STEP + 1:
            raise NumericError("non-finite score estimate")
        return real_scores(field, s, a, t_eps)

    monkeypatch.setattr(training, "critic_update", counted_fit)
    monkeypatch.setattr(training, "batched_scores", failing_scores)
    before = threading.active_count()
    with pytest.raises(NumericError,
                       match=rf"^training step {NAN_STEP}: non-finite score estimate$"):
        training.run_refinement(td_config(), dataset, task)
    assert threading.active_count() == before
    assert len(fits) == NAN_STEP + 1  # the failing step's critics fit before it scored


def test_overlapped_td_step_under_thread_switching_stress(gated_chain, monkeypatch):
    # the worker reads the target critics and the residual net while the caller trains the
    # flow, switching threads as often as the interpreter allows
    task, dataset = gated_chain
    config = td_config(steps=9)
    use_cores(monkeypatch, 1)
    serial = training.run_refinement(config, dataset, task)
    use_cores(monkeypatch, 8)
    interval = sys.getswitchinterval()
    made = []
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: made.append(
            training.run_refinement(config, dataset, task)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(made) == 1
    assert run_fingerprint(made[0]) == run_fingerprint(serial)
    assert critic_bytes(made[0]) == critic_bytes(serial)
