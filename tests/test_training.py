import json
from dataclasses import replace

import numpy as np
import pytest

from fisherflow import flow, nets, score, tasks, training, validate
from fisherflow.errors import NumericError


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


def test_dual_state_validation():
    with pytest.raises(ValueError):
        training.DualState(lam=-1.0)
    with pytest.raises(ValueError):
        training.DualState(epsilon=0.0)


# --- closed-form refinement (1/lambda) M^-1 grad Q and the optimality gap ----

def test_closed_form_refine_isotropic():
    metric = score.isotropic_metric(2)
    out = score.damped_inverse_apply(metric, np.array([1.0, 0.0])) / 2.0
    np.testing.assert_allclose(out, [0.5, 0.0], rtol=1e-12)


def test_closed_form_refine_sherman_morrison_case():
    s = np.array([1.0, 0.0])
    metric = score.fisher_matrix(s, damping=1.0)
    out = score.damped_inverse_apply(metric, s)  # lambda = 1
    np.testing.assert_allclose(out, s / 2.0, rtol=1e-12)


def test_iterated_update_stationary_point_does_not_move():
    metric = score.fisher_matrix(np.array([0.6, -0.2]), damping=0.3)
    g = np.array([0.5, 1.0])
    lam = 2.0
    star = score.damped_inverse_apply(metric, g) / lam
    grad = g - lam * metric.matrix @ star
    assert np.linalg.norm(grad) < 1e-10  # zero gradient: the update magnitude vanishes


def test_optimality_gap_zero_gradient():
    metric = score.fisher_matrix(np.array([1.0, 2.0]), damping=0.5)
    res = validate.optimality_gap(metric, np.zeros(2), 1.0)
    assert res.direct == 0.0


def test_optimality_gap_rejects_singular_metric():
    metric = score.fisher_matrix(np.array([1.0, 0.0]))  # rank-1, undamped
    with pytest.raises(NumericError):
        validate.optimality_gap(metric, np.array([0.3, 0.4]), 1.0)


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
    return policy.sample(states, rng.standard_normal((len(states), policy.field.action_dim)))


def test_critic_bandit_regresses_to_rewards():
    rng = np.random.default_rng(3)
    critic = training.Critic.create(0, 2, hidden=(32, 32), learning_rate=3e-3,
                                    gamma=0.0, rng=rng)
    tmap = make_transport(0, 2, seed=4)
    actions = rng.normal(size=(64, 2))
    rewards = 0.5 * actions[:, 0] - 0.2 * actions[:, 1]
    batch = (np.zeros((64, 0)), actions, rewards, None)
    for _ in range(1500):
        loss = training.critic_update(critic, tmap, batch, rng)
    assert loss < 0.05**2
    pred, _ = critic.value_and_action_grad(np.zeros((64, 0)), actions)
    assert float(np.max(np.abs(pred - rewards))) < 0.25


def test_critic_zero_rewards_shrink_values():
    rng = np.random.default_rng(5)
    critic = training.Critic.create(0, 2, hidden=(16, 16), learning_rate=1e-3,
                                    gamma=0.99, rng=rng)
    tmap = make_transport(0, 2, seed=6)
    actions = rng.normal(size=(64, 2))
    batch = (np.zeros((64, 0)), actions, np.zeros(64), np.zeros((64, 0)))
    before = float(np.mean(np.abs(critic.value_and_action_grad(np.zeros((64, 0)), actions)[0])))
    for _ in range(600):
        training.critic_update(critic, tmap, batch, rng)
    after = float(np.mean(np.abs(critic.value_and_action_grad(np.zeros((64, 0)), actions)[0])))
    assert after < before


def test_critic_tau_one_copies_online_to_target():
    critic = training.Critic.create(1, 1, hidden=(8,), tau=1.0, gamma=0.0, rng=7)
    tmap = make_transport(1, 1, seed=8)
    batch = (np.zeros((4, 1)), np.zeros((4, 1)), np.ones(4), None)
    training.critic_update(critic, tmap, batch, np.random.default_rng(0))
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
    batch = (np.zeros((2, 0)), np.zeros((2, 1)), np.array([np.inf, 0.0]), None)
    with pytest.raises(NumericError):
        training.critic_update(critic, tmap, batch, np.random.default_rng(0))


# --- actor ------------------------------------------------------------------

def test_actor_update_leaves_flow_parameters_bit_identical(bimodal_setup):
    task, dataset = bimodal_setup
    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=12)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport_map(policy, 0, 2, seed=13)
    snapshot = [p.tobytes() for p in field.net.parameters()]
    adam = nets.AdamState.for_net(tmap.residual_net)
    penalty = training.trust_region_penalty(field)
    states = dataset.states[:64]
    for _ in range(5):
        base = sampled_base(policy, states, np.random.default_rng(14))
        training.actor_update(tmap, task.q_value, penalty,
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
    penalty = training.trust_region_penalty(field)
    dual = training.DualState(lam=1e6, epsilon=0.1)
    rng = np.random.default_rng(17)
    states = dataset.states[:64]
    for _ in range(1000):
        stats = training.actor_update(tmap, task.q_value, penalty, dual, states,
                                      sampled_base(policy, states, rng), adam)
    assert stats.constraint < 1e-3


def test_actor_update_zero_lambda_ascends_quadratic_value():
    # analytic concave Q: one unconstrained ascent step increases mean Q
    def quadratic_q(s, a):
        a = np.atleast_2d(a)
        return -np.sum(a * a, axis=1), -2.0 * a

    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=18)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport_map(policy, 0, 2, seed=19)
    penalty = training.trust_region_penalty(field, "isotropic")
    dual = training.DualState(lam=0.0, epsilon=0.1)
    adam = nets.AdamState.for_net(tmap.residual_net, 1e-3)
    states = np.zeros((128, 0))
    base = sampled_base(policy, states, np.random.default_rng(21))
    q0 = training.actor_update(tmap, quadratic_q, penalty, dual, states, base, adam,
                               q_normalization=False).mean_q
    for _ in range(200):
        training.actor_update(tmap, quadratic_q, penalty, dual, states, base, adam,
                              q_normalization=False)
    q1 = training.actor_update(tmap, quadratic_q, penalty, dual, states, base, adam,
                               q_normalization=False).mean_q
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
            result.flow_loss_curve.tobytes())


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
            small_stream.actions[step], small_stream.policy.sample(dataset.states[idx], z))
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


@pytest.mark.parametrize("change", [
    dict(seed=12), dict(flow_steps=100), dict(batch_size=32), dict(steps=50),
    dict(hidden=(8, 8)), dict(eval_samples=100), dict(analytic_q=False),
])
def test_base_stream_rejects_a_run_it_does_not_fit(bimodal_setup, small_stream, monkeypatch,
                                                   change):
    task, dataset = bimodal_setup

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the stream was checked")

    monkeypatch.setattr(training, "train_flow", no_training)
    monkeypatch.setattr(training, "actor_update", no_training)
    with pytest.raises(ValueError):
        training.run_refinement(small_config(**{**STREAM_CONFIG, **change}), dataset, task,
                                base=small_stream)


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
