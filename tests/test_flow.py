import json

import numpy as np
import pytest

from fisherflow import flow, nets
from fisherflow.densities import GaussianMixture
from fisherflow.errors import NumericError

from helpers import gaussian_oracle_velocity, net_to_dict


class ConstantField:
    """Stub velocity field returning a fixed vector."""

    def __init__(self, value, state_dim=0):
        self.value = np.asarray(value, dtype=np.float64)
        self.state_dim = state_dim
        self.action_dim = self.value.shape[-1]

    def __call__(self, t, s, a):
        a = np.asarray(a)
        return np.broadcast_to(self.value, a.shape).copy()


def test_sample_action_zero_field_returns_noise():
    policy = flow.FlowPolicy(ConstantField([0.0, 0.0]), steps=10)
    z = np.array([0.4, -1.3])
    np.testing.assert_array_equal(flow.sample_action(policy, None, z), z)


def test_sample_action_constant_field_telescopes():
    c = np.array([0.5, -0.25])
    policy = flow.FlowPolicy(ConstantField(c), steps=7)
    z = np.array([1.0, 1.0])
    np.testing.assert_allclose(flow.sample_action(policy, None, z), z + c, rtol=1e-12)


def test_sample_action_reports_bad_step():
    class ExplodingField(ConstantField):
        def __call__(self, t, s, a):
            if t >= 0.5:
                return np.full_like(np.asarray(a, dtype=float), np.inf)
            return super().__call__(t, s, a)

    policy = flow.FlowPolicy(ExplodingField([0.0]), steps=10)
    with pytest.raises(NumericError, match="step 5"):
        flow.sample_action(policy, None, np.array([0.0]))


def test_euler_matches_high_resolution_reference():
    mix = GaussianMixture.single([1.5], 0.6)

    class OracleField:
        def __call__(self, t, s, a):
            return mix.velocity(t, a)

    z = np.array([0.0])
    coarse = flow.sample_action(flow.FlowPolicy(OracleField(), steps=256), None, z)
    ref = flow.sample_action(flow.FlowPolicy(OracleField(), steps=16384), None, z)
    assert abs(float(coarse[0] - ref[0])) < 1e-2
    # the exact flow of the Gaussian path sends z to mu + sigma z
    assert abs(float(ref[0]) - 1.5) < 1e-3


def test_euler_error_decreases_as_steps_double():
    mix = GaussianMixture.single([1.5, -0.5], 0.6)

    class OracleField:
        def __call__(self, t, s, a):
            return mix.velocity(t, a)

    z = np.array([0.7, -0.2])
    ref = flow.sample_action(flow.FlowPolicy(OracleField(), steps=16384), None, z)
    errors = []
    for m in (8, 16, 32, 64):
        out = flow.sample_action(flow.FlowPolicy(OracleField(), steps=m), None, z)
        errors.append(float(np.linalg.norm(out - ref)))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_gaussian_oracle_velocity_known_points():
    # target N(0, 1), t = 0.5, a = 1: conditioning gives E[x1|x_t]=1 so v = 0
    v = GaussianMixture.single([0.0], 1.0).velocity(0.5, np.array([1.0]))
    np.testing.assert_allclose(v, [0.0], atol=1e-15)
    # at t = 0 the interpolant is pure noise, independent of x1: v = mu - a
    v = GaussianMixture.single([2.0, -1.0], 0.7).velocity(0.0, np.array([0.5, 0.5]))
    np.testing.assert_allclose(v, [1.5, -1.5], rtol=1e-15)


def test_gaussian_oracle_velocity_rejects_bad_inputs():
    mix = GaussianMixture.single([0.0], 1.0)
    for t in (1.0, -0.1):
        with pytest.raises(ValueError):
            mix.velocity(t, np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianMixture.single([0.0], 0.0)


def test_gaussian_oracle_velocity_matches_mixture_path():
    mix = GaussianMixture.single([0.3, -0.7], 0.9)
    a = np.array([0.25, 1.0])
    for t in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(gaussian_oracle_velocity([0.3, -0.7], 0.9, t, a),
                                   mix.velocity(t, a), rtol=1e-12)


def replay_loss_draws(seed, b, d):
    """The (t, x0) draws flow_matching_loss makes from default_rng(seed) for a (b, d) batch."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=(b, 1))
    return t, rng.standard_normal((b, d))


def test_flow_matching_loss_zero_net_is_mean_squared_target():
    field = flow.VelocityField.create(0, 2, hidden=(4,), rng=0)
    for w in field.net.weights:
        w[:] = 0.0
    for b in field.net.biases:
        b[:] = 0.0
    actions = np.random.default_rng(5).normal(size=(32, 2))
    loss, _ = flow.flow_matching_loss(field, None, actions, np.random.default_rng(7))
    # replay the same rng stream to recover the sampled x0
    _, x0 = replay_loss_draws(7, 32, 2)
    expected = float(np.sum((actions - x0) ** 2) / 32)
    assert abs(loss - expected) < 1e-12


def test_flow_matching_loss_gradients_match_finite_differences():
    from helpers import fd_array_gradient, rel_error

    field = flow.VelocityField.create(1, 2, hidden=(6,), rng=1)
    rng = np.random.default_rng(2)
    states = rng.normal(size=(8, 1))
    actions = rng.normal(size=(8, 2))
    _, tape = flow.flow_matching_loss(field, states, actions, np.random.default_rng(11))

    def loss_only():
        val, _ = flow.flow_matching_loss(field, states, actions, np.random.default_rng(11))
        return val

    for k in range(len(field.net.weights)):
        fd = fd_array_gradient(loss_only, field.net.weights[k], step=1e-5)
        assert rel_error(tape.d_weights[k], fd) < 1e-3


def test_flow_matching_loss_rejects_bad_batches():
    field = flow.VelocityField.create(0, 1, hidden=(4,), rng=0)
    with pytest.raises(ValueError):
        flow.flow_matching_loss(field, None, np.zeros((0, 1)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        flow.flow_matching_loss(field, None, np.array([[np.nan]]), np.random.default_rng(0))


def test_interpolant_target_independent_of_time():
    # point mass at 2 and a net that outputs 2 everywhere: the residual
    # pred - (x1 - x0) is x0, whatever time each row drew
    field = flow.VelocityField.create(0, 1, hidden=(4,), rng=0)
    for w in field.net.weights:
        w[:] = 0.0
    field.net.biases[-1][:] = 2.0
    loss, _ = flow.flow_matching_loss(field, None, np.full((16, 1), 2.0),
                                      np.random.default_rng(3))
    _, x0 = replay_loss_draws(3, 16, 1)
    assert abs(loss - float(np.sum(x0**2) / 16)) < 1e-12


def test_interpolant_is_exact_convex_combination(monkeypatch):
    seen = []
    forward = nets.forward

    def recording_forward(net, x, cache=None):
        seen.append(np.array(x))
        return forward(net, x, cache)

    monkeypatch.setattr(nets, "forward", recording_forward)
    field = flow.VelocityField.create(0, 2, hidden=(4,), rng=0)
    x1 = np.random.default_rng(30).normal(size=(10, 2))
    flow.flow_matching_loss(field, None, x1, np.random.default_rng(31))
    t, x0 = replay_loss_draws(31, 10, 2)
    [inp] = seen
    np.testing.assert_array_equal(inp[:, :2], (1 - t) * x0 + t * x1)
    np.testing.assert_array_equal(inp[:, 2:], t)


def test_train_flow_point_mass_and_loss_curve():
    rng = np.random.default_rng(9)
    field = flow.VelocityField.create(0, 1, hidden=(32, 32), rng=rng)
    policy = flow.FlowPolicy(field, steps=10)
    actions = np.full((1024, 1), 2.0)
    curve = flow.train_flow(policy, None, actions,
                            flow.FlowTrainConfig(steps=2000, batch_size=128), rng)
    tenth = len(curve) // 10
    assert np.median(curve[-tenth:]) < np.median(curve[:tenth])
    z = np.random.default_rng(10).standard_normal((512, 1))
    samples = flow.sample_action(policy, None, z)
    assert abs(float(samples.mean()) - 2.0) < 0.1


def test_train_flow_two_modes_no_mass_in_gap():
    rng = np.random.default_rng(12)
    mix = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [[0.3**2], [0.3**2]])
    actions = mix.sample(rng, 4096)
    field = flow.VelocityField.create(0, 1, hidden=(48, 48), rng=rng)
    policy = flow.FlowPolicy(field, steps=10)
    flow.train_flow(policy, None, actions, flow.FlowTrainConfig(steps=3000), rng)
    z = np.random.default_rng(13).standard_normal((2000, 1))
    samples = flow.sample_action(policy, None, z)
    frac_gap = float(np.mean(np.abs(samples) < 0.5))
    assert frac_gap < 0.10
    assert float(np.mean(samples > 0.5)) > 0.3 and float(np.mean(samples < -0.5)) > 0.3


def test_train_flow_gaussian_statistics():
    rng = np.random.default_rng(14)
    mu, sigma = np.array([0.5, -0.3]), 0.8
    mix = GaussianMixture.single(mu, sigma)
    actions = mix.sample(rng, 4096)
    field = flow.VelocityField.create(0, 2, hidden=(64, 64), rng=rng)
    policy = flow.FlowPolicy(field, steps=10)
    flow.train_flow(policy, None, actions, flow.FlowTrainConfig(steps=3000), rng)
    z = np.random.default_rng(15).standard_normal((2000, 2))
    samples = flow.sample_action(policy, None, z)
    assert np.all(np.abs(samples.mean(axis=0) - mu) < 0.15)
    assert np.all(np.abs(samples.std(axis=0) - sigma) < 0.2)


def test_train_flow_default_config_matches_contract():
    cfg = flow.FlowTrainConfig()
    assert cfg.batch_size == 256
    assert cfg.learning_rate == 3e-4


def test_sampling_deterministic_given_parameters():
    rng = np.random.default_rng(16)
    field = flow.VelocityField.create(2, 2, rng=rng)
    policy = flow.FlowPolicy(field, steps=10)
    s = np.array([0.1, -0.4])
    z = np.array([0.9, 0.2])
    a = flow.sample_action(policy, s, z)
    b = flow.sample_action(policy, s, z)
    np.testing.assert_array_equal(a, b)


def test_velocity_field_checkpoint_roundtrip():
    field = flow.VelocityField.create(1, 2, rng=17)
    data = json.loads(json.dumps(net_to_dict(field.net)))
    restored = flow.VelocityField(nets.DenseNet.from_dict(data), 1, 2)
    s, a = np.array([0.2]), np.array([0.4, -0.1])
    np.testing.assert_array_equal(field(0.3, s, a), restored(0.3, s, a))
