import io
import json

import numpy as np
import pytest

from fisherflow import nets
from fisherflow.errors import NumericError

from helpers import fd_array_gradient, fd_gradient, net_to_dict, rel_error


def linear_net(w, b=None):
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=np.float64)
    return nets.DenseNet([w.shape[0], w.shape[1]], [w.copy()], [b.copy()], "gelu")


def test_forward_zero_weights_returns_biases():
    net = nets.DenseNet.create([3, 4, 2], rng=0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = [0.5, -1.5]
    out = nets.forward(net, np.array([7.0, -3.0, 2.0]))
    # hidden is gelu(0) = 0, so the output is just the final bias
    np.testing.assert_allclose(out, [0.5, -1.5])


def test_forward_identity_layer():
    net = linear_net(np.eye(2))
    np.testing.assert_allclose(nets.forward(net, [1.0, 2.0]), [1.0, 2.0])


def test_forward_matches_hand_evaluation_2_2_1():
    # 2-2-1 tanh net evaluated layer by layer by hand
    w0 = np.array([[0.3, -0.2], [0.1, 0.5]])
    b0 = np.array([0.05, -0.1])
    w1 = np.array([[1.5], [-0.7]])
    b1 = np.array([0.2])
    net = nets.DenseNet([2, 2, 1], [w0, w1], [b0, b1], "tanh")
    x = np.array([0.4, -1.2])
    h = np.tanh(x @ w0 + b0)
    expected = h @ w1 + b1
    np.testing.assert_allclose(nets.forward(net, x), expected, rtol=1e-15)


def test_forward_rejects_dimension_mismatch():
    net = nets.DenseNet.create([3, 2], rng=0)
    with pytest.raises(ValueError):
        nets.forward(net, np.zeros(4))


def test_forward_is_pure():
    net = nets.DenseNet.create([3, 8, 2], rng=1)
    x = np.array([0.1, 0.2, 0.3])
    before = [w.copy() for w in net.weights]
    a = nets.forward(net, x)
    b = nets.forward(net, x)
    np.testing.assert_array_equal(a, b)
    for w0, w1 in zip(before, net.weights):
        np.testing.assert_array_equal(w0, w1)


def test_backward_linear_input_gradient_is_weight_row():
    w = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])  # 2 inputs -> 3 outputs
    net = linear_net(w)
    tape = nets.backward(net, np.array([0.3, 0.7]), np.array([1.0, 0.0, 0.0]))
    # gradient of output 0 w.r.t. the input: the weights feeding output 0
    np.testing.assert_allclose(tape.d_input, w[:, 0])


def test_backward_zero_upstream_gives_zero_tape():
    net = nets.DenseNet.create([3, 6, 2], rng=2)
    tape = nets.backward(net, np.array([0.5, -0.5, 1.0]), np.zeros(2))
    assert all(np.all(g == 0) for g in tape.d_weights + tape.d_biases)
    assert np.all(tape.d_input == 0)


@pytest.mark.parametrize("sizes,activation", [
    ([3, 5, 2], "gelu"),
    ([2, 8, 8, 1], "relu"),
    ([4, 6, 3], "tanh"),
    ([1, 4, 4, 2], "gelu"),
])
def test_backward_matches_finite_differences(sizes, activation):
    rng = np.random.default_rng(42)
    net = nets.DenseNet.create(sizes, activation, rng=rng)
    x = rng.standard_normal(sizes[0])
    upstream = rng.standard_normal(sizes[-1])
    # relu has kinks; keep probes away from them by nudging the input
    if activation == "relu":
        x = x + 0.05
    tape = nets.backward(net, x, upstream)

    def scalar(xv):
        return float(upstream @ nets.forward(net, xv))

    assert rel_error(tape.d_input, fd_gradient(scalar, x, step=1e-4)) < 1e-3
    for k in range(len(net.weights)):
        fd_w = fd_array_gradient(lambda: scalar(x), net.weights[k], step=1e-4)
        assert rel_error(tape.d_weights[k], fd_w) < 1e-3
        fd_b = fd_array_gradient(lambda: scalar(x), net.biases[k], step=1e-4)
        assert rel_error(tape.d_biases[k], fd_b) < 1e-3


def test_backward_batched_matches_sum_of_singles():
    rng = np.random.default_rng(3)
    net = nets.DenseNet.create([3, 5, 2], rng=rng)
    xs = rng.standard_normal((4, 3))
    ups = rng.standard_normal((4, 2))
    batched = nets.backward(net, xs, ups)
    singles = [nets.backward(net, xs[i], ups[i]) for i in range(4)]
    for k in range(len(net.weights)):
        np.testing.assert_allclose(
            batched.d_weights[k], sum(t.d_weights[k] for t in singles), rtol=1e-12)
    for i in range(4):
        np.testing.assert_allclose(batched.d_input[i], singles[i].d_input, rtol=1e-12)


def test_adam_zero_gradient_leaves_parameters():
    net = nets.DenseNet.create([2, 3, 1], rng=4)
    before = [w.copy() for w in net.weights]
    tape = nets.backward(net, np.zeros(2), np.zeros(1))
    state = nets.AdamState.for_net(net)
    nets.adam_step(net, tape, state)
    for w0, w1 in zip(before, net.weights):
        np.testing.assert_array_equal(w0, w1)
    assert state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # closed form: with fresh moments, bias correction makes the update
    # lr * g / (|g| + eps) regardless of the gradient's magnitude
    net = linear_net(np.array([[1.0]]))
    state = nets.AdamState.for_net(net, learning_rate=0.01)
    tape = nets.GradientTape([np.array([[3.7]])], [np.zeros(1)], np.zeros(1))
    nets.adam_step(net, tape, state)
    assert abs((1.0 - net.weights[0][0, 0]) - 0.01) < 1e-9


def test_adam_opposite_gradients_return_toward_start():
    lr, g = 0.01, 2.0
    net = linear_net(np.array([[1.0]]))
    state = nets.AdamState.for_net(net, learning_rate=lr)
    grad = lambda sign: nets.GradientTape([np.array([[sign * g]])], [np.zeros(1)], np.zeros(1))
    nets.adam_step(net, grad(+1.0), state)
    after_one = net.weights[0][0, 0]
    nets.adam_step(net, grad(-1.0), state)
    after_two = net.weights[0][0, 0]

    # hand-computed second step: m2 = (0.09 - 0.1) g, v2 = (0.000999 + 0.001) g^2,
    # stepped with the bias correction folded into the step size
    m2 = (0.9 * 0.1 - 0.1) * g
    v2 = (0.999 * 0.001 + 0.001) * g * g
    scale = lr * np.sqrt(1 - 0.999**2) / (1 - 0.9**2)
    expected_two = after_one - scale * m2 / (np.sqrt(v2) + state.eps)
    assert abs(after_two - expected_two) < 1e-12
    assert abs(after_two - 1.0) < abs(after_one - 1.0)  # moved back toward start
    assert abs(after_two - 1.0) <= lr  # within learning-rate scale


def test_adam_rejects_shape_mismatch():
    net = nets.DenseNet.create([2, 2], rng=0)
    state = nets.AdamState.for_net(net)
    bad = nets.GradientTape([np.zeros((3, 3))], [np.zeros(2)], np.zeros(2))
    with pytest.raises(ValueError):
        nets.adam_step(net, bad, state)


def test_parameters_stay_finite_over_noisy_updates():
    rng = np.random.default_rng(5)
    net = nets.DenseNet.create([3, 16, 2], rng=rng)
    state = nets.AdamState.for_net(net, learning_rate=1e-3)
    for _ in range(50):
        x = rng.standard_normal((8, 3))
        up = rng.standard_normal((8, 2))
        tape = nets.backward(net, x, up)
        nets.clip_gradients(tape, 5.0)
        nets.adam_step(net, tape, state)
    assert all(np.isfinite(w).all() for w in net.weights)
    assert all(np.isfinite(b).all() for b in net.biases)


def test_clip_gradients_rescales_to_max_norm():
    tape = nets.GradientTape([np.array([[3.0, 4.0]])], [np.zeros(2)], np.zeros(1))
    norm = nets.clip_gradients(tape, 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.linalg.norm(tape.d_weights[0]) - 1.0) < 1e-12


def test_adam_raises_on_nonfinite_parameters():
    net = linear_net(np.array([[1.0]]))
    state = nets.AdamState.for_net(net, learning_rate=1.0)
    tape = nets.GradientTape([np.array([[np.inf]])], [np.zeros(1)], np.zeros(1))
    with pytest.raises(NumericError):
        nets.adam_step(net, tape, state)


def test_adam_failure_leaves_net_and_state_untouched():
    rng = np.random.default_rng(7)
    net = nets.DenseNet.create([3, 4, 2], rng=rng)
    state = nets.AdamState.for_net(net, learning_rate=1e-2)
    nets.adam_step(net, nets.backward(net, rng.standard_normal((5, 3)),
                                      rng.standard_normal((5, 2))), state)
    tape = nets.backward(net, rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    tape.d_weights[1][0, 0] = np.inf  # a later layer: weights[0] would already be updated

    def snapshot():
        arrays = net.parameters() + state.m_w + state.v_w + state.m_b + state.v_b
        return [a.tobytes() for a in arrays], state.step

    before = snapshot()
    with pytest.raises(NumericError):
        nets.adam_step(net, tape, state)
    assert snapshot() == before


def test_checkpoint_roundtrip():
    net = nets.DenseNet.create([3, 8, 2], activation="relu", rng=6)
    loaded = nets.DenseNet.from_dict(json.loads(json.dumps(net_to_dict(net))))
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.activation == net.activation
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        np.testing.assert_array_equal(a, b)
    x = np.array([0.1, -0.2, 0.3])
    np.testing.assert_array_equal(nets.forward(net, x), nets.forward(loaded, x))


@pytest.mark.parametrize("sizes", [[2, 2], [3, 64, 64, 2], [5, 100, 100, 1]])
def test_write_json_matches_json_dump_of_the_dict(sizes):
    # (64, 64) holds exactly one slice of weights, (100, 100) two full slices and a partial one
    net = nets.DenseNet.create(sizes, activation="tanh", rng=len(sizes))
    net.biases[-1] += 0.1  # non-zero biases, so their text is exercised too
    buf = io.StringIO()
    net.write_json(buf)
    assert buf.getvalue() == json.dumps(net_to_dict(net))
    loaded = nets.DenseNet.from_dict(json.loads(buf.getvalue()))
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_unknown_version():
    net = nets.DenseNet.create([2, 2], rng=0)
    data = net_to_dict(net)
    data["format_version"] = 99
    with pytest.raises(ValueError):
        nets.DenseNet.from_dict(data)


def test_seeded_init_reproducible():
    a = nets.DenseNet.create([4, 8, 2], rng=123)
    b = nets.DenseNet.create([4, 8, 2], rng=123)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    bound = 1.0 / np.sqrt(4)
    assert np.all(np.abs(a.weights[0]) <= bound)
