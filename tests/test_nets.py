import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from fisherflow import nets
from fisherflow.errors import NumericError

from helpers import fd_array_gradient, fd_gradient, net_to_dict, rel_error, vjp


def linear_net(w, b=None):
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=np.float64)
    return nets.DenseNet([w.shape[0], w.shape[1]], [w.copy()], [b.copy()])


def test_forward_zero_weights_returns_biases():
    net = nets.DenseNet.create([3, 4, 2], rng=0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = [0.5, -1.5]
    out = nets.forward(net, np.array([[7.0, -3.0, 2.0]]))
    # hidden is gelu(0) = 0, so the output is just the final bias
    np.testing.assert_allclose(out, [[0.5, -1.5]])


def test_forward_identity_layer():
    net = linear_net(np.eye(2))
    np.testing.assert_allclose(nets.forward(net, [[1.0, 2.0]]), [[1.0, 2.0]])


def test_forward_matches_hand_evaluation_2_2_1():
    # 2-2-1 GELU net evaluated layer by layer by hand
    w0 = np.array([[0.3, -0.2], [0.1, 0.5]])
    b0 = np.array([0.05, -0.1])
    w1 = np.array([[1.5], [-0.7]])
    b1 = np.array([0.2])
    net = nets.DenseNet([2, 2, 1], [w0, w1], [b0, b1])
    x = np.array([[0.4, -1.2]])
    z = x @ w0 + b0
    h = 0.5 * z * (1.0 + erf(z / np.sqrt(2.0)))
    expected = h @ w1 + b1
    np.testing.assert_allclose(nets.forward(net, x), expected, rtol=1e-15)


@pytest.mark.parametrize("with_grad", [False, True])
def test_gelu_bits_are_the_plain_formulas(with_grad):
    # the kernel takes erf of |z|/sqrt2 and copies the sign back; the plain formulas take
    # erf of the signed argument, with the kernel's constants and operation order
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, np.nextafter(1.0, 0.0),
             np.nextafter(1.0, 2.0), 6.0, 27.0, 1e308, np.inf]
    z = np.array(edges + [-x for x in edges])
    c, c_pi = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0 * np.pi)
    with np.errstate(invalid="ignore", over="ignore"):
        value, derivative = nets._gelu(z.copy(), with_grad)
        plain = 0.5 * z * (1.0 + erf(z * c))
        plain_derivative = 0.5 * (1.0 + erf(z * c)) + np.exp(-0.5 * z * z) * c_pi * z
    assert value.view(np.int64).tolist() == plain.view(np.int64).tolist()
    if with_grad:
        assert derivative.view(np.int64).tolist() == plain_derivative.view(np.int64).tolist()
    else:
        assert derivative is None


def test_erf_is_odd_bit_for_bit():
    # what `_gelu` relies on: scipy computes erf of a negative argument as -erf(-x)
    rng = np.random.default_rng(27)
    n = 250_000
    x = np.concatenate([
        rng.normal(0.0, 0.6, n),
        rng.uniform(-30.0, 30.0, n),
        rng.normal(0.0, 4.0, n),
        np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n)),
    ])
    assert (nets.erf(-x).view(np.int64) == (-nets.erf(x)).view(np.int64)).all()


def test_forward_rejects_dimension_mismatch():
    net = nets.DenseNet.create([3, 2], rng=0)
    with pytest.raises(ValueError, match=r"\(B, 3\)"):
        nets.forward(net, np.zeros((1, 4)))


def test_forward_is_pure():
    net = nets.DenseNet.create([3, 8, 2], rng=1)
    x = np.array([[0.1, 0.2, 0.3]])
    before = [w.copy() for w in net.weights]
    a = nets.forward(net, x)
    b = nets.forward(net, x)
    np.testing.assert_array_equal(a, b)
    for w0, w1 in zip(before, net.weights):
        np.testing.assert_array_equal(w0, w1)


def test_backward_linear_input_gradient_is_weight_row():
    w = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])  # 2 inputs -> 3 outputs
    net = linear_net(w)
    tape = vjp(net, np.array([[0.3, 0.7]]), np.array([[1.0, 0.0, 0.0]]))
    # gradient of output 0 w.r.t. the input: the weights feeding output 0
    np.testing.assert_allclose(tape.d_input, [w[:, 0]])


def test_backward_zero_upstream_gives_zero_tape():
    net = nets.DenseNet.create([3, 6, 2], rng=2)
    tape = vjp(net, np.array([[0.5, -0.5, 1.0]]), np.zeros((1, 2)))
    assert all(np.all(g == 0) for g in tape.d_weights + tape.d_biases)
    assert np.all(tape.d_input == 0)


@pytest.mark.parametrize("sizes", [[3, 5, 2], [2, 8, 8, 1], [4, 6, 3], [1, 4, 4, 2]])
def test_backward_matches_finite_differences(sizes):
    rng = np.random.default_rng(42)
    net = nets.DenseNet.create(sizes, rng=rng)
    x = rng.standard_normal((1, sizes[0]))
    upstream = rng.standard_normal((1, sizes[-1]))
    tape = vjp(net, x, upstream)

    def scalar(xv):
        return float(np.sum(upstream * nets.forward(net, xv)))

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
    batched = vjp(net, xs, ups)
    singles = [vjp(net, xs[i:i + 1], ups[i:i + 1]) for i in range(4)]
    for k in range(len(net.weights)):
        np.testing.assert_allclose(
            batched.d_weights[k], sum(t.d_weights[k] for t in singles), rtol=1e-12)
    for i in range(4):
        np.testing.assert_allclose(batched.d_input[i], singles[i].d_input[0], rtol=1e-12)


def test_backward_refuses_a_cache_of_another_pass():
    net = nets.DenseNet.create([3, 5, 2], rng=3)
    cache = []
    nets.forward(net, np.zeros((4, 3)), cache)
    with pytest.raises(ValueError, match="upstream holds 3 rows, the cached pass 4"):
        nets.backward(net, np.ones((3, 2)), cache)
    deeper = nets.DenseNet.create([3, 5, 5, 2], rng=3)
    with pytest.raises(ValueError, match="cache holds 2 layers, the net has 3"):
        nets.backward(deeper, np.ones((4, 2)), cache)


def test_adam_zero_gradient_leaves_parameters():
    net = nets.DenseNet.create([2, 3, 1], rng=4)
    before = [w.copy() for w in net.weights]
    tape = vjp(net, np.zeros((1, 2)), np.zeros((1, 1)))
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
    expected_two = after_one - scale * m2 / (np.sqrt(v2) + nets.ADAM_EPS)
    assert abs(after_two - expected_two) < 1e-12
    assert abs(after_two - 1.0) < abs(after_one - 1.0)  # moved back toward start
    assert abs(after_two - 1.0) <= lr  # within learning-rate scale


@pytest.mark.parametrize("make_state", [
    lambda net: nets.AdamState(learning_rate=0.1),  # no moments, as the dataclass default
    lambda net: nets.AdamState.for_net(nets.DenseNet.create([2, 3, 2], rng=1), 0.1),
])
def test_adam_refuses_moments_that_do_not_match_the_net(make_state):
    net = nets.DenseNet.create([2, 2], rng=0)
    state = make_state(net)
    tape = vjp(net, np.ones((1, 2)), np.ones((1, 2)))
    before = [p.copy() for p in net.parameters()]
    with pytest.raises(ValueError, match="Adam moment m shapes"):
        nets.adam_step(net, tape, state)
    for p0, p1 in zip(before, net.parameters()):
        np.testing.assert_array_equal(p0, p1)
    assert state.step == 0


def test_adam_rejects_shape_mismatch():
    net = nets.DenseNet.create([2, 2], rng=0)
    state = nets.AdamState.for_net(net)
    before = [p.copy() for p in net.parameters()]
    for bad in (nets.GradientTape([np.zeros((3, 3))], [np.zeros(2)], np.zeros(2)),  # wrong shape
                nets.GradientTape([np.zeros((2, 2))], [], np.zeros(2))):  # bias gradient missing
        with pytest.raises(ValueError, match="gradient shapes"):
            nets.adam_step(net, bad, state)
    for p0, p1 in zip(before, net.parameters()):
        np.testing.assert_array_equal(p0, p1)
    assert state.step == 0


def test_parameters_stay_finite_over_noisy_updates():
    rng = np.random.default_rng(5)
    net = nets.DenseNet.create([3, 16, 2], rng=rng)
    state = nets.AdamState.for_net(net, learning_rate=1e-3)
    for _ in range(50):
        x = rng.standard_normal((8, 3))
        up = rng.standard_normal((8, 2))
        tape = vjp(net, x, up)
        nets.clip_gradients(tape, 5.0)
        nets.adam_step(net, tape, state)
    assert all(np.isfinite(w).all() for w in net.weights)
    assert all(np.isfinite(b).all() for b in net.biases)


def test_clip_gradients_rescales_to_max_norm():
    tape = nets.GradientTape([np.array([[3.0, 4.0]])], [np.zeros(2)], np.zeros(1))
    norm = nets.clip_gradients(tape, 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.linalg.norm(tape.d_weights[0]) - 1.0) < 1e-12


@pytest.mark.parametrize("max_norm", [0.0, -1.0, np.nan])
def test_clip_gradients_refuses_a_max_norm_that_is_not_positive(max_norm):
    tape = nets.GradientTape([np.array([[3.0, 4.0]])], [np.zeros(2)], np.zeros(1))
    with pytest.raises(ValueError, match="max_norm"):
        nets.clip_gradients(tape, max_norm)
    np.testing.assert_array_equal(tape.d_weights[0], [[3.0, 4.0]])


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
    nets.adam_step(net, vjp(net, rng.standard_normal((5, 3)), rng.standard_normal((5, 2))),
                   state)
    tape = vjp(net, rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    tape.d_weights[1][0, 0] = np.inf  # a later layer: weights[0] would already be updated

    def snapshot():
        arrays = net.parameters() + state.m + state.v
        return [a.tobytes() for a in arrays], state.step

    before = snapshot()
    with pytest.raises(NumericError):
        nets.adam_step(net, tape, state)
    assert snapshot() == before


def test_checkpoint_roundtrip():
    net = nets.DenseNet.create([3, 8, 2], rng=6)
    loaded = nets.DenseNet.from_dict(json.loads(json.dumps(net_to_dict(net))))
    assert loaded.layer_sizes == net.layer_sizes
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        np.testing.assert_array_equal(a, b)
    x = np.array([[0.1, -0.2, 0.3]])
    np.testing.assert_array_equal(nets.forward(net, x), nets.forward(loaded, x))


@pytest.mark.parametrize("sizes", [[2, 2], [3, 64, 64, 2], [5, 100, 100, 1]])
def test_write_json_matches_json_dump_of_the_dict(sizes):
    # (64, 64) holds exactly one slice of weights, (100, 100) two full slices and a partial one
    net = nets.DenseNet.create(sizes, rng=len(sizes))
    net.biases[-1] += 0.1  # non-zero biases, so their text is exercised too
    buf = io.StringIO()
    nets.write_json(buf, net.to_dict())
    assert buf.getvalue() == json.dumps(net_to_dict(net))
    loaded = nets.DenseNet.from_dict(json.loads(buf.getvalue()))
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert a.tobytes() == b.tobytes()


def test_from_dict_of_to_dict_is_an_independent_copy():
    net = nets.DenseNet.create([3, 8, 2], rng=5)
    copy = nets.DenseNet.from_dict(net.to_dict())
    assert copy.layer_sizes == net.layer_sizes
    assert [p.tobytes() for p in copy.parameters()] == [p.tobytes() for p in net.parameters()]
    assert not any(np.shares_memory(a, b) for a in copy.parameters() for b in net.parameters())


@pytest.mark.parametrize("sizes, n_weights, n_biases", [
    ([3, 8, 2], 1, 1),  # `zip` would stop at the one layer given
    ([3, 8, 2], 2, 1),
    ([3, 8, 2], 1, 2),
    ([3, 8], 2, 2),
    ([3], 0, 0),
])
def test_dense_net_refuses_a_parameter_count_that_does_not_match_its_layers(sizes, n_weights,
                                                                             n_biases):
    shapes = [(3, 8), (8, 2)]
    with pytest.raises(ValueError, match="weights and"):
        nets.DenseNet(sizes, [np.zeros(s) for s in shapes[:n_weights]],
                      [np.zeros(s[1]) for s in shapes[:n_biases]])


@pytest.mark.parametrize("entry", [
    lambda w: w.T.tolist(),  # a nested list of the transposed matrix
    lambda w: w.T.copy(),
    lambda w: w.ravel()[:-1].tolist(),
    lambda w: w.reshape(24, 1),
    lambda w: w.reshape(2, 12).tolist(),
])
def test_from_dict_refuses_a_weight_entry_of_another_shape(entry):
    net = nets.DenseNet.create([3, 8, 2], rng=0)
    data = net.to_dict()
    data["weights"] = [entry(net.weights[0]), net.weights[1]]
    with pytest.raises(ValueError, match="layer 0"):
        nets.DenseNet.from_dict(data)


def test_from_dict_reads_a_weight_entry_given_as_its_nested_matrix():
    # the flat lists `write_json` writes and `to_dict`'s arrays load in the round-trip tests
    net = nets.DenseNet.create([3, 8, 2], rng=0)
    loaded = nets.DenseNet.from_dict({**net.to_dict(), "weights": [w.tolist() for w in net.weights]})
    assert [w.tobytes() for w in loaded.weights] == [w.tobytes() for w in net.weights]


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


def run_python(code):
    """Run `code` in a fresh interpreter that imports fisherflow from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first, second", [("from fisherflow import nets", "import scipy.special"),
                                           ("import scipy.special", "from fisherflow import nets")])
def test_gelu_erf_is_scipys_ufunc_in_either_import_order(first, second):
    run_python(f"{first}\n{second}\nassert nets.erf is scipy.special.erf\n")


def test_erf_falls_back_to_the_package_import(monkeypatch):
    import scipy.special
    # a scipy build without the extension module: the search finds nothing
    monkeypatch.setattr(nets, "_ERF_MODULE", "scipy.special._no_such_module")
    assert nets._load_erf() is scipy.special.erf
    assert "scipy.special._no_such_module" not in sys.modules


@pytest.mark.parametrize("edit", [
    lambda data: [],
    lambda data: {k: v for k, v in data.items() if k != "weights"},
    lambda data: {**data, "layer_sizes": [3, 8]},  # two layers of parameters for one
    lambda data: {**data, "layer_sizes": [3, 9, 2]},  # weights that do not chain
    lambda data: {**data, "layer_sizes": [3, 8.0, 2]},
    lambda data: {**data, "biases": data["biases"][:1]},
    lambda data: {**data, "weights": [{}, {}]},
    lambda data: {**data, "activation": ["gelu"]},
    lambda data: {**data, "activation": "relu"},  # GELU is the one activation
    lambda data: {**data, "biases": [data["biases"][0], [float("nan"), 0.0]]},
    lambda data: {**data, "weights": [[float("inf")] * 24, data["weights"][1]]},
])
def test_malformed_net_entry_is_a_value_error(edit):
    data = json.loads(json.dumps(net_to_dict(nets.DenseNet.create([3, 8, 2], rng=0))))
    with pytest.raises(ValueError):
        nets.DenseNet.from_dict(edit(data))
