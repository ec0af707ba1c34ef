"""Property tests for equivalences the library relies on.

Each one pins a merged or simplified path to the form it replaced, inlined
here or kept in helpers.py as the reference.
"""

import io
import json
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq
from scipy.special import erf, logsumexp

from fisherflow import flow, nets, score, tasks, training, transport, validate
from fisherflow.config import RunConfig, parse_config_text
from fisherflow.densities import GaussianMixture
from fisherflow.errors import ConvergenceError, NumericError

from helpers import (AdamReference, dense_metric_reference, density_hessian_ratio_reference,
                     fd_divergence, invert_map_reference, log_density_hessian_reference,
                     responsibilities_reference, vjp)

finite = st.floats(allow_nan=False, allow_infinity=False)


# --- isotropic penalty -------------------------------------------------------

class FixedDisplacement:
    """A stand-in transport map: its residual is `delta` everywhere, its gradient tape zero."""

    def __init__(self, delta):
        self.delta, self.action_dim = delta, delta.shape[1]
        self.residual_net = nets.DenseNet.create([1, 1], rng=0)

    def residual(self, s, a, saved=None):
        return self.delta

    def residual_backward(self, upstream, saved):
        return nets.GradientTape([np.zeros((1, 1))], [np.zeros(1)], None), None


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=finite))
@example(np.array([[-0.0, 1.0], [-0.0, -0.0], [0.0, -0.0], [-2.0, 0.0]]))
def test_isotropic_penalty_is_half_squared_norm_bit_for_bit(delta):
    # the isotropic arm (scores=None) through actor_update's one penalty call
    tmap, penalties = FixedDisplacement(delta), []

    def recording(*args):
        penalties.append(real_penalty(*args))
        return penalties[-1]

    def zero_q(s, a):
        return np.zeros(len(a)), np.zeros_like(a)

    real_penalty = training.fisher_penalty_batch
    adam = nets.AdamState.for_net(tmap.residual_net)
    with np.errstate(over="ignore"), mock.patch.object(training, "fisher_penalty_batch",
                                                       recording):
        stats = training.actor_update(tmap, zero_q, None, training.DualState(),
                                      np.zeros((len(delta), 0)), np.zeros_like(delta), adam)
        # the L2 arm as a formula: 0.5 |delta|^2 with gradient delta
        expected = 0.5 * np.sum(delta * delta, axis=1)
    [(values, grads)] = penalties
    assert values.tobytes() == expected.tobytes()
    assert grads.tobytes() == delta.tobytes()
    assert stats.constraint == float(expected.mean())


# --- factored Fisher metric ----------------------------------------------------

def _sherman_morrison_reference(s, c, mu, g):
    x = g / mu
    if c != 0.0:
        denom = mu * (mu + c * float(s @ s))
        x = x - (c * float(s @ g) / denom) * s
    return x


def _solves(s, c, mu, x, g):
    """Whether x passes the 1e-8 max(|g|, |M| |x|) residual bound, |M| = c |s|^2 + mu, with
    M x = c (s . x) s + mu x as the penalty kernel forms it."""
    mx = (c * np.sum(s * x, axis=1))[:, None] * s + mu * x
    size = max(float(np.linalg.norm(g)), float(np.linalg.norm((c * float(np.sum(s * s)) + mu) * x)))
    return size < np.inf and bool(np.linalg.norm(mx - g) <= 1e-8 * max(size, 1e-300))


coordinate = st.floats(-3.0, 3.0)


def _metric_case(d):
    vector = arrays(np.float64, d, elements=coordinate)
    row = st.one_of(vector, st.just(np.zeros(d)),
                    arrays(np.float64, d, elements=st.floats(-1e-13, 1e-13)))  # |s|^2 <= 1e-24
    return st.tuples(row, vector, vector, vector)


@settings(max_examples=300, deadline=None)
@given(case=st.integers(1, 4).flatmap(_metric_case), normalize=st.booleans(),
       damping=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)))
# mu^2 underflows: with the rank-1 term dropped (c = 0) the correction must be
# skipped; with a zero score kept at c = 1 there is no correction to divide by
@example(case=(np.array([1e-13, 0.0]), np.ones(2), np.ones(2), np.ones(2)), normalize=True,
         damping=1e-200)
@example(case=(np.zeros(2), np.ones(2), np.ones(2), np.ones(2)), normalize=False,
         damping=1e-200)
# kappa = (|s|^2 + mu) / mu is about 4e18: the correct solution's rounding residual, 39.4, is of
# order eps |M| |x|, so a bound of 1e-8 |g| alone refused it
@example(case=(np.array([0.8217701239287258, -1.3812797174167781]), np.ones(2),
               np.array([-0.40763925235760556, 0.6699686080433098]), np.ones(2)),
         normalize=False, damping=6.083492784550457e-19)
def test_factored_metric_matches_dense_forms(case, normalize, damping):
    s, delta, g, v = case
    m = dense_metric_reference(s, normalize, damping)
    values, grads = score.fisher_penalty_batch(s[None], delta[None], normalize, damping)
    assert abs(values[0] - 0.5 * float(delta @ m @ delta)) < 1e-12
    assert np.abs(grads[0] - m @ delta).max() < 1e-12

    def solve(rhs):
        return score.damped_inverse_apply(s[None], rhs[None], normalize, damping)[0]

    sq = float(s @ s)
    c = (s.shape[0] / sq if sq > 1e-24 else 0.0) if normalize else 1.0
    if damping > 0.0:
        with np.errstate(all="ignore"):
            try:
                expected = _sherman_morrison_reference(s, c, damping, g)
            except ZeroDivisionError:  # mu^2 underflows
                expected = None
            if expected is not None and _solves(s[None], c, damping, expected[None], g[None]):
                assert solve(g).tobytes() == expected.tobytes()
            else:
                with pytest.raises(NumericError):
                    solve(g)
        return
    if sq <= 1e-24:  # M = 0 (or below the threshold): nothing to invert
        with pytest.raises(NumericError, match="singular"):
            solve(g)
        return
    # inside span(s): the minimum-norm solution
    inside = (float(v @ s) / sq) * s
    x = solve(inside)
    least_norm = np.linalg.lstsq(m, inside, rcond=1e-10)[0]
    assert np.linalg.norm(x - least_norm) <= 1e-8 * np.linalg.norm(least_norm)
    # any part off span(s) is a genuine singularity
    off = g - (float(g @ s) / sq) * s
    if np.linalg.norm(off) > 1e-6 * np.linalg.norm(g):
        with pytest.raises(NumericError):
            solve(g)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), d=st.integers(1, 4),
       normalize=st.booleans(), damping=st.floats(1e-3, 1.0))
def test_damped_inverse_apply_solves_each_row_alone(seed, rows, d, normalize, damping):
    # a batch gets the bits of its rows solved as batches of one; one bad row fails it
    rng = np.random.default_rng(seed)
    s, g = rng.standard_normal((rows, d)), rng.standard_normal((rows, d))
    x = score.damped_inverse_apply(s, g, normalize, damping)
    for i in range(rows):
        alone = score.damped_inverse_apply(s[i:i + 1], g[i:i + 1], normalize, damping)
        assert alone.tobytes() == x[i:i + 1].tobytes()
    s[rng.integers(rows)] = 0.0  # undamped, a zero score is singular
    with pytest.raises(NumericError, match="singular"):
        score.damped_inverse_apply(s, g, normalize, 0.0)


# --- divergence ----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), state_dim=st.integers(0, 2))
def test_vjp_divergence_is_jacobian_trace_and_matches_fd(seed, d, state_dim):
    rng = np.random.default_rng(seed)
    policy = flow.FlowPolicy(flow.VelocityField.create(state_dim, d, hidden=(4,), rng=rng))
    tmap = transport.TransportMap.create(state_dim, d, policy, hidden=(8, 8), rng=rng)
    last = tmap.residual_net.weights[-1]
    last[:] = 0.5 * rng.standard_normal(last.shape)
    s = rng.standard_normal((1, state_dim)) if state_dim else None
    a = rng.standard_normal((1, d))
    vjp = transport.log_det_inverse_approx(tmap, s, a).divergence[0]
    assert vjp == float(np.trace(transport.displacement_jacobian(tmap, s, a)[0]))
    assert abs(vjp - fd_divergence(tmap, s, a)) < 1e-4


# --- one point shape -------------------------------------------------------------

def _batch_kernels(d):
    """Every kernel that takes points, called on `x`, for points of dimension d."""
    net = nets.DenseNet.create([d, 3, 2], rng=0)
    linear_net = nets.DenseNet.create([1, d], rng=0)
    upstream_net = nets.DenseNet.create([1, 3, d], rng=0)
    mix = GaussianMixture.single(np.zeros(d), 1.0)
    task = tasks.SyntheticTask("flat", mix, tasks.QLandscape([1.0], [np.zeros(d)], [0.5]))
    policy = flow.FlowPolicy(flow.VelocityField.create(0, d, hidden=(4,), rng=0))
    tmap = transport.TransportMap.create(0, d, policy, hidden=(4,), rng=0)
    return {
        "nets.forward": lambda x: nets.forward(net, x),
        # backward takes no points: x is its upstream, on a cached pass of len(x) rows
        "nets.backward": lambda x: vjp(linear_net, np.zeros((len(x), 1)), x).d_input,
        "nets.backward upstream": lambda x: vjp(upstream_net, np.zeros((len(x), 1)), x).d_input,
        "log_density": mix.log_density,
        "density": mix.density,
        "responsibilities": mix.responsibilities,
        "score": mix.score,
        "density_hessian_ratio": mix.density_hessian_ratio,
        "log_density_hessian": mix.log_density_hessian,
        "posterior_data_mean": lambda x: mix.posterior_data_mean(0.5, x),
        "velocity": lambda x: mix.velocity(0.5, x),
        "flow_matching_loss": lambda x: flow.flow_matching_loss(
            policy.field, None, x, np.random.default_rng(0))[1].d_input,
        "value_and_gradient": task.landscape.value_and_gradient,
        "q_value": lambda x: task.q_value(None, x),
        "displacement_jacobian": lambda x: transport.displacement_jacobian(tmap, None, x),
        "log_det_inverse_approx": lambda x: astuple(
            transport.log_det_inverse_approx(tmap, None, x)),
    }


@pytest.mark.parametrize("kernel", sorted(_batch_kernels(1)))
@pytest.mark.parametrize("d", [1, 2])
def test_point_kernels_take_only_a_batch_and_keep_a_batch_of_one(kernel, d):
    call = _batch_kernels(d)[kernel]
    bad = [np.full(d, 0.5)] + ([np.full(5, 0.5)] if d == 1 else [])  # a (d,) point; a (B,) vector
    for x in bad:
        with pytest.raises(ValueError, match=rf"\(B, {d}\) batch, got shape \({len(x)},\)"):
            call(x)
    out = call(np.full((1, d), 0.5))
    assert all(np.shape(part)[0] == 1 for part in (out if isinstance(out, tuple) else (out,)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), state_dim=st.integers(0, 2),
       rows=st.integers(1, 6))
def test_batched_displacement_jacobian_matches_rows_and_central_differences(seed, d, state_dim,
                                                                            rows):
    # not bit for bit: BLAS may pick another kernel for another row count
    rng = np.random.default_rng(seed)
    policy = flow.FlowPolicy(flow.VelocityField.create(state_dim, d, hidden=(4,), rng=rng))
    tmap = transport.TransportMap.create(state_dim, d, policy, hidden=(8, 8), rng=rng)
    last = tmap.residual_net.weights[-1]
    last[:] = 0.5 * rng.standard_normal(last.shape)
    s = rng.standard_normal((rows, state_dim)) if state_dim else None
    a = rng.standard_normal((rows, d))
    jac = transport.displacement_jacobian(tmap, s, a)
    assert jac.shape == (rows, d, d)
    for i in range(rows):
        one = transport.displacement_jacobian(tmap, None if s is None else s[i:i + 1],
                                              a[i:i + 1])
        assert np.linalg.norm(jac[i] - one[0]) <= 1e-12 * np.linalg.norm(one[0])
    h = 1e-6
    fd = np.empty_like(jac)
    for j in range(d):
        e = np.zeros_like(a)
        e[:, j] = h
        fd[:, :, j] = (tmap.residual(s, a + e) - tmap.residual(s, a - e)) / (2 * h)
    assert np.max(np.abs(jac - fd)) < 1e-6


# --- state/action input builder ---------------------------------------------------

def _match_state_reference(s, a, state_dim):
    a = np.asarray(a, dtype=np.float64)
    if s is None:
        s = np.zeros(state_dim)
    s = np.asarray(s, dtype=np.float64)
    if s.ndim == 1 and a.ndim == 2:
        s = (np.broadcast_to(s, (a.shape[0], state_dim)).copy() if state_dim
             else np.zeros((a.shape[0], 0)))
    return s


def _velocity_input_reference(t, s, a, state_dim):
    a = np.asarray(a, dtype=np.float64)
    s = _match_state_reference(s, a, state_dim)
    if a.ndim == 1:
        return np.concatenate([s, a, [float(t)]])
    return np.concatenate([s, a, np.full((a.shape[0], 1), float(t))], axis=1)


def _transport_input_reference(s, a, state_dim):
    a = np.asarray(a, dtype=np.float64)
    return np.concatenate([_match_state_reference(s, a, state_dim), a], axis=-1)


def _critic_input_reference(s, a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if s is None or np.asarray(s).shape[-1] == 0:
        return a
    s = np.asarray(s, dtype=np.float64)
    if s.ndim == 1:
        s = np.broadcast_to(s, (a.shape[0], s.shape[0]))
    return np.concatenate([s, a], axis=1)


def _same(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@given(seed=st.integers(0, 2**32 - 1), state_dim=st.integers(0, 3), d=st.integers(1, 3),
       rows=st.integers(1, 5), state=st.sampled_from(["none", "single", "batch"]),
       t=st.floats(0.0, 1.0))
def test_state_action_input_matches_former_concatenations(seed, state_dim, d, rows, state, t):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, d))
    s = {"none": None,
         "single": rng.standard_normal(state_dim),
         "batch": rng.standard_normal((rows, state_dim))}[state]
    if state == "single":  # a lone state is refused: one state is a batch of one
        with pytest.raises(ValueError, match=rf"\(B, {state_dim}\)"):
            flow.state_action_input(s, a, state_dim, t)
        return
    assert _same(flow.state_action_input(s, a, state_dim, t),
                 _velocity_input_reference(t, s, a, state_dim))
    assert _same(flow.state_action_input(s, a, state_dim),
                 _transport_input_reference(s, a, state_dim))
    if s is not None or state_dim == 0:  # the critic never ran on a missing nonempty state
        assert _same(flow.state_action_input(s, a, state_dim), _critic_input_reference(s, a))
    with pytest.raises(ValueError, match=r"\(B, d\)"):
        flow.state_action_input(s, a[0], state_dim)


# --- single-pass backward -----------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# the GELU's value and derivative, each from the pre-activation alone
def _reference_gelu(x):
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def _reference_gelu_grad(x):
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def _reference_forward(net, x):
    """Out-of-place forward: (pre-activations, layer inputs, output), every step a new array."""
    last = len(net.weights) - 1
    pre, inputs, h = [], [], x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        pre.append(z)
        h = _reference_gelu(z) if k != last else z
    return pre, inputs, h


def _two_pass_backward_reference(net, x, upstream):
    """The former backward: re-runs the forward, then evaluates each derivative (and erf) anew."""
    pre, inputs, _ = _reference_forward(net, x)
    d_weights, d_biases, delta = [], [], upstream
    for k in range(len(net.weights) - 1, -1, -1):
        d_weights.insert(0, inputs[k].T @ delta)
        d_biases.insert(0, delta.sum(axis=0))
        delta = delta @ net.weights[k].T
        if k > 0:
            delta = delta * _reference_gelu_grad(pre[k - 1])
    return d_weights + d_biases + [delta]


def _freeze(arrays):
    """Make every array read-only, so an in-place write into it raises."""
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 8), min_size=2, max_size=5),
       rows=st.integers(1, 6))
def test_cached_backward_matches_recomputed_bit_for_bit(seed, sizes, rows):
    rng = np.random.default_rng(seed)
    net = nets.DenseNet.create(sizes, rng)
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape)
    x = 2.0 * rng.standard_normal((rows, sizes[0]))
    upstream = rng.standard_normal((rows, sizes[-1]))
    _freeze([x, upstream] + net.parameters())
    pre, inputs, out = _reference_forward(net, x)
    cache = []
    assert _same(nets.forward(net, x, cache), out)
    assert _same(nets.forward(net, x), out)
    assert len(cache) == len(pre)
    for k, (layer_input, grad) in enumerate(cache):
        assert _same(layer_input, inputs[k])
        assert grad is None if k == len(pre) - 1 else _same(grad, _reference_gelu_grad(pre[k]))
        _freeze([layer_input, grad])
    reference = _two_pass_backward_reference(net, x, upstream)
    tape = nets.backward(net, upstream, cache)
    got = tape.d_weights + tape.d_biases + [tape.d_input]
    assert len(got) == len(reference)
    assert all(_same(g, r) for g, r in zip(got, reference))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       steps=st.integers(1, 6), learning_rate=st.floats(1e-5, 1.0),
       grad_scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
def test_adam_step_matches_the_two_group_update_bit_for_bit(seed, sizes, steps, learning_rate,
                                                            grad_scale):
    rng = np.random.default_rng(seed)
    net = nets.DenseNet.create(sizes, rng=rng)
    ref_net = net.clone()
    state, reference = nets.AdamState.for_net(net, learning_rate), AdamReference(net, learning_rate)
    for _ in range(steps):
        grads = [grad_scale * rng.standard_normal(p.shape) for p in net.parameters()]
        layers = len(net.weights)
        tape = nets.GradientTape(grads[:layers], grads[layers:], None)
        nets.adam_step(net, tape, state)
        reference.step_net(ref_net, tape)
        assert state.step == reference.step
        assert all(_same(p, r) for p, r in zip(net.parameters(), ref_net.parameters()))
        assert all(_same(m, r) for m, r in zip(state.m, reference.m_w + reference.m_b))
        assert all(_same(v, r) for v, r in zip(state.v, reference.v_w + reference.v_b))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), rows=st.integers(1, 6),
       spread=st.sampled_from([1.0, 1e3, 1e100]), t=st.floats(0.0, 1.0))
def test_single_component_matches_the_former_unit_responsibilities_bit_for_bit(seed, d, rows,
                                                                                spread, t):
    # a one-column log-sum-exp is the column itself, so the responsibilities are exactly 1.0
    rng = np.random.default_rng(seed)
    mix = _random_mixture(rng, 1, d)
    x = spread * rng.standard_normal((rows, d))
    _freeze([x, mix.weights, mix.means, mix.variances])
    ones = np.ones((rows, 1))
    comp = (mix.means[None, :, :] - x[:, None, :]) / mix.variances[None, :, :]
    marg = mix.marginal(t)
    cond = mix.means[None, :, :] + (t * mix.variances)[None, :, :] * (
        (x[:, None, :] - marg.means[None, :, :]) / marg.variances[None, :, :])
    expected = {"responsibilities": ones, "score": np.sum(ones[:, :, None] * comp, axis=1),
                "posterior_data_mean": np.sum(ones[:, :, None] * cond, axis=1)}
    assert _same(mix.responsibilities(x), expected["responsibilities"])
    assert _same(mix.score(x), expected["score"])
    saved = []
    mix.log_density(x, saved)
    assert _same(mix.score(x, saved), expected["score"])
    assert _same(mix.posterior_data_mean(t, x), expected["posterior_data_mean"])


def _component_log_pdf_reference(mix, x):
    diff = x[:, None, :] - mix.means[None, :, :]
    quad = np.sum(diff**2 / mix.variances[None, :, :], axis=2)
    log_norm = 0.5 * np.sum(np.log(2.0 * np.pi * mix.variances), axis=1)
    return -0.5 * quad - log_norm[None, :]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), d=st.integers(1, 3),
       rows=st.integers(1, 6))
def test_component_log_pdf_matches_out_of_place_reference_bit_for_bit(seed, k, d, rows):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, k)
    mix = GaussianMixture(weights / weights.sum(), 2.0 * rng.standard_normal((k, d)),
                          rng.uniform(0.05, 3.0, (k, d)))
    x = 3.0 * rng.standard_normal((rows, d))
    _freeze([x, mix.weights, mix.means, mix.variances])
    assert _same(mix._component_log_pdf(x), _component_log_pdf_reference(mix, x))


# --- one mixture pass, component-streamed Hessian ---------------------------------

def _random_mixture(rng, k, d):
    weights = rng.uniform(0.1, 1.0, k)
    return GaussianMixture(weights / weights.sum(), 2.0 * rng.standard_normal((k, d)),
                           rng.uniform(0.05, 3.0, (k, d)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 8, 10]), d=st.sampled_from([1, 2]),
       rows=st.integers(1, 7), spread=st.sampled_from([1.0, 30.0]))
def test_mixture_pass_and_hessian_match_out_of_place_reference_bit_for_bit(seed, k, d, rows, spread):
    # spread 30 puts points where all but one responsibility underflow to zero,
    # so signed zeros in the component terms must come out as in the reference
    rng = np.random.default_rng(seed)
    mix = _random_mixture(rng, k, d)
    x = spread * rng.standard_normal((rows, d))
    _freeze([x, mix.weights, mix.means, mix.variances])
    logp = mix._component_log_pdf(x) + np.log(mix.weights)[None, :]
    r = responsibilities_reference(mix, x)
    comp = (mix.means[None, :, :] - x[:, None, :]) / mix.variances[None, :, :]
    score = np.sum((r if k > 1 else np.ones((rows, 1)))[:, :, None] * comp, axis=1)
    expected = {"log_density": logsumexp(logp, axis=1), "responsibilities": r, "score": score,
                "density_hessian_ratio": density_hessian_ratio_reference(mix, x),
                "log_density_hessian": log_density_hessian_reference(mix, x)}
    assert _same(mix.responsibilities(x), expected["responsibilities"])
    for saved in (None, []):
        assert _same(mix.log_density(x, saved), expected["log_density"])
        if saved is not None:
            assert len(saved) == 1 and _same(saved[0], r)
            _freeze(saved)
        assert _same(mix.score(x, saved), expected["score"])
        assert _same(mix.density_hessian_ratio(x, saved), expected["density_hessian_ratio"])
        assert _same(mix.log_density_hessian(x, saved), expected["log_density_hessian"])
    saved = []
    assert _same(mix.density(x, saved), np.exp(expected["log_density"]))
    assert _same(mix.log_density_hessian(x, saved), expected["log_density_hessian"])


@pytest.mark.parametrize("k", [1, 3])
def test_saved_pass_of_another_row_count_is_rejected(k):
    mix = _random_mixture(np.random.default_rng(k), k, 2)
    saved = []
    mix.log_density(np.zeros((3, 2)), saved)
    for method in (mix.score, mix.density_hessian_ratio, mix.log_density_hessian):
        with pytest.raises(ValueError, match="3 rows"):
            method(np.zeros((4, 2)), saved)
        with pytest.raises(ValueError, match="3 rows"):
            method(np.zeros((1, 2)), saved)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), rows=st.integers(1, 40),
       max_iter=st.sampled_from([3, 12, 100]))
def test_compacted_inversion_matches_masked_reference_bit_for_bit(seed, d, rows, max_iter):
    # delta(a) = c sin(a) contracts at rate |c cos(a)|, so rows converge at different iterations
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.05, 0.7, d)
    targets = 3.0 * rng.standard_normal((rows, d))
    _freeze([c, targets])

    def recording(calls):
        def map_fn(a):
            calls.append(a.tobytes())
            return a + c * np.sin(a)
        return map_fn

    def invert_map(map_fn, targets, max_iter):
        with mock.patch.object(transport, "INVERT_MAX_ITER", max_iter):
            return transport.invert_map(map_fn, targets)

    outcomes = []
    for invert in (invert_map, invert_map_reference):
        calls = []
        try:
            outcomes.append((invert(recording(calls), targets, max_iter=max_iter).tobytes(), calls))
        except ConvergenceError as err:
            outcomes.append((re.search(r"\d+ of \d+ rows still moving", str(err)).group(), calls))
    assert outcomes[0] == outcomes[1]
    if max_iter == 100:
        assert isinstance(outcomes[0][0], bytes)


# --- config text -------------------------------------------------------------------

words = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)
paths = st.text("abc/._-0123456789", max_size=12)

# only settings RefineConfig accepts: a fisher t_eps inside (0, 1) (the isotropic arm
# ignores it), and TD mode only with a learned critic
metric_arms = st.one_of(
    st.fixed_dictionaries({"metric": st.just("fisher"),
                           "t_eps": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}),
    st.fixed_dictionaries({"metric": st.just("isotropic"), "t_eps": finite}))
critic_kinds = st.sampled_from([dict(mode="bandit", analytic_q=True),
                                dict(mode="bandit", analytic_q=False),
                                dict(mode="td", analytic_q=False)])

run_configs = st.builds(
    RunConfig, task=words, out=paths, seeds=st.lists(st.integers(-5, 2**31), max_size=4),
    data_size=st.integers(0, 10**6), data_seed=st.integers(0, 2**31),
    data_mode=st.sampled_from(["bandit", "chain"]), data_noise=finite, data_file=paths,
    sweep_t_eps=st.lists(finite, max_size=4),
    train=st.builds(
        lambda arm, kind, **kw: training.RefineConfig(**arm, **kind, **kw),
        metric_arms, critic_kinds, seed=st.integers(0, 2**31), steps=st.integers(0, 10**5),
        hidden=st.lists(st.integers(1, 512), min_size=1, max_size=3).map(tuple),
        normalize_metric=st.booleans(),
        damping=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        gamma=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0, exclude_min=True)))


@given(run_configs)
def test_run_config_text_roundtrips_bytes(cfg):
    text = cfg.to_text()
    assert RunConfig.from_entries(parse_config_text(text)).to_text() == text


# --- perturbation-rate probe ---------------------------------------------------------

def test_rate_probe_point_is_scipys_root():
    root = brentq(lambda a: validate.contraction_coefficient(validate.RATE_MIXTURE, a),
                  -0.8, -0.3, xtol=1e-13)
    assert root == validate.RATE_PROBE


def test_perturbation_rate_fails_off_the_probe(monkeypatch):
    monkeypatch.setattr(validate, "RATE_PROBE", -0.5)
    assert validate.suite_perturbation_rate().passed is False


# --- one JSON writer ---------------------------------------------------------------

SLICE = nets.JSON_SLICE_VALUES
json_floats = st.floats() | st.sampled_from([-0.0, 1e-300, float("nan"), float("inf")])
# 1-D and 2-D arrays of 0, 1, one slice and one slice plus one values, some of them transposed
json_arrays = st.builds(
    lambda a, transpose: a.T if transpose else a,
    st.sampled_from([(0,), (1,), (SLICE,), (SLICE + 1,), (0, 3), (1, 1), (2, SLICE // 2),
                     (SLICE + 1, 1), (3, 5)]).flatmap(
        lambda shape: arrays(np.float64, shape, elements=json_floats)),
    st.booleans())
json_keys = st.text() | st.integers() | st.booleans() | st.none() | json_floats
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_floats | st.text() | json_arrays,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=8)


def with_arrays_as_lists(obj):
    """`obj` with each numpy array replaced by its flat C-order list, for `json.dumps`."""
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist()
    if isinstance(obj, dict):
        return {key: with_arrays_as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [with_arrays_as_lists(value) for value in obj]
    return obj


@settings(max_examples=80, deadline=None)
@given(json_values)
@example({'say "hi"': [np.array([-0.0, 1e-300, np.nan, np.inf]), None, True, 7],
          "grüße ☃": {"": np.zeros((0, 3))}, "x": np.arange(6.0).reshape(2, 3).T,
          2: "two", None: 0.5, False: [], 1.5: {}})
def test_write_json_writes_json_dumps_with_arrays_as_flat_lists(obj):
    buf = io.StringIO()
    nets.write_json(buf, obj)
    assert buf.getvalue() == json.dumps(with_arrays_as_lists(obj))
