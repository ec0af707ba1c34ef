"""Dense networks with hand-rolled reverse-mode gradients and Adam.

Everything here is plain float64 numpy. Networks are value-like: `clone()`
gives an independent copy, and the output of `forward` depends only on
(parameters, input). Inputs may be a single vector ``(in,)`` or a batch
``(B, in)``; parameter gradients are summed over the batch, so callers that
want a mean-reduced loss fold the ``1/B`` factor into ``upstream``.

Gradients take a single pass. Given an empty list as `cache`, `forward`
fills it with one (layer input, activation derivative) pair per layer, the
derivative computed from values the forward already holds (for the GELU,
from the erf of its own value); the output layer is linear and stores None.
`backward` consumes that cache and runs no forward of its own; without one,
it runs `forward` itself.

The kernels work in place, but only on arrays the layer itself created: the
bias is added into the fresh matmul product, an activation overwrites the
pre-activation it is given (after building its derivative from it), and
backward scales the fresh `delta @ W.T` by the cached derivative. Nothing
the caller passes (input, upstream gradient, parameters, cache) is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import NumericError

CHECKPOINT_FORMAT_VERSION = 1
# parameters per json.dumps call when a net is written (DenseNet.write_json)
JSON_SLICE_VALUES = 4096

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# Each activation maps a fresh pre-activation z to (value, derivative at z),
# the derivative only when asked for and otherwise None. The value is written
# into z, so z is the returned value and the caller must own it.


def _gelu(z, with_grad):
    e = np.multiply(z, _INV_SQRT2)
    erf(e, out=e)
    e += 1.0  # 2 Phi(z)
    if with_grad:
        # d/dz z Phi(z) = Phi(z) + z phi(z): z phi(z) here, Phi(z) from e once the value is out
        z_phi = np.multiply(z, -0.5)
        z_phi *= z
        np.exp(z_phi, out=z_phi)
        z_phi *= _INV_SQRT2PI
        z_phi *= z
    z *= 0.5
    z *= e
    if not with_grad:
        return z, None
    e *= 0.5
    e += z_phi
    return z, e


def _relu(z, with_grad):
    grad = (z > 0.0).astype(np.float64) if with_grad else None
    return np.maximum(z, 0.0, out=z), grad


def _tanh(z, with_grad):
    np.tanh(z, out=z)
    return z, (1.0 - z**2 if with_grad else None)


_ACTIVATIONS = {"gelu": _gelu, "relu": _relu, "tanh": _tanh}


@dataclass
class DenseNet:
    """MLP with hidden activations and a linear output layer.

    weights[k] has shape (layer_sizes[k], layer_sizes[k+1]); the activation is
    applied after every layer except the last.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "gelu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(n <= 0 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_sizes[k], self.layer_sizes[k + 1])
            if w.shape != want or b.shape != (want[1],):
                raise ValueError(f"layer {k}: parameter shapes {w.shape}/{b.shape} do not chain {want}")

    @classmethod
    def create(cls, layer_sizes, activation="gelu", rng=None):
        """Seedable init: W ~ U(+-1/sqrt(fan_in)), zero biases."""
        rng = np.random.default_rng(rng)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(list(layer_sizes), weights, biases, activation)

    @property
    def in_size(self):
        return self.layer_sizes[0]

    @property
    def out_size(self):
        return self.layer_sizes[-1]

    def clone(self):
        return DenseNet(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )

    def parameters(self):
        return list(self.weights) + list(self.biases)

    def write_json(self, fh):
        """Write this net to text file `fh` as the JSON object `from_dict` reads.

        The keys are format_version, layer_sizes, activation, weights (each
        matrix flattened in C order) and biases, with `json.dump`'s default
        separators, so the bytes are those of `json.dump` of that dict. The
        parameters go through `json.dumps` in slices of `JSON_SLICE_VALUES`,
        so at most one slice is held as Python floats and text at a time.
        """
        fh.write(f'{{"format_version": {CHECKPOINT_FORMAT_VERSION}, '
                 f'"layer_sizes": {json.dumps(list(self.layer_sizes))}, '
                 f'"activation": {json.dumps(self.activation)}, "weights": ')
        _write_json_arrays(fh, [w.ravel(order="C") for w in self.weights])
        fh.write(', "biases": ')
        _write_json_arrays(fh, self.biases)
        fh.write("}")

    @classmethod
    def from_dict(cls, data):
        version = data.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version: {version!r}")
        sizes = list(data["layer_sizes"])
        weights = [
            np.asarray(flat, dtype=np.float64).reshape(sizes[k], sizes[k + 1])
            for k, flat in enumerate(data["weights"])
        ]
        biases = [np.asarray(b, dtype=np.float64) for b in data["biases"]]
        return cls(sizes, weights, biases, data["activation"])


def _write_json_arrays(fh, arrays):
    """A JSON list holding one list per 1-D array, in `JSON_SLICE_VALUES`-value slices."""
    fh.write("[")
    for k, a in enumerate(arrays):
        fh.write(", [" if k else "[")
        for i in range(0, a.size, JSON_SLICE_VALUES):
            if i:
                fh.write(", ")
            fh.write(json.dumps(a[i:i + JSON_SLICE_VALUES].tolist())[1:-1])
        fh.write("]")
    fh.write("]")


@dataclass
class GradientTape:
    """Parameter gradients mirroring DenseNet shapes plus the input gradient."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_input: np.ndarray


def forward(net: DenseNet, x, cache=None) -> np.ndarray:
    """Evaluate the network on a vector (in,) or batch (B, in).

    When `cache` is given (an empty list), it receives one (layer input,
    activation derivative) pair per layer for `backward` to consume.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.in_size:
        raise ValueError(f"input size {x.shape[-1]} != expected {net.in_size}")
    act = _ACTIVATIONS[net.activation]
    with_grad = cache is not None
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        layer_input = h if with_grad else None
        # rebinding h frees the layer input before the activation runs, unless it is cached
        h = h @ w
        h += b
        grad = None
        if k != last:
            h, grad = act(h, with_grad)
        if with_grad:
            cache.append((layer_input, grad))
    return h


def backward(net: DenseNet, x, upstream, cache=None) -> GradientTape:
    """Vector-Jacobian product: gradients of <upstream, net(x)> in params and x.

    `cache` is the list a `forward(net, x, cache)` call filled; without one,
    backward runs that forward itself.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    ub = upstream[None, :] if single else upstream
    if ub.shape != (xb.shape[0], net.out_size):
        raise ValueError(f"upstream shape {upstream.shape} does not match output size {net.out_size}")
    if cache is None:
        cache = []
        forward(net, xb, cache)
    elif len(cache) != len(net.weights):
        raise ValueError(f"cache holds {len(cache)} layers, the net has {len(net.weights)}")

    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    delta = ub
    for k in range(len(cache) - 1, -1, -1):
        d_weights[k] = np.atleast_2d(cache[k][0]).T @ delta
        d_biases[k] = delta.sum(axis=0)
        delta = delta @ net.weights[k].T
        if k > 0:
            delta *= cache[k - 1][1]
    if not np.isfinite(delta).all():
        raise NumericError("non-finite intermediate in backward pass")
    d_input = delta[0] if single else delta
    return GradientTape(d_weights, d_biases, d_input)


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment state for one DenseNet."""

    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate=3e-4):
        return cls(
            learning_rate=learning_rate,
            m_w=[np.zeros_like(w) for w in net.weights],
            v_w=[np.zeros_like(w) for w in net.weights],
            m_b=[np.zeros_like(b) for b in net.biases],
            v_b=[np.zeros_like(b) for b in net.biases],
        )


def adam_step(net: DenseNet, tape: GradientTape, state: AdamState):
    """One Adam update of the net and the state, in place.

    Atomic: every new moment and parameter is computed and checked before
    any is written, so a raise leaves the net and the state untouched.
    """
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    scale = state.learning_rate * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    updates = []
    for params, grads, ms, vs in (
        (net.weights, tape.d_weights, state.m_w, state.v_w),
        (net.biases, tape.d_biases, state.m_b, state.v_b),
    ):
        for p, g, m, v in zip(params, grads, ms, vs):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            with np.errstate(invalid="ignore", over="ignore"):
                m_new = m * b1 + (1.0 - b1) * g
                v_new = v * b2 + (1.0 - b2) * g * g
                p_new = p - scale * m_new / (np.sqrt(v_new) + state.eps)
            if not np.isfinite(p_new).all():
                raise NumericError("non-finite parameter after optimizer step")
            updates += [(m, m_new), (v, v_new), (p, p_new)]
    for old, new in updates:
        old[...] = new
    state.step = t


def clip_gradients(tape: GradientTape, max_norm: float) -> float:
    """Global-norm gradient clipping in place; returns the pre-clip norm."""
    sq = sum(float(np.sum(g * g)) for g in tape.d_weights + tape.d_biases)
    norm = np.sqrt(sq)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in tape.d_weights + tape.d_biases:
            g *= factor
    return norm
