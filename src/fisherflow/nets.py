"""Dense networks with hand-rolled reverse-mode gradients and Adam.

Everything here is plain float64 numpy. Networks are value-like: `clone()`
and `from_dict(net.to_dict())` copy a net, and `forward`'s output depends
only on (parameters, input). Inputs are ``(B, in)`` batches, one point
being a batch of one; parameter gradients are summed over the batch, so
callers that want a mean-reduced loss fold ``1/B`` into ``upstream``.

Gradients take a single pass. Given an empty list as `cache`, `forward`
fills it with one (layer input, activation derivative) pair per layer, the
derivative computed from values the forward already holds (for the GELU,
from the erf of its own value); the output layer is linear and stores None.
`backward` takes the upstream gradient and that cache, the pass it
continues, and runs no forward of its own.

The kernels work in place, but only on arrays the layer itself created: the
bias is added into the fresh matmul product, the GELU overwrites the
pre-activation it is given (after building its derivative from it), and
backward scales the fresh `delta @ W.T` by the cached derivative. Nothing
the caller passes (input, upstream gradient, parameters, cache) is written.

The GELU takes scipy's `erf` of |z|/sqrt(2) and copies z's sign back onto
it. scipy computes erf of a negative argument as -erf(-x), so the bits are
those of erf(z/sqrt(2)); on |z| the sign branch at the top of scipy's erf
always goes one way instead of mispredicting on about half the elements.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

# the scipy extension module that holds the `erf` ufunc
_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf():
    """scipy's `erf` ufunc, loaded from its extension module `_ERF_MODULE` alone.

    Importing the `scipy.special` package costs a fresh process about 0.35 s
    and 18 MB. The extension is loaded from its file instead and registered
    in `sys.modules` under its own name, so a later `import scipy.special`
    reuses it and `scipy.special.erf` is this very ufunc. A scipy build
    without that module (or without `erf` in it) gets the package import.
    """
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        import scipy

        folder = os.path.join(os.path.dirname(scipy.__file__), "special")
        spec = importlib.machinery.PathFinder.find_spec(_ERF_MODULE, [folder])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_ERF_MODULE] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_ERF_MODULE]
                raise
    if module is None or not hasattr(module, "erf"):
        from scipy.special import erf
        return erf
    return module.erf


erf = _load_erf()

CHECKPOINT_FORMAT_VERSION = 1
# array values per json.dumps call in `write_json`, the one JSON writer (checkpoints)
JSON_SLICE_VALUES = 4096

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# the one hidden activation; checkpoints name it in each net's "activation" key
ACTIVATION = "gelu"


def _gelu(z, with_grad):
    """(GELU of z, its derivative at z or None), the value written into z, which the caller owns."""
    # erf(|z|/sqrt2) with z's sign copied back has the bits of erf(z/sqrt2), since scipy
    # computes erf(x < 0) as -erf(-x); on |z| its sign branch no longer mispredicts
    e = np.multiply(z, _INV_SQRT2)
    np.abs(e, out=e)
    erf(e, out=e)
    np.copysign(e, z, out=e)
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


@dataclass
class DenseNet:
    """MLP with GELU hidden activations and a linear output layer.

    weights[k] has shape (layer_sizes[k], layer_sizes[k+1]); the GELU is
    applied after every layer except the last.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if any(n <= 0 for n in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if not len(self.layer_sizes) - 1 == len(self.weights) == len(self.biases) >= 1:
            raise ValueError(f"{len(self.weights)} weights and {len(self.biases)} biases "
                             f"for layer sizes {list(self.layer_sizes)}")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_sizes[k], self.layer_sizes[k + 1])
            if w.shape != want or b.shape != (want[1],):
                raise ValueError(f"layer {k}: parameter shapes {w.shape}/{b.shape} do not chain {want}")

    @classmethod
    def create(cls, layer_sizes, rng=None):
        """Seedable init: W ~ U(+-1/sqrt(fan_in)), zero biases."""
        rng = np.random.default_rng(rng)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(list(layer_sizes), weights, biases)

    @property
    def in_size(self):
        return self.layer_sizes[0]

    @property
    def out_size(self):
        return self.layer_sizes[-1]

    def clone(self):
        return DenseNet(list(self.layer_sizes), [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])

    def parameters(self):
        return list(self.weights) + list(self.biases)

    def to_dict(self):
        """The object `from_dict` reads, holding this net's own arrays for `write_json`."""
        return dict(format_version=CHECKPOINT_FORMAT_VERSION, layer_sizes=list(self.layer_sizes),
                    activation=ACTIVATION, weights=list(self.weights), biases=list(self.biases))

    @classmethod
    def from_dict(cls, data):
        """The net of a `to_dict` object, parsed from JSON or not; its arrays are copies.

        Anything but an object of the current format version with
        layer_sizes, activation `ACTIVATION`, and finite weights and biases
        whose shapes chain is a ValueError. A weight entry is its layer's
        (n, m) matrix or that matrix's n*m values as one flat list, the form
        `write_json` writes; any other shape (a transposed matrix too) is
        refused, not reshaped.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a net is a JSON object, got {type(data).__name__}")
        version = data.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version: {version!r}")
        missing = [key for key in ("layer_sizes", "activation", "weights", "biases")
                   if key not in data]
        if missing:
            raise ValueError(f"a net lacks {', '.join(missing)}")
        if data["activation"] != ACTIVATION:
            raise ValueError(f"a net's activation is {ACTIVATION!r}, got {data['activation']!r}")
        try:
            sizes = [operator.index(n) for n in data["layer_sizes"]]
            weights = [np.array(w, dtype=np.float64) for w in data["weights"]]
            biases = [np.array(b, dtype=np.float64) for b in data["biases"]]
        except TypeError as exc:
            raise ValueError(f"malformed net: {exc}") from exc
        for k, (w, n, m) in enumerate(zip(weights, sizes[:-1], sizes[1:])):
            if w.shape == (n * m,):
                weights[k] = w.reshape(n, m)
        if not all(np.isfinite(p).all() for p in weights + biases):
            raise ValueError("a net's parameters must be finite")
        return cls(sizes, weights, biases)


def write_json(fh, obj):
    """Write the bytes of `json.dump(obj, fh)`, each numpy array `a` as `a.ravel().tolist()`.

    Dicts, lists and tuples are walked and all else goes to `json.dumps`.
    An array goes through `json.dumps` in `JSON_SLICE_VALUES`-value slices,
    each written before the next is made, so at most one slice is held as
    Python floats and text at a time.
    """
    if isinstance(obj, np.ndarray):
        flat = obj.ravel(order="C")
        fh.write("[")
        for i in range(0, flat.size, JSON_SLICE_VALUES):
            fh.write((", " if i else "") + json.dumps(flat[i:i + JSON_SLICE_VALUES].tolist())[1:-1])
        fh.write("]")
    elif isinstance(obj, dict):
        fh.write("{")
        for k, (key, value) in enumerate(obj.items()):
            # a one-entry dict renders the key as json.dump does, a non-str key too
            fh.write((", " if k else "") + json.dumps({key: None})[1:-len(": null}")] + ": ")
            write_json(fh, value)
        fh.write("}")
    elif isinstance(obj, (list, tuple)):
        fh.write("[")
        for k, value in enumerate(obj):
            fh.write(", " if k else "")
            write_json(fh, value)
        fh.write("]")
    else:
        fh.write(json.dumps(obj))


@dataclass
class GradientTape:
    """`backward`'s result: parameter gradients in DenseNet shapes, and the gradient in x."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_input: np.ndarray


def as_batch(x, size, what="points"):
    """`x` as a float64 (B, size) batch; any other shape is a ValueError naming (B, size)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != size:
        raise ValueError(f"{what} must be a (B, {size}) batch, got shape {x.shape}")
    return x


def forward(net: DenseNet, x, cache=None) -> np.ndarray:
    """Evaluate the network on a batch (B, in); returns (B, out).

    When `cache` is given (an empty list), it receives one (layer input,
    activation derivative) pair per layer for `backward` to consume.
    """
    x = as_batch(x, net.in_size, "input")
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
            h, grad = _gelu(h, with_grad)
        if with_grad:
            cache.append((layer_input, grad))
    return h


def backward(net: DenseNet, upstream, cache) -> GradientTape:
    """Gradients of <upstream (B, out), net(x)> in params and x, for a cached pass.

    `cache` is the list `forward(net, x, cache)` filled; `upstream` has a row per row of x.
    """
    upstream = as_batch(upstream, net.out_size, "upstream")
    if len(cache) != len(net.weights):
        raise ValueError(f"cache holds {len(cache)} layers, the net has {len(net.weights)}")
    if (rows := cache[0][0].shape[0]) != upstream.shape[0]:
        raise ValueError(f"upstream holds {upstream.shape[0]} rows, the cached pass {rows}")

    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    delta = upstream
    for k in range(len(cache) - 1, -1, -1):
        d_weights[k] = cache[k][0].T @ delta
        d_biases[k] = delta.sum(axis=0)
        delta = delta @ net.weights[k].T
        if k > 0:
            delta *= cache[k - 1][1]
    if not np.isfinite(delta).all():
        raise NumericError("non-finite intermediate in backward pass")
    return GradientTape(d_weights, d_biases, delta)


# Adam's moment decay rates and the offset of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam state for one DenseNet: moments m, v in `parameters()` order."""

    learning_rate: float = 3e-4
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_net(cls, net: DenseNet, learning_rate=3e-4):
        params = net.parameters()
        return cls(learning_rate, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(net: DenseNet, tape: GradientTape, state: AdamState):
    """One Adam update of the net and the state, in place.

    Atomic: every new moment and parameter is computed and checked before
    any is written, so a raise leaves the net and the state untouched.
    """
    shapes = [p.shape for p in net.parameters()]
    for name, arrays in (("gradient", tape.d_weights + tape.d_biases), ("Adam moment m", state.m),
                         ("Adam moment v", state.v)):
        if [np.shape(x) for x in arrays] != shapes:
            raise ValueError(f"{name} shapes must equal the net's parameter shapes {shapes}")
    t = state.step + 1
    scale = state.learning_rate * np.sqrt(1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA1**t)
    updates = []
    for p, g, m, v in zip(net.parameters(), tape.d_weights + tape.d_biases, state.m, state.v):
        with np.errstate(invalid="ignore", over="ignore"):
            m_new = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
            v_new = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
            p_new = p - scale * m_new / (np.sqrt(v_new) + ADAM_EPS)
        if not np.isfinite(p_new).all():
            raise NumericError("non-finite parameter after optimizer step")
        updates += [(m, m_new), (v, v_new), (p, p_new)]
    for old, new in updates:
        old[...] = new
    state.step = t


def clip_gradients(tape: GradientTape, max_norm: float) -> float:
    """Global-norm gradient clipping to `max_norm` > 0, in place; returns the pre-clip norm."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm!r}")
    sq = sum(float(np.sum(g * g)) for g in tape.d_weights + tape.d_biases)
    norm = np.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        for g in tape.d_weights + tape.d_biases:
            g *= factor
    return norm
