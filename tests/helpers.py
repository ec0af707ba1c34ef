"""Shared finite-difference oracles for the test suite."""

import numpy as np


def fd_gradient(f, x, step=1e-4):
    """Central-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = step
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def fd_array_gradient(f, arr, step=1e-4):
    """Central differences of scalar f w.r.t. every entry of an array."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + step
        hi = f()
        arr[idx] = old - step
        lo = f()
        arr[idx] = old
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def rel_error(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    scale = np.maximum(scale, floor)
    return float(np.max(np.abs(a - b) / scale))

