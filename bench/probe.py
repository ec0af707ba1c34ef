"""Machine-speed probe: a fixed numpy kernel whose time tells how fast the host runs right now.

On a small shared host the speed of a core drifts by a quarter over
seconds to minutes, as other tenants come and go. The runner times this
probe around the workload's operations and scales each operation's time
by REFERENCE_S / (probe time nearby), which states it in reference seconds:
the time the operation would take with the host at the speed it had when
the probe took REFERENCE_S. The probe never calls fisherflow, so no change
to the program moves it, and a change that makes the program slower or
faster moves the scaled times by the same share as the raw ones.

The kernel mixes the two kinds of work the workloads do: a small GELU
network step (python overhead, cache-resident arrays, as in training) and
elementwise passes over an array of grid size (memory traffic, as in the
quadrature oracles). Its arrays are allocated once, so it does not depend
on the state of the allocator.
"""

import time

import numpy as np
from scipy.special import erf

# median probe time on the machine the baseline was measured on (fingerprint
# in baseline.json); it only sets the scale of the reported times
REFERENCE_S = 0.08
SMALL_STEPS = 125
GRID_PASSES = 10


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 64))
        self.w = rng.standard_normal((64, 64)) * 0.1
        self.h = np.empty((256, 64))
        self.g = np.empty((256, 64))
        self.grid = rng.standard_normal((32761, 8))
        self.tmp = np.empty_like(self.grid)

    def run(self):
        """(wall s, CPU s) of one run of the kernel."""
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(SMALL_STEPS):
            np.matmul(self.x, self.w, out=self.h)
            np.multiply(self.h, 0.7071067811865476, out=self.g)
            erf(self.g, out=self.g)
            np.add(self.g, 1.0, out=self.g)
            np.multiply(self.h, self.g, out=self.h)
            np.matmul(self.h.T, self.x, out=self.g[:64])
        for _ in range(GRID_PASSES):
            np.multiply(self.grid, 0.5, out=self.tmp)
            erf(self.tmp, out=self.tmp)
            np.exp(self.tmp, out=self.tmp)
            float(self.tmp.sum())
        return time.perf_counter() - wall, time.process_time() - cpu
