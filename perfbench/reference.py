"""A fixed reference kernel: host time at a reference machine speed.

The machine the benchmark was built on changes speed by up to 2x over
seconds to minutes, in user time alone (no system time, faults or
context switches): other tenants contend for the cores and caches.  A
`decode` pass read 0.65 s and 1.34 s within one 40 s window.  No
estimator over one run's raw samples removes a slow stretch that
outlasts the run.

So every worker times this kernel — the same kinds of work as the
program, but fixed and part of the benchmark: pointer-chasing over a few
megabytes of Python objects, small float64 matmuls, and an interpreter
loop — between its passes.  Each pass's host time is scaled by
``NOMINAL_S`` over the mean of the two kernel samples that bracket the
pass: it is reported as host time on a machine where the kernel takes
``NOMINAL_S``.  A change to the program moves the reported time; a
change in machine speed largely does not (six 6 s `decode` workers read
0.78-1.26 s per pass raw and 0.63-0.75 s at reference speed).
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time in the fast state of the machine the benchmark was
# built on, so reference-speed times read close to raw ones there
NOMINAL_S = 0.008
SAMPLES = 2


class _Node:
    __slots__ = ("a", "table", "pair")

    def __init__(self, i: int) -> None:
        self.a = 0.5 * i
        self.table = {"k": i}
        self.pair = [i, i + 1]


class Reference:
    """The kernel's data (built once per worker) and its timing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        nodes = [_Node(i) for i in range(30_000)]
        self.walk = [nodes[i] for i in rng.permutation(len(nodes))[::3]]
        self.mats = [np.full((16, 32), 1.0 + i) for i in range(100)]
        self.weight = np.eye(32)

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for node in self.walk:
            acc += node.a + node.table["k"] + node.pair[1]
        for mat in self.mats:
            acc += float((mat @ self.weight)[0, 0])
        total = 0
        for i in range(20_000):
            total += i * i
        return time.perf_counter() - start

    def sample_s(self) -> float:
        """The faster of ``SAMPLES`` runs of the kernel."""
        return min(self._once() for _ in range(SAMPLES))
