"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on shared hosts whose speed drifts, for all code alike,
for minutes at a time (by up to about 1.5x on a shared 2-vCPU Xeon VM).
Timing this kernel next to every
stage call lets a run express its stage times in units of the kernel's time,
which cancels that drift. The kernel is the benchmark's own code and never
calls the package under test, so no change to the package moves it.

It mixes the kinds of work the workloads do: an interpreted Python loop
(the autodiff graph), scatter-adds into a 500 x 150 table from a
4096 x 150 batch (GloVe's AdaGrad updates) and small dense products
(the GRU cells).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SEED = 20190212
ROUNDS = 20
LOOP = 60_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.batch = rng.normal(size=(4096, 150))
        self.rows = rng.integers(0, 500, size=4096)
        self.weights = rng.normal(scale=0.1, size=(150, 64))
        self.small = rng.normal(size=(64, 150))

    def work(self) -> float:
        table = np.zeros((500, 150))
        total = 0.0
        for _ in range(ROUNDS):
            np.add.at(table, self.rows, self.batch * self.batch)
            hidden = np.tanh(self.small @ self.weights)
            total += float(hidden.sum())
            acc = 0
            for k in range(LOOP):
                acc += k % 7
            total += acc
        return total + float(table.sum())

    def time(self, at_least: float) -> float:
        """Mean seconds per pass over whole passes that run at least ``at_least`` seconds."""
        passes = 0
        t0 = perf_counter()
        while True:
            self.work()
            passes += 1
            elapsed = perf_counter() - t0
            if elapsed >= at_least:
                return elapsed / passes
