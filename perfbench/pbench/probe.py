"""Machine-speed probe, so that timings from a busy shared machine compare.

The machine the benchmark was defined on is shared: its speed flips
between a fast state and one about 1.5 times slower, in spells of a
second to a minute, so the same round of work takes 10-30% longer in one
run than in the next.  A worker therefore times a fixed probe between its
ops (interpreter bytecode plus small-array numpy calls, the mix diskcover
spends its time in, but none of diskcover's code), spending about
PROBE_SHARE of the op time on it.  A timing is reported at reference
speed by scaling it with PROBE_REF_S / (the run's mean probe time); the
raw timing is reported beside it.  The probe never changes, so a faster
program cannot make the probe faster.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.005  # probe time in the fast state of the defining machine
PROBE_SHARE = 0.05
EDGE_PROBES = 10  # before the first and after the last op

_DATA = np.random.default_rng(0).random((2048, 32))


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        d = (_DATA[:, i % 32] - _DATA[i, 0]) ** 2
        acc += float(np.partition(d, 3)[3])
        acc += sum(range(i % 64))
    return time.perf_counter() - start


class Calibrator:
    """Probe samples taken in proportion to the op time between them."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    def edge(self) -> None:
        self.samples += [probe() for _ in range(EDGE_PROBES)]

    def after_op(self, op_s: float) -> None:
        self._owed += PROBE_SHARE * op_s
        while self._owed > 0.0:
            took = probe()
            self.samples.append(took)
            self._owed -= took

    def speed(self) -> float:
        """Reference probe time over the mean probe time of this run.

        The mean, not the median: the machine switches between a fast and
        a slow state, and the mean probe time tracks the share of time
        spent in each, which is what slows the ops around it.
        """
        return PROBE_REF_S / statistics.fmean(self.samples)
