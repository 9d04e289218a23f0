"""Host-speed probe: two fixed kernels, timed every ``INTERVAL_S`` seconds of
real time while the workload runs.

The cores this benchmark runs on may be shared with other machines' work.
Their speed then drifts by a quarter and more, in episodes of tens of
seconds and over tens of minutes, with CPU time equal to wall time.  Two
resources drift apart: the speed of Python code and the memory bandwidth.
The ``python`` kernel tracks the first, the ``memory`` kernel, a sum over an
array larger than a core's caches, the second.  ``scale`` takes a run's
times to the reference speed of one of them, at which its kernel takes
``REFERENCE_S``.  The kernels are the benchmark's own code, never the
program's, so a change to the program does not move them.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.5                  # one sample per half second of real time
SPAN = "host.probe"               # a sample's span name in a traced run
MEMORY_ARRAY_BYTES = 32 * 2**20   # larger than the L2 cache of a core
REFERENCE_S = {"python": 0.005, "memory": 0.0045}  # kernel times at the reference speed


def python_kernel() -> int:
    """Dict stores and integer arithmetic, as in the program's Python loops."""
    table = {}
    acc = 0
    for i in range(24000):
        table[i & 1023] = acc
        acc = (acc + i * i) % 1000003
    return acc


class SpeedProbe:
    def __init__(self, tracer=None):
        self._tracer = tracer
        self._array = np.ones(MEMORY_ARRAY_BYTES // 8)
        self.samples: dict[str, list[float]] = {"python": [], "memory": []}
        self.total = 0.0  # seconds spent in the kernels; callers subtract it

    def _time(self, resource: str, kernel) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples[resource].append(elapsed)
        self.total += elapsed

    def sample(self, *_) -> None:
        if self._tracer is None:
            self._time("python", python_kernel)
            self._time("memory", self._array.sum)
        else:
            with self._tracer.span(SPAN):
                self._time("python", python_kernel)
                self._time("memory", self._array.sum)

    @contextmanager
    def running(self):
        """Sample from a SIGALRM interval timer; the handler runs in the main
        thread between the program's bytecodes."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No samples while a set-up's child process runs: a sample would then
        compete with it for the cores and read the host as slower."""
        delay, interval = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, delay, interval)

    def mean(self, resource: str) -> float:
        if not self.samples[resource]:
            self.sample()
        return statistics.fmean(self.samples[resource])

    def scale(self, resource: str) -> float:
        """Factor from this run's measured times to the reference speed of
        ``resource``."""
        return REFERENCE_S[resource] / self.mean(resource)
