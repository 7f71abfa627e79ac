"""Host time scaled to a reference speed, for timings that a shared host skews.

The benchmark's host is shared: other tenants slow every process on it
by up to 40%, in spells that last from milliseconds to minutes, so two
runs of the same work minutes apart read very different host seconds.
A :class:`ReferenceClock` samples the host's speed while it times a
piece of work, by running a short fixed loop just before it, just after
it and, from a timer signal, every :data:`SAMPLE_INTERVAL` seconds
during it.  It scales the work's host seconds by the loop's nominal
time over its mean measured time, so a slow spell slows the loop and
the work alike and divides out.

The loop runs between two bytecodes of the timed work and touches none
of its state, so the work behaves as it would untimed; the loop's own
time is taken out of the work's.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 10_000
#: Host seconds of the reference loop on an idle host (a 2-vCPU Intel
#: Xeon VM, Python 3.11).  Timings are scaled to this speed.
REFERENCE_SECONDS = 0.0029
#: Seconds between samples taken during the timed work.
SAMPLE_INTERVAL = 0.1
#: Runs of the loop averaged into each sample before and after the work.
EDGE_RUNS = 5


def reference_loop() -> float:
    """Fixed interpreter-bound work: dictionary updates and float arithmetic."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        key = i % 1021
        total += table.get(key, 0.0) * 0.5 + i
        table[key] = total % 97.0
    return total


def scale(elapsed: float, loop_seconds: float) -> float:
    """Host seconds to reference seconds, given the loop's mean host seconds."""
    return elapsed * REFERENCE_SECONDS / loop_seconds


class ReferenceClock:
    """Times work in reference seconds.

    Consecutive timings share the edge sample between them.
    :attr:`loop_seconds` keeps the host seconds of every run of the loop.
    """

    def __init__(self) -> None:
        self.loop_seconds: list[float] = []
        self._edge = self._edge_sample()

    def _run_loop(self) -> float:
        start = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - start
        self.loop_seconds.append(seconds)
        return seconds

    def _edge_sample(self) -> float:
        return statistics.mean(self._run_loop() for _ in range(EDGE_RUNS))

    def time(self, fn: Callable, *args, sample_during: bool = True) -> tuple[object, float]:
        """Run ``fn(*args)``; return its result and its reference seconds.

        With ``sample_during`` false only the edges are sampled, for work
        whose time is also split by a tracer, which must not see the loop.
        """
        during: list[float] = []

        def on_alarm(signum, frame):
            during.append(self._run_loop())

        if sample_during:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        before, after = self._edge, self._edge_sample()
        self._edge = after
        speed = statistics.mean([before, after, *during])
        return result, scale(elapsed - sum(during), speed)
