"""The benchmark's clock, corrected for the speed of the host.

The shared host this benchmark was written on runs the same Python code up
to 1.7x slower in phases lasting from a second to minutes: a fixed
pure-Python loop slows down together with the workloads, with no steal
time reported. A run of 30 s lands in one or two phases, so raw pass times
of identical code spread by 25-45% between runs.

:class:`Sampler` measures that speed while the workload runs. Every
``INTERVAL_S`` of process CPU time a ``SIGPROF`` handler runs a fixed loop
and records how long it took. Half the loop is interpreter arithmetic, half
reads one pointer per 4 KiB page of a 4 MiB list, twice the size of the
L2 cache: in the slow phases reads that miss L2 slow down more than
arithmetic does, and so do the workloads. Over 16 screen-10k passes in one
process, with both loops sampled side by side, this loop left the passes'
interquartile spread at 0.071 of their median, arithmetic alone 0.085,
against 0.135 uncorrected; on analyze-c7 arithmetic alone left 0.025,
against 0.263 uncorrected. The loop runs between
two bytecodes of the workload (a handler waits while native code runs), so
it samples the speed the workload itself is getting. Its own time is
removed from :meth:`Sampler.clock`, so the workload's timings do not
include it (about 2% of the CPU).

:meth:`Sampler.scaled` turns a raw interval into seconds at the reference
speed: the interval times ``REFERENCE_S`` over the mean loop time of the
samples taken during it and ``PAD`` samples either side. The mean, not the
median, because an interval's time is the integral of the slowdown over
it. The raw intervals are kept in the report as well.

A program change can move the loop's time only through the state the loop
shares with it, the core and its caches. The list's pages miss L2 whatever
the program does, and the loop's other data fits in L1, so its time follows
the host's speed and not the program's. A change that makes the program
compete for its own core, such as more threads than cores, would be partly
hidden: that is not what this benchmark measures. The list adds 4 MiB to
the process's peak RSS.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.02  # process CPU time between samples
ARITHMETIC_ITERATIONS = 2500
PAGE_SLOTS = 512  # list slots of 8 bytes in a 4 KiB page
PAGES = 1024  # 4 MiB
# What the loop takes at the reference speed: about its time in the fast
# phases of a 2.1 GHz Xeon VM, so that scaled times read as seconds there.
REFERENCE_S = 3.3e-4
PAD = 10  # samples either side of an interval that also count for it


def _loop(pages: list[float]) -> float:
    total = 0.0
    for i in range(0, len(pages), PAGE_SLOTS):
        total += pages[i]
    for i in range(ARITHMETIC_ITERATIONS):
        total += i * i % 7
    return total


class Sampler:
    """Samples the host's speed from a ``SIGPROF`` timer; one per process."""

    def __init__(self) -> None:
        self.times: list[float] = []  # clock() when each sample was taken
        self.loop_s: list[float] = []  # the loop's time in each sample
        self._hidden = 0.0  # seconds spent in the handler so far
        self._pages = [0.0] * (PAGES * PAGE_SLOTS)

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent sampling."""
        return time.perf_counter() - self._hidden

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum: int = signal.SIGPROF, frame: object = None) -> None:
        entered = time.perf_counter()
        _loop(self._pages)
        done = time.perf_counter()
        self.times.append(entered - self._hidden)
        self.loop_s.append(done - entered)
        self._hidden += time.perf_counter() - entered

    def speed(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean loop time around ``[start, end]`` (clock times)."""
        lo = max(0, bisect_left(self.times, start) - PAD)
        hi = bisect_right(self.times, end) + PAD
        window = self.loop_s[lo:hi]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_S * len(window) / sum(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the clock interval ``[start, end]``."""
        return (end - start) * self.speed(start, end)
