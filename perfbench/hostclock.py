"""Host-speed correction: timed intervals measured in reference seconds.

A shared host's speed moves by ±25% for seconds to minutes at a time (other
tenants on the same cores), so the same work takes different wall times
from run to run.  A ``HostClock`` keeps timing a fixed pure-Python reference
loop while the work runs and converts wall time into reference seconds: the
time the work would have taken on a host that runs the loop in
``REFERENCE_LOOP_S``.  A change to the program moves its time and not the
loop's, so it shows in full; a slower host slows both, and cancels out.

``start()`` interrupts the process every ``PERIOD_S`` (``SIGALRM``) and
times the loop in the signal handler, in the process's main thread, by the
thread's CPU time: another process sharing the core (the daemon) does not
lengthen a probe.  ``seconds(start, end)`` takes the probes' CPU time out of
the interval and scales the rest by the mean speed the probes inside it
saw.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

perf = time.perf_counter

#: The reference loop's duration on the reference host (a 2-vCPU Xeon VM at
#: its usual speed): a reference second is about a wall second there.
REFERENCE_LOOP_S = 0.0009
#: Interval between two probes; a probe takes about 2% of it.
PERIOD_S = 0.05


def reference_loop() -> int:
    """The fixed work a probe times: dict, list, integer and call mix."""
    table = {}
    items = []
    total = 0
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0) + i
        items.append((key, i * 3 % 11))
        total += len(items) & 7
    items.sort()
    return total + sum(value for _, value in items[:50])


class HostClock:
    """Converts wall-time intervals of this process into reference seconds."""

    def __init__(self) -> None:
        #: Wall-clock start and CPU seconds of every probe, in time order.
        self._starts: List[float] = []
        self._lengths: List[float] = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:  # a host stall longer than the period
            return
        self._busy = True
        try:
            started, cpu = perf(), time.thread_time()
            reference_loop()
            self._lengths.append(time.thread_time() - cpu)
            self._starts.append(started)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart interrupted system calls, also inside C libraries (SQLite).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work in ``[start, end]`` (``perf_counter``
        values, which are one clock for every process)."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        inside = self._lengths[first:last]
        probing = sum(inside)
        if not inside:
            # No probe inside: the nearest one after, else before, stands in.
            if not self._lengths:
                raise RuntimeError("the host clock has no probe yet")
            inside = [self._lengths[min(first, len(self._lengths) - 1)]]
        speed = sum(REFERENCE_LOOP_S / length for length in inside) / len(inside)
        return (end - start - probing) * speed
