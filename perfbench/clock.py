"""Reference seconds: wall time scaled by a machine-speed probe.

On a shared machine the same Python code runs up to twice as fast in one
five-second stretch as in the next, which swamps any change worth measuring.
The clock times a fixed pure-Python probe (dict lookups and integer adds,
nothing the cyclic collector tracks) right before and right after every timed
call, and a sampler thread repeats it every ``PERIOD_S`` while long calls
run.  Each probe records the thread CPU time it took: a guest's CPU time
stretches with the machine's slow spells just as its wall time does, while a
probe's waits for the interpreter lock do not count.  The benchmark pins the
process to one CPU, so the probes measure the CPU the work runs on.

A call's wall time is scaled by ``REFERENCE_PROBE_S`` over the median probe
cost around it: a slower program reads slower, a slower machine does not.
Raw wall time is kept as well.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import Any, Callable, List, Tuple

_KEYS = tuple(str(i) for i in range(997))
_TABLE = {key: len(key) for key in _KEYS}


def probe() -> float:
    """Thread CPU seconds one run of the fixed probe work takes."""
    start = time.thread_time()
    total = 0
    for _ in range(10):
        for key in _KEYS:
            total += _TABLE[key]
    return time.thread_time() - start


class Clock:
    """Times calls in reference seconds; owns the probe's sampler thread."""

    #: The probe's CPU time at the speed the reported seconds refer to (an
    #: unloaded stretch of the 2-core machine the README figures come from).
    REFERENCE_PROBE_S = 0.0006
    PERIOD_S = 0.1

    def __init__(self) -> None:
        self._at: List[float] = []
        self._cost: List[float] = []
        self._before = probe()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)
        self._thread.start()
        #: Reference seconds per wall second of the last timed call.
        self.last_scale = 1.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            cost = probe()
            # Only this thread appends, costs first; readers take a length first.
            self._cost.append(cost)
            self._at.append(time.perf_counter())

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(result, reference seconds, wall seconds)`` of one call."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        after = probe()
        count = len(self._at)
        lo = bisect.bisect_left(self._at, start, 0, count)
        costs = [self._before, after]
        # A short call is best judged by the probes right around it; the
        # sampler's readings count once a call spans several of them.
        if count - lo >= 3:
            costs += self._cost[lo:count]
        self._before = after
        raw = end - start
        self.last_scale = self.REFERENCE_PROBE_S / statistics.median(costs)
        scaled = raw * self.last_scale
        self.raw_s += raw
        self.scaled_s += scaled
        return result, scaled, raw

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
