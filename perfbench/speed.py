"""Scale measured wall times to a fixed reference CPU speed.

The reference machine is a VM on a shared host: the speed at which it
runs the same Python code changes by up to 2x within a fraction of a
second and drifts over minutes, and that drift, not the program, was
most of the run-to-run spread of the raw wall times.  While a timed
loop runs, a SIGALRM timer interrupts it every INTERVAL_S and runs a
fixed pure-Python probe (about 0.3 ms).  The stretch of the loop
between two probes is converted to seconds at the reference speed by
the mean of the two probes' speeds relative to REF_PROBE_S, and the
probes' own time is left out.  A faster program still shows as fewer
reference seconds; a machine that is slow for a while no longer does.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 800
# Median probe duration on the reference machine (2 vCPUs of a shared
# 2.1 GHz Intel Xeon host).
REF_PROBE_S = 0.00036

clock = time.perf_counter


def _probe_work(n: int) -> int:
    x, acc, slots = 12345, 0, {}
    for i in range(n):
        x = (x * 48271) % 2147483647
        acc += x & 1023
        slots[i & 63] = x
    return acc


def probe() -> tuple[float, float]:
    """Start and end time of one probe."""
    t0 = clock()
    _probe_work(PROBE_LOOPS)
    return t0, clock()


def speed_now(probes: int = 16) -> float:
    """Reference seconds per wall second right now, from back-to-back probes."""
    durations = sorted(t1 - t0 for t0, t1 in (probe() for _ in range(probes)))
    return REF_PROBE_S / durations[len(durations) // 2]


class Speedometer:
    """Probes taken while a loop runs, and the reference-speed clock they define."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum: list[float] = []
        self._rate: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        try:
            t0, t1 = probe()
        except MemoryError:  # the loop is at the address-space cap; skip this probe
            return
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_alarm(None, None)
        speeds = [REF_PROBE_S / (t1 - t0) for t0, t1 in zip(self.starts, self.ends)]
        # Gap k runs from the end of probe k to the start of probe k + 1.
        self._rate = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])] or [1.0]
        self._cum = [0.0]
        for k, rate in enumerate(self._rate[:-1]):
            self._cum.append(self._cum[-1] + (self.starts[k + 1] - self.ends[k]) * rate)

    def reference_time(self, t: float) -> float:
        """Reference seconds between the first probe and wall time t, probes excluded."""
        k = min(max(bisect.bisect_right(self.ends, t) - 1, 0), len(self._rate) - 1)
        upper = self.starts[k + 1] if k + 1 < len(self.starts) else t
        return self._cum[k] + (min(t, upper) - self.ends[k]) * self._rate[k]

    def probe_share(self) -> float:
        """Fraction of the probed span spent in probes."""
        span = self.ends[-1] - self.starts[0]
        return sum(t1 - t0 for t0, t1 in zip(self.starts, self.ends)) / span if span else 0.0
