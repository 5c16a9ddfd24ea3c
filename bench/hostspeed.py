"""How fast the host runs a fixed probe while the benchmark runs, and call
times scaled to a reference host speed.

On a shared host the same code runs at different speeds from one moment to
the next.  On the 2-vCPU VM this benchmark was written on, one ``hetcal fit``
call took either about 5.5 ms or about 11 ms, and the share of slow calls
changed in phases of seconds to minutes, so the median of a 25-second run
moved by up to 2x between runs of the same code.  The slow-down hits a
fixed pure-Python probe by nearly the same factor at the same moments.

``HostSpeed`` runs the probe from a ``SIGALRM`` timer every ``PERIOD_S``
seconds of wall time, also in the middle of a ``hetcal`` call (the handler
runs between two bytecodes of the main thread).  A timed interval is then
reported as::

    (interval - probe time inside it) * REFERENCE_PROBE_S / mean probe time

over the probes that started within ``PERIOD_S`` of the interval: the time
the interval would take on a host that runs the probe in
``REFERENCE_PROBE_S``.  Everything here is pure Python (no numpy), so it can
run before ``import hetcal`` without paying part of that import.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.025
PROBE_LOOPS = 150
# the probe's time in the fast phase of the host above (its 5th percentile
# over a fit run); only a scale, the same for every commit
REFERENCE_PROBE_S = 2.0e-4

_TABLE = {i: float(i) for i in range(5000)}


def probe() -> float:
    """A fixed amount of interpreter work of the kind the program does:
    dictionary look-ups, small lists, sorting and float arithmetic.

    A tight integer loop was tried first and slowed down less than the
    program: over 100 seconds of ``fit`` and ``simulate`` calls, the
    log-log slope of a call's time on the probe's time was 1.5 for the loop
    and 1.1 for this probe, and this probe left half the loop's spread in
    the corrected call times."""
    s = 0.0
    for i in range(PROBE_LOOPS):
        v = [_TABLE[(i * 7 + j) % 5000] for j in range(8)]
        v.sort()
        s += sum(v) / len(v)
    return s


class HostSpeed:
    """Samples the probe's time every ``PERIOD_S`` between ``start``
    and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._old = None

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` without the probes run inside,
        at the reference host speed.  Call after the sampler has stopped."""
        if not self.starts:
            raise RuntimeError("no probe ran while the host speed was sampled")
        lo = bisect.bisect_left(self.starts, start - PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PERIOD_S)
        if lo == hi:  # no probe near: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        near = self.times[lo:hi]
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        net = (end - start) - sum(self.times[i:j])
        return net * REFERENCE_PROBE_S * len(near) / sum(near)

    def summary(self) -> dict:
        """The probe's time distribution over the sampled period, in ms."""
        if not self.times:
            return {"probes": 0}
        ms = sorted(1e3 * t for t in self.times)

        def pct(q):
            return ms[min(len(ms) - 1, int(q / 100.0 * len(ms)))]

        return {"probes": len(ms), "reference_ms": 1e3 * REFERENCE_PROBE_S,
                "p5_ms": pct(5), "p50_ms": pct(50), "p95_ms": pct(95),
                "mean_slowdown": sum(ms) / len(ms) / (1e3 * REFERENCE_PROBE_S)}
