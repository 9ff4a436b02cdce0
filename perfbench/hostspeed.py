"""Host speed sampling, which keeps timings on a shared host comparable.

On a few vCPUs of a shared machine a fixed loop runs at one of two speeds,
the slower about 1.6 times slower, as other tenants load the host.  The
slow spells last from a millisecond to a few seconds, and the share of
time spent in them drifts over minutes: over the 30-second windows of a
4-minute trace it ranged from a tenth to three quarters.  That share, not
the program, decided how long a run took; raw timings of the same code
spread by up to 29% of their median between runs (first to third
quartile of ten).

While operations are timed, a SIGALRM timer therefore runs a fixed
reference loop every ``PERIOD_S`` seconds.  The loop's mean duration over a
run measures how slow the host was during that run, and a timing is
rescaled to a host on which the loop takes ``REF_PROBE_S``:
``value * REF_PROBE_S / mean``.  The loop belongs to the benchmark, so no
change to the program moves it, and its own time is taken out of the
operation it interrupted.  Over ten seeds per workload the rescaled time
spread 4-9% of its median where the raw time spread 13-18%.

The correction is partial: the workloads slow by more than the loop, by
about the 1.3 to 1.5th power of its slowdown, so a run on a busy host
still reads slower than one on a quiet host.  Loops that gather from a
list or an array larger than L2 tracked the queue grid worse than this
one.
"""
from __future__ import annotations

import signal
import statistics
import time

PROBE_STEPS = 40_000
# the loop's time on an uncontended core of the 2-vCPU Xeon (Sapphire
# Rapids) KVM guest the benchmark was tuned on, Python 3.11; a run's mean
# was 3.1 ms on a quiet host and 4.2 ms on a busy one
REF_PROBE_S = 0.003
PERIOD_S = 0.25


def reference_loop() -> int:
    x = 0
    for i in range(PROBE_STEPS):
        x += i * i % 7
    return x


class SpeedSampler:
    """Probes of the reference loop, one on entry and then every period.

    Each probe is kept as (start, wall, cpu) seconds.  Use it as a context
    manager around the timed calls; samples accumulate over every entry.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.probes: list[tuple[float, float, float]] = []
        self._previous = None

    def probe(self, *_signal) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        reference_loop()
        self.probes.append((start, time.perf_counter() - start,
                            time.process_time() - cpu))

    def __enter__(self) -> SpeedSampler:
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.probes)

    def inside(self, mark: int, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds of the probes, taken since ``mark``, that
        lie wholly within ``[start, end]``."""
        wall = cpu = 0.0
        for p_start, p_wall, p_cpu in self.probes[mark:]:
            if p_start >= start and p_start + p_wall <= end:
                wall += p_wall
                cpu += p_cpu
        return wall, cpu

    def probe_s(self) -> float:
        """Mean wall time of the reference loop over every probe."""
        return statistics.fmean(p[1] for p in self.probes)

    def scale(self) -> float:
        """Factor that rescales this run's timings to the reference host."""
        return REF_PROBE_S / self.probe_s()
