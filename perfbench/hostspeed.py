"""Host-speed reference: scale measured wall times to a quiet host.

The benchmark machine is shared. Its speed drifts by a factor of up to
two over tens of seconds to minutes, and CPU time drifts with wall time,
so the slowdown is not CPU steal that a CPU clock would remove, and no
statistic taken inside one run can remove a drift that outlasts the run.
What does cancel it is a fixed reference kernel timed right next to the
measured work: a short *burst* (small-array numpy arithmetic, as in the
batch EKF engine, and a scalar filter in plain Python, as in the
streaming tick) runs between entry-point calls, at least ``GAP_S``
seconds apart, and each stretch of work between two bursts is scaled by
``QUIET_BURST_S`` over the median duration of the nearest bursts on
either side of it. ``QUIET_BURST_S`` is a fixed constant, not a
measurement: it defines the unit, a host on which one burst takes 5 ms
(the benchmark machine's fast state takes about 4 ms). The kernel never
calls the library, so a change to the library cannot move the scale.

Over ten 20 s runs of each workload on a 2-CPU shared VM (seeds
1000-1009), the spread of ``trips_per_s`` (inter-quartile distance over
the median) was 0.152 raw and 0.053 scaled on ``trip_single``, 0.247 and
0.047 on ``fleet_store``, 0.116 and 0.034 on ``stream_outage``. Raw wall
times are still reported in the run log next to the scaled metrics.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

#: Duration of one reference burst on the host the scaled times refer to.
QUIET_BURST_S = 0.005
#: Least wall time between two bursts in a timed phase.
GAP_S = 0.25
#: Bursts on each side of an interval whose median sets its scale: one
#: burst is a 5 ms sample and jitters; the host's states last seconds.
NEIGHBOURS = 3

_X0 = np.zeros(4)


class _Filter:
    """A scalar two-state filter in plain Python: attribute access, method
    calls and float arithmetic, like the streaming tick."""

    __slots__ = ("v", "theta", "p11", "p22")

    def __init__(self) -> None:
        self.v, self.theta, self.p11, self.p22 = 10.0, 0.0, 1.0, 0.1

    def predict(self, accel: float) -> None:
        self.v += (accel - 9.81 * math.sin(self.theta)) * 0.02
        self.p11 += 0.01
        self.p22 += 1e-6

    def update(self, z: float) -> None:
        gain = self.p11 / (self.p11 + 0.04)
        self.v += gain * (z - self.v)
        self.p11 *= 1.0 - gain


def burst() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = perf_counter()
    x = _X0
    for _ in range(1800):
        x = x * 0.999 + 0.001
    f = _Filter()
    for i in range(12000):
        f.predict(0.1)
        if i % 50 == 0 and math.isfinite(f.v):
            f.update(10.0)
    return perf_counter() - t0


class HostSpeed:
    """Reference bursts interleaved with measured work, and the scaling
    they imply for any interval that lies between bursts."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """One burst, now."""
        t0 = perf_counter()
        d = burst()
        self.starts.append(t0)
        self.ends.append(t0 + d)
        self.durations.append(d)

    def between_calls(self) -> None:
        """A burst if ``GAP_S`` has passed since the last one ended."""
        if not self.ends or perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``QUIET_BURST_S`` over the median of the ``NEIGHBOURS`` bursts
        that ended by ``t0`` and the ``NEIGHBOURS`` that started from
        ``t1`` on (fewer at the ends of the record)."""
        i = bisect_right(self.ends, t0)
        j = bisect_left(self.starts, t1)
        around = self.durations[max(0, i - NEIGHBOURS):i] + self.durations[j:j + NEIGHBOURS]
        if not around:
            raise ValueError("no reference burst recorded around the interval")
        return QUIET_BURST_S / float(np.median(around))

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1]`` scaled to the quiet host."""
        return (t1 - t0) * self.factor(t0, t1)

    def scaled_span(self, t0: float, t1: float) -> float:
        """Scaled wall time of ``[t0, t1]`` minus the bursts inside it,
        each stretch between two bursts scaled by :meth:`factor`."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.ends, t1)
        edges = [t0]
        for k in range(lo, hi):
            edges += [self.starts[k], self.ends[k]]
        edges.append(t1)
        total = 0.0
        for a, b in zip(edges[::2], edges[1::2]):
            if b > a:
                total += self.scaled(a, b)
        return total

    def median_burst(self) -> float:
        return float(np.median(self.durations)) if self.durations else float("nan")
