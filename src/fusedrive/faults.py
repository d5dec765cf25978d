"""Sensor outage injection between the controller and the transport.

Two models: a periodic outage (every period seconds the sensor goes dark for
a fixed duration) and a probabilistic one (each fixed interval draws an
integer 1..100 and goes dark for that interval iff draw < threshold — strict,
so a nominal threshold of 40 really fires 39% of the time).  While an outage
is active the sensor keeps observing and updating its controller but
transmits zero-reports.
"""

import math
from dataclasses import dataclass

from .wire import ZERO, SteeringCommand


@dataclass(frozen=True)
class PeriodicOutage:
    period: float = 3.0
    duration: float = 0.0

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.duration <= self.period:
            raise ValueError("duration must be in [0, period]")

    @property
    def span(self) -> float:  # a sensor's phase is drawn from [0, span)
        return self.period


@dataclass(frozen=True)
class ProbabilisticOutage:
    interval: float = 0.4
    threshold: int = 0

    def __post_init__(self):
        if self.interval <= 0.0:
            raise ValueError("interval must be positive")
        if not 0 <= self.threshold <= 100:
            raise ValueError("threshold must be in [0, 100]")

    @property
    def span(self) -> float:  # a sensor's phase is drawn from [0, span)
        return self.interval


class OutageSchedule:
    """Stateful evaluation of one sensor's outage model.

    now must be non-decreasing across active() calls; the probabilistic
    model draws exactly one random number per interval regardless of how
    often it is queried.
    """

    def __init__(self, model, phase: float = 0.0, rng=None):
        self.model = model
        self.phase = phase
        self._rng = rng
        self._first = None  # index of the first probabilistic interval drawn
        self._dark = []     # per interval from _first on: whether its draw went dark

    def active(self, now: float) -> bool:
        m = self.model
        if m is None:
            return False
        if isinstance(m, PeriodicOutage):
            local = math.fmod(now - self.phase, m.period)
            if local < 0.0:
                local += m.period
            return local < m.duration
        k = math.floor((now - self.phase) / m.interval)
        if self._first is None:
            self._first = k
        while len(self._dark) <= k - self._first:
            self._dark.append(self._rng.randint(1, 100) < m.threshold)
        return self._dark[k - self._first]

    def windows(self, end_time: float):
        """Outage windows (start, end) intersecting [0, end_time].

        For the periodic model the windows exist analytically, including
        zero-length ones at each period mark when duration is 0, so
        post-outage sampling stays meaningful across a duration sweep.
        Probabilistic windows merge adjacent dark intervals.
        """
        m = self.model
        if m is None:
            return []
        if isinstance(m, PeriodicOutage):
            out = []
            # A window already under way at t = 0 starts one period early.
            k = -1 if self.phase - m.period + m.duration > 0.0 else 0
            while True:
                start = self.phase + k * m.period
                if start > end_time:
                    break
                out.append((start, min(start + m.duration, end_time)))
                k += 1
            return out
        out, start = [], None
        for j, dark in enumerate(self._dark, self._first or 0):
            t0 = self.phase + j * m.interval
            if dark and start is None:
                start = t0
            elif not dark and start is not None:
                out.append((start, t0))
                start = None
        if start is not None:
            out.append((start, end_time))
        return [(s, min(e, end_time)) for s, e in out if s <= end_time]


def gate(cmd: SteeringCommand, active: bool) -> SteeringCommand:
    """Substitute a zero-report while an outage is active."""
    return ZERO if active else cmd
