"""Driving-quality measurement: series, summaries, windows, crash detection.

Summaries follow the reporting convention of averaging absolute values:
mean of |x|, population standard deviation of |x|, and the standard error
of that mean.
"""

import math
from array import array

import numpy as np


class SampleSeries:
    """Timestamped values of one metric; timestamps strictly increase.

    Times and values are kept in two array('d') columns, 16 bytes a sample.
    Each reads back as a float; a run appends floats only, so its CSV rows
    print as the values appended.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times = array("d")
        self.values = array("d")
        self.columns = (self.times, self.values)
        self._last = None  # times[-1], kept so that append builds no float from times

    def append(self, t: float, value: float):
        if self._last is not None and t <= self._last:
            raise ValueError(f"non-increasing timestamp {t} in series {self.name!r}")
        self._last = t
        self.times.append(t)
        self.values.append(value)

    def __len__(self):
        return len(self.values)

    def as_arrays(self):
        """Copies of times and values as float64 arrays."""
        return np.array(self.times, dtype=float), np.array(self.values, dtype=float)


def correction_metric(left_applied: float, right_applied: float) -> float:
    """Signed applied steering correction, in power units."""
    return (right_applied - left_applied) / 2.0


def summarize(series, crash_time: float = None) -> dict:
    """Mean and population std of |x|, the standard error of the mean, the
    count and crash_time; an empty series gives just {"count": 0}."""
    values = np.abs(np.asarray(getattr(series, "values", series), dtype=float))
    if values.size == 0:
        return {"count": 0}
    mean = float(np.mean(values))
    std = float(np.std(values))
    return {"mean_abs": mean, "std_abs": std, "sem_abs": std / math.sqrt(values.size),
            "count": int(values.size), "crash_time": crash_time}


def post_outage_window(series: SampleSeries, outage_end_times, k: int = 5):
    """Values of the first k samples strictly after each outage end."""
    if k < 1:
        raise ValueError("k must be >= 1")
    times, values = series.as_arrays()
    picked = []
    for end in outage_end_times:
        start = int(np.searchsorted(times, end, side="right"))
        picked.append(values[start:start + k])
    if not picked:
        return np.empty(0)
    return np.concatenate(picked)


class CrashDetector:
    """Flags the first time |deviation| exceeds a threshold for a hold time."""

    def __init__(self, threshold_m: float, hold_s: float):
        self.threshold_m = threshold_m
        self.hold_s = hold_s
        self._over_since = None

    def update(self, t: float, deviation: float):
        """Feed one sample; returns the crash time once the hold is met."""
        if abs(deviation) > self.threshold_m:
            if self._over_since is None:
                self._over_since = t
            if t - self._over_since >= self.hold_s:
                return self._over_since + self.hold_s
        else:
            self._over_since = None
        return None
