"""Datagram codec and the deterministic lossy channel between sensors and vehicle.

The wire format is six semicolon-separated decimal fields,
"left;right;confidence;P;I;D", in UTF-8 text.  The third field rides under
the name "error" on the sensor side but the receiver treats it as the
confidence; it is one quantity.

Only a socket carries that text, decoded as it arrives (udp.py); the vehicle
node reads commands only, as the simulated channel carries them (fusion.py).
"""

import heapq
import itertools
import math
import random
from typing import NamedTuple


class MalformedDatagram(ValueError):
    """Datagram text that does not parse into six numeric fields."""


class SteeringCommand(NamedTuple):
    """One sensor's steering vote plus its controller terms, in wire order."""

    left: float
    right: float
    confidence: float
    p: float = 0.0
    i: float = 0.0
    d: float = 0.0

    def is_zero_report(self) -> bool:
        return not any(self)


ZERO = SteeringCommand(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # the zero-report; one shared value


def format_field(value) -> str:
    """One field as text: the value, read as a float, prints without a
    decimal point when integral, else in its shortest round-trip form.

    value.is_integer() holds exactly when the float is finite and equals
    int(value), so -0.0 gives "0", and inf and nan give repr(value).
    """
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def finite_command(cmd: SteeringCommand) -> SteeringCommand:
    """cmd itself; ValueError if a field is not finite, as no datagram is."""
    if not all(map(math.isfinite, cmd)):
        raise ValueError("non-finite field")
    return cmd


def encode_command(cmd: SteeringCommand) -> str:
    """Render a finite command as datagram text, fields in wire order."""
    return ";".join(map(format_field, finite_command(cmd)))


def decode_command(text) -> SteeringCommand:
    """Parse datagram text into a command of six finite numbers.

    Raises MalformedDatagram on anything else, non-finite values included
    ("inf", "nan", or a literal such as "1e400" that overflows to inf).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDatagram(str(exc)) from None
    parts = text.split(";")
    if len(parts) != 6:
        raise MalformedDatagram(f"expected 6 fields, got {len(parts)}")
    try:
        return finite_command(SteeringCommand._make(map(float, parts)))
    except ValueError as exc:
        raise MalformedDatagram(f"{exc} in {text!r}") from None


class SimulatedChannel:
    """Deterministic datagram queue with seeded loss and delay.

    delay is either a fixed value in seconds or a (low, high) uniform range.
    A shared sequence counter may be passed in so that deliveries from
    several channels interleave in a stable global send order when delivery
    times tie.
    """

    def __init__(self, loss_probability=0.0, delay=0.0, seed=0, seq=None):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        lo, hi = map(float, delay) if isinstance(delay, (tuple, list)) else (float(delay),) * 2
        if lo < 0.0 or hi < lo:
            raise ValueError("delay must be non-negative")
        self.loss_probability, self._delay = loss_probability, (lo, hi)
        self._rng = random.Random(seed)
        self._heap = []
        self._seq = seq if seq is not None else itertools.count().__next__

    def send(self, source_id, datagram, now: float):
        if self._rng.random() < self.loss_probability:
            return
        lo, hi = self._delay
        delay = lo if lo == hi else self._rng.uniform(lo, hi)
        heapq.heappush(self._heap, (now + delay, self._seq(), source_id, datagram))

    def pending(self) -> int:
        return len(self._heap)

    def next_delivery(self) -> float:
        """Delivery time of the earliest queued datagram, inf if none is queued."""
        return self._heap[0][0] if self._heap else math.inf


def merge_deliveries(channels, now: float):
    """The (source_id, datagram) pairs due by now on any of the channels, in
    delivery order; they leave their channels.

    Channels must share a sequence counter; the merge re-sorts by the
    (delivery time, sequence) key each channel's heap was ordered by.
    """
    tagged = []
    for ch in channels:
        # Due by now: the rule first_due_tick inverts.
        while ch._heap and ch._heap[0][0] <= now + 1e-12:
            tagged.append(heapq.heappop(ch._heap))
    tagged.sort()
    return [(src, datagram) for _, _, src, datagram in tagged]


def first_due_tick(t: float, ts: float, first: int, stop: int) -> int:
    """The first tick k in [first, stop] whose merge delivers a datagram due
    at t, that is with t <= k * ts + 1e-12 as merge_deliveries tests it;
    stop when there is none (t may be inf, or too large to count ticks to)."""
    if t <= first * ts + 1e-12:
        return first
    if t > stop * ts + 1e-12:
        return stop
    k = max(first + 1, math.ceil((t - 1e-12) / ts))
    while k * ts + 1e-12 < t:
        k += 1
    while k - 1 > first and (k - 1) * ts + 1e-12 >= t:
        k -= 1
    return k
