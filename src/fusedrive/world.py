"""Board geometry, track centerline, ground truth, and differential-drive kinematics.

The board is a square with the origin in the lower-left corner, x to the
right, y up, headings in degrees counterclockwise from +x.  A track is a
closed loop of straight and arc segments; the vehicle follows its centerline.
The track section of a scenario file is read by `scenario.track_from_config`.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class ConfigError(ValueError):
    """A scenario or track description that cannot be built."""


def normalize_heading(deg: float) -> float:
    """Wrap an angle in degrees into [0, 360)."""
    h = math.fmod(deg, 360.0)
    if h < 0.0:
        h += 360.0
    return 0.0 if h == 360.0 else h


@dataclass
class Pose:
    """Vehicle position (m) and heading (deg, ccw from +x, wrapped to [0, 360))."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pose coordinates must be finite")
        self.heading = normalize_heading(self.heading)


@dataclass(frozen=True)
class Straight:
    """Directed line segment of a track loop."""

    x0: float
    y0: float
    x1: float
    y1: float
    # Derived once at construction: closest() and lower_bound() run every tick.
    length: float = field(init=False, repr=False, compare=False)
    _tangent: float = field(init=False, repr=False, compare=False)
    _mid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        object.__setattr__(self, "length", math.hypot(dx, dy))
        object.__setattr__(self, "_tangent", normalize_heading(math.degrees(math.atan2(dy, dx))))
        object.__setattr__(self, "_mid", (self.x0 + 0.5 * dx, self.y0 + 0.5 * dy))

    @property
    def start(self):
        return (self.x0, self.y0)

    @property
    def end(self):
        return (self.x1, self.y1)

    def point_at(self, s: float):
        t = s / self.length
        return (self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0))

    def tangent_at(self, s: float) -> float:
        return self._tangent

    def lower_bound(self, px: float, py: float) -> float:
        """Distance to the segment's bounding circle: never above closest()'s."""
        return math.hypot(px - self._mid[0], py - self._mid[1]) - 0.5 * self.length

    def closest(self, px: float, py: float):
        """Distance to the segment plus the foot point and tangent there."""
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        ll = dx * dx + dy * dy
        t = ((px - self.x0) * dx + (py - self.y0) * dy) / ll
        t = min(1.0, max(0.0, t))
        cx, cy = self.x0 + t * dx, self.y0 + t * dy
        return math.hypot(px - cx, py - cy), cx, cy, self._tangent


@dataclass(frozen=True)
class Arc:
    """Circular arc; sweep_deg > 0 runs counterclockwise."""

    cx: float
    cy: float
    radius: float
    start_deg: float
    sweep_deg: float
    # Derived once at construction: closest() runs every tick.
    length: float = field(init=False, repr=False, compare=False)
    start: tuple = field(init=False, repr=False, compare=False)
    end: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "length", abs(math.radians(self.sweep_deg)) * self.radius)
        object.__setattr__(self, "start", self._point_at_angle(self.start_deg))
        object.__setattr__(self, "end", self._point_at_angle(self.start_deg + self.sweep_deg))

    def _point_at_angle(self, a_deg: float):
        a = math.radians(a_deg)
        return (self.cx + self.radius * math.cos(a), self.cy + self.radius * math.sin(a))

    def _tangent_at_angle(self, a_deg: float) -> float:
        return normalize_heading(a_deg + math.copysign(90.0, self.sweep_deg))

    def _sweeps_over(self, a_deg: float) -> bool:
        """Whether the arc passes the direction a_deg (deg) from its center."""
        if self.sweep_deg >= 0.0:
            return normalize_heading(a_deg - self.start_deg) <= self.sweep_deg
        return normalize_heading(self.start_deg - a_deg) <= -self.sweep_deg

    def point_at(self, s: float):
        a = self.start_deg + self.sweep_deg * (s / self.length)
        return self._point_at_angle(a)

    def tangent_at(self, s: float) -> float:
        a = self.start_deg + self.sweep_deg * (s / self.length)
        return self._tangent_at_angle(a)

    def lower_bound(self, px: float, py: float) -> float:
        """Distance to the arc's full circle: never above closest()'s."""
        return abs(math.hypot(px - self.cx, py - self.cy) - self.radius)

    def closest(self, px: float, py: float):
        vx, vy = px - self.cx, py - self.cy
        r = math.hypot(vx, vy)
        if r < 1e-12:
            # Center of the arc: every point is equidistant, use the midpoint.
            mid = self.start_deg + 0.5 * self.sweep_deg
            cx, cy = self._point_at_angle(mid)
            return self.radius, cx, cy, self._tangent_at_angle(mid)
        phi = math.degrees(math.atan2(vy, vx))
        if self._sweeps_over(phi):
            cx, cy = self._point_at_angle(phi)
            return abs(r - self.radius), cx, cy, self._tangent_at_angle(phi)
        (sx, sy), (ex, ey) = self.start, self.end
        d0 = math.hypot(px - sx, py - sy)
        d1 = math.hypot(px - ex, py - ey)
        if d0 <= d1:
            return d0, sx, sy, self._tangent_at_angle(self.start_deg)
        end_a = self.start_deg + self.sweep_deg
        return d1, ex, ey, self._tangent_at_angle(end_a)


_SAMPLE_STEP = 0.002  # m between centerline samples
SAMPLE_BLOCK = 64  # samples per box of Sampling.boxes


class Sampling(NamedTuple):
    """A track's dense centerline sampling.

    xs, ys and tans are contiguous (N,) arrays equal, sample for sample, to
    Track.point_at(k * step).  boxes holds one (x_lo, x_hi, y_lo, y_hi) float
    tuple per block: box i bounds samples i * SAMPLE_BLOCK to
    (i + 1) * SAMPLE_BLOCK - 1, and the last block may be shorter.
    """

    xs: np.ndarray
    ys: np.ndarray
    tans: np.ndarray
    step: float
    boxes: list


@dataclass
class Track:
    """Closed loop of segments on the board, with its dense sampling."""

    segments: list
    board_size: float = 2.0
    line_width: float = 0.02
    _last: int = field(default=0, repr=False, compare=False)  # previous closest() pick

    def __post_init__(self):
        if not self.segments:
            raise ConfigError("track has no segments")
        for i, seg in enumerate(self.segments):
            if seg.length <= 0.0:
                raise ConfigError(f"segment {i} has non-positive length")
            nxt = self.segments[(i + 1) % len(self.segments)]
            gap = math.hypot(seg.end[0] - nxt.start[0], seg.end[1] - nxt.start[1])
            if gap > 1e-9:
                raise ConfigError(
                    f"loop does not close: segment {i} ends {gap:.3g} m away from "
                    f"segment {(i + 1) % len(self.segments)}"
                )
        for i, seg in enumerate(self.segments):
            for px, py in _segment_extremes(seg):
                if not (0.0 <= px <= self.board_size and 0.0 <= py <= self.board_size):
                    raise ConfigError(
                        f"segment {i} leaves the board at ({px:.3f}, {py:.3f})"
                    )
        cum = list(itertools.accumulate((seg.length for seg in self.segments), initial=0.0))
        self._cum, self.total_length = cum, cum[-1]
        # One walk along the segments finds each sample's segment.
        n = max(8, int(round(self.total_length / _SAMPLE_STEP)))
        step = self.total_length / n
        xs = np.empty(n)
        ys = np.empty(n)
        tans = np.empty(n)
        last = len(self.segments) - 1
        i = 0
        for k in range(n):
            s = k * step
            while i < last and cum[i + 1] <= s:
                i += 1
            seg = self.segments[i]
            local = s - cum[i]
            xs[k], ys[k] = seg.point_at(local)
            tans[k] = seg.tangent_at(local)
        starts = np.arange(0, n, SAMPLE_BLOCK)
        boxes = zip(*(f.reduceat(c, starts).tolist()
                      for c in (xs, ys) for f in (np.minimum, np.maximum)))
        self.sampling = Sampling(xs, ys, tans, step, list(boxes))

    def point_at(self, s: float):
        """Centerline point and tangent (deg) at arclength s, wrapped."""
        s = math.fmod(s, self.total_length)
        if s < 0.0:
            s += self.total_length
        i = min(bisect.bisect_right(self._cum, s) - 1, len(self.segments) - 1)
        local = s - self._cum[i]
        seg = self.segments[i]
        x, y = seg.point_at(local)
        return x, y, seg.tangent_at(local)

    def closest(self, px: float, py: float):
        """Signed lateral deviation plus foot point and tangent there.

        Positive deviation means the point lies to the left of the track
        direction.  Ties between segments go to the lower index: scanning
        the segments in order, a later one replaces the pick only when it is
        closer by more than 1e-15.

        The scan is pruned.  The segment that won the previous call goes
        first, and its distance U bounds the minimum m from above.  A segment
        whose cheap lower bound (distance to its bounding circle, or to the
        full circle of an arc) exceeds U + 1e-9 is skipped; the others run
        through the unchanged scan.

        This is exact.  A skipped segment lies more than 1e-9 above U, so
        above m, and the scan's pick is never more than 1e-15 above m: a
        skipped segment is never the pick.  Nor does it change which segment
        is.  Take a level L between U and U + 1e-9 with no segment distance
        within 2e-15 below it (with a handful of segments there are plenty).
        Every segment scanned before the first one under L lies above L, so
        that first one, at least 2e-15 lower, replaces whatever either scan
        held.  From there both scans hold the same pick and see the same
        candidates, since a skipped segment can never replace a pick under L.
        """
        segs = self.segments
        hint = self._last
        first = segs[hint].closest(px, py)
        bound = first[0] + 1e-9
        best = None
        for i, seg in enumerate(segs):
            if i == hint:
                cand = first
            elif seg.lower_bound(px, py) > bound:
                continue
            else:
                cand = seg.closest(px, py)
            if best is None or cand[0] < best[0] - 1e-15:
                best, win = cand, i
        self._last = win
        d, cx, cy, tan = best
        t = math.radians(tan)
        cross = math.cos(t) * (py - cy) - math.sin(t) * (px - cx)
        return math.copysign(d, cross) if d > 0.0 else 0.0, cx, cy, tan

    def samples(self) -> Sampling:
        """The sampling record.  A method only for the benchmark: perfbench's
        workloads call it at set-up, and its tracer times it."""
        return self.sampling


def _segment_extremes(seg):
    """Points where a segment can touch its bounding box."""
    pts = [seg.start, seg.end]
    if isinstance(seg, Arc):
        for axis_deg in (0.0, 90.0, 180.0, 270.0):
            if seg._sweeps_over(axis_deg):
                a = math.radians(axis_deg)
                pts.append((seg.cx + seg.radius * math.cos(a), seg.cy + seg.radius * math.sin(a)))
    return pts


def lateral_deviation(track: Track, pose: Pose) -> float:
    """Signed distance from the pose to the track centerline (+ is left)."""
    return track.closest(pose.x, pose.y)[0]


def rounded_rectangle_segments(center, straight: float = 1.0, corner_radius: float = 0.3):
    """Counterclockwise loop of four straights joined by quarter arcs."""
    cx, cy = center
    a = straight / 2.0
    r = corner_radius
    return [
        Straight(cx - a, cy - a - r, cx + a, cy - a - r),
        Arc(cx + a, cy - a, r, 270.0, 90.0),
        Straight(cx + a + r, cy - a, cx + a + r, cy + a),
        Arc(cx + a, cy + a, r, 0.0, 90.0),
        Straight(cx + a, cy + a + r, cx - a, cy + a + r),
        Arc(cx - a, cy + a, r, 90.0, 90.0),
        Straight(cx - a - r, cy + a, cx - a - r, cy - a),
        Arc(cx - a, cy - a, r, 180.0, 90.0),
    ]


@dataclass(frozen=True)
class VehicleParams:
    """Differential-drive parameters.

    power_to_speed converts one wheel's power value to track speed in m/s, so
    the defaults give 0.25 m/s at the nominal straight-line power of 100/3.
    """

    wheel_separation: float = 0.12
    power_to_speed: float = 0.0075
    max_power: float = 255.0

    def __post_init__(self):
        # The largest speed and turn rate that Motion computes: an infinite
        # one would reach math.sin(inf) in Motion.advance.
        p, top = self.power_to_speed, self.max_power
        if not (math.isfinite(p * (top + top)) and math.isfinite(p * top / self.wheel_separation)):
            raise ValueError("speed or turn rate at max_power overflows")


class Motion:
    """Constant wheel powers over ticks of dt seconds: the per-tick constants
    of the kinematics, computed once per power pair.

    Powers clamp to [0, max_power].  Each tick integrates the exact circular
    arc, a straight line when |omega| < 1e-12, so splitting dt into sub-steps
    changes nothing.
    """

    __slots__ = ("straight", "v_dt", "omega_dt", "radius")

    def __init__(self, left: float, right: float, dt: float, params: VehicleParams):
        left = min(params.max_power, max(0.0, left))
        right = min(params.max_power, max(0.0, right))
        v = params.power_to_speed * (left + right) / 2.0
        omega = params.power_to_speed * (right - left) / params.wheel_separation
        self.straight = abs(omega) < 1e-12
        self.v_dt = v * dt
        self.omega_dt = omega * dt
        self.radius = 0.0 if self.straight else v / omega

    def advance(self, x, y, heading, ticks, last_abs=0.0, last_x=0.0, last_y=0.0,
                threshold=math.inf):
        """Step from (x, y, heading deg) through one tick, then on through
        up to `ticks` (at least 1) in all; returns the (x, y, heading)
        reached and the number of ticks stepped.

        After each tick, the crash bound at the pose reached, last_abs + its
        distance from (last_x, last_y) + 1e-9, is compared with threshold,
        and the call stops where the bound reaches it.  The pose is not
        checked: a non-finite one stays non-finite, and Pose rejects it.
        """
        hypot, radians, degrees, fmod = math.hypot, math.radians, math.degrees, math.fmod
        sin, cos = math.sin, math.cos
        straight, v_dt, omega_dt, radius = self.straight, self.v_dt, self.omega_dt, self.radius
        for k in range(1, ticks + 1):
            theta0 = radians(heading)
            if straight:
                x = x + v_dt * cos(theta0)
                y = y + v_dt * sin(theta0)
            else:
                theta1 = theta0 + omega_dt
                x = x + radius * (sin(theta1) - sin(theta0))
                y = y + radius * (cos(theta0) - cos(theta1))
                # normalize_heading(degrees(theta1)), inlined.  fmod keeps the
                # sign and stays below 360 in size, so only a negative angle,
                # wrapped, can round up to 360.0.
                heading = fmod(degrees(theta1), 360.0)
                if heading < 0.0:
                    heading += 360.0
                    if heading == 360.0:
                        heading = 0.0
            if last_abs + hypot(x - last_x, y - last_y) + 1e-9 >= threshold:
                return x, y, heading, k
        return x, y, heading, ticks


def step_vehicle(pose: Pose, left: float, right: float, dt: float, params: VehicleParams) -> Pose:
    """Advance the vehicle by dt seconds under constant wheel powers: one
    Motion tick.  A non-finite result raises ValueError."""
    x, y, heading, _ = Motion(left, right, dt, params).advance(pose.x, pose.y, pose.heading, 1)
    return Pose(x, y, heading)
