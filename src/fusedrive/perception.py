"""Virtual camera observations and the angle math that turns them into errors.

Two camera kinds exist.  The on-vehicle camera sees a short strip of board
directly ahead and reports only how far the line center sits from the image
center column.  Overhead infrastructure cameras look straight down at part of
the board, find the two coloured heading markers on the vehicle roof plus a
square look-ahead window of line around the point in front of the vehicle,
and derive the vehicle angle, the line angle, and the angular offset to the
line from pixel coordinates alone.

Image coordinates are y-down, so projecting from the y-up board flips y.

A frame reads the longest run of its mask through a slice when the run is
one stretch of the mask (most frames), and through its index array when it
is joined across sample 0 or split.  The slice path is exact: it holds the
same samples in the same order as the index array, both contiguous, so
np.add.reduce sums the same sequence the same way, and the middle tangent
is the same sample.  The masks are built in place from the same float
operations as the full-mask oracle in the tests.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .world import SAMPLE_BLOCK

ONBOARD = "onboard"
INFRASTRUCTURE = "infrastructure"

# Pixels kept clear between the coverage area and the image border so that
# jittered centers still land inside the frame.
_EDGE_MARGIN_PX = 5.0


@dataclass(frozen=True)
class MarkerLayout:
    """Roof marker geometry: green marker at the rear, orange at the front."""

    separation: float = 0.10  # green center to orange center (m)
    body_radius: float = 0.06  # line hidden under the chassis (m)


@dataclass(frozen=True)
class CameraModel:
    """One camera's imaging geometry.

    For an infrastructure camera, coverage is the board rectangle
    (x0, y0, x1, y1) it can see and crop_size is the half-size in pixels of
    the look-ahead window.  For the on-vehicle camera, coverage is unused,
    look_ahead is the board distance from vehicle center to the near edge of
    the imaged strip, and crop_size is the strip depth in pixel rows.
    """

    kind: str
    pixels_per_meter: float
    image_width: int
    image_height: int
    crop_size: int
    coverage: tuple
    look_ahead: float
    noise_px: float
    # Derived once at construction: observe reads them every frame.
    center_x: float = field(init=False, repr=False, compare=False)  # image center (px)
    center_y: float = field(init=False, repr=False, compare=False)
    crop_m: float = field(init=False, repr=False, compare=False)  # crop_size (m)
    half_width_m: float = field(init=False, repr=False, compare=False)  # image_width / 2 (m)
    board_mid: tuple = field(default=None, init=False, repr=False, compare=False)  # of coverage

    def __post_init__(self):
        if self.kind not in (ONBOARD, INFRASTRUCTURE):
            raise ValueError(f"unknown camera kind {self.kind!r}")
        if self.crop_size * 2 >= min(self.image_width, self.image_height):
            raise ValueError("crop window must fit inside the image")
        if self.kind == INFRASTRUCTURE:
            if self.coverage is None:
                raise ValueError("infrastructure camera needs a coverage rectangle")
            x0, y0, x1, y1 = self.coverage
            if not (x0 < x1 and y0 < y1):
                raise ValueError("coverage rectangle is empty")
            # The whole coverage area must project inside the frame.
            w_px = (x1 - x0) * self.pixels_per_meter
            h_px = (y1 - y0) * self.pixels_per_meter
            if w_px > self.image_width - 2 * _EDGE_MARGIN_PX or h_px > self.image_height - 2 * _EDGE_MARGIN_PX:
                raise ValueError("coverage rectangle does not fit in the image")
            object.__setattr__(self, "board_mid", ((x0 + x1) / 2.0, (y0 + y1) / 2.0))
        object.__setattr__(self, "center_x", self.image_width / 2.0)
        object.__setattr__(self, "center_y", self.image_height / 2.0)
        object.__setattr__(self, "crop_m", self.crop_size / self.pixels_per_meter)
        object.__setattr__(self, "half_width_m", self.image_width / (2.0 * self.pixels_per_meter))

    def to_pixel(self, x: float, y: float):
        """Project a board point to image pixels (y-down)."""
        mx, my = self.board_mid
        return (self.center_x + (x - mx) * self.pixels_per_meter,
                self.center_y - (y - my) * self.pixels_per_meter)

    def jitter(self, rng) -> float:
        """rng.uniform(-noise_px, noise_px), by that method's own formula and
        draw; 0.0 without an rng or noise."""
        noise = self.noise_px
        if rng is None or noise <= 0.0:
            return 0.0
        return -noise + (noise - -noise) * rng.random()


def onboard_camera(pixels_per_meter=2000.0, image_width=320, image_height=240,
                   crop_size=80, look_ahead=0.06, noise_px=2.0) -> CameraModel:
    return CameraModel(ONBOARD, pixels_per_meter, image_width, image_height,
                       crop_size, None, look_ahead, noise_px)


def infrastructure_camera(coverage, pixels_per_meter=300.0, image_width=1280,
                          image_height=720, crop_size=75, noise_px=2.0) -> CameraModel:
    return CameraModel(INFRASTRUCTURE, pixels_per_meter, image_width, image_height,
                       crop_size, tuple(coverage), 0.0, noise_px)


class MarkerObservation(NamedTuple):
    """Detected roof marker centers in image pixels."""

    green: tuple
    orange: tuple
    visible: bool


class LineBoxObservation(NamedTuple):
    """Bounding box of the detected line chunk, minAreaRect style.

    raw_angle is in [-90, 0]; together with width/height it encodes the line
    direction modulo 180 degrees.  visible_fraction compares the chunk length
    against a full view for confidence scaling.
    """

    center: tuple
    width: float
    height: float
    raw_angle: float
    visible_fraction: float

    @property
    def visible(self) -> bool:
        return self.visible_fraction > 0.0


_NO_MARKERS = MarkerObservation((0.0, 0.0), (0.0, 0.0), False)
_NO_LINE = LineBoxObservation((0.0, 0.0), 0.0, 0.0, 0.0, 0.0)


def fold_line_angle(direction_deg: float, long_px: float, short_px: float):
    """Fold a line direction into the box (width, height, raw_angle) encoding.

    direction_deg is the line direction modulo 180.  Directions at or below
    90 map to a landscape box with raw_angle = -direction; steeper ones to a
    portrait box with raw_angle = 90 - direction.
    """
    psi = math.fmod(direction_deg, 180.0)
    if psi < 0.0:
        psi += 180.0
    if psi <= 90.0:
        return long_px, short_px, -psi
    return short_px, long_px, 90.0 - psi


def _clamp(v, lo, hi):
    """min(hi, max(lo, v)), spelled out: the same pick, zeros' signs included."""
    v = v if v > lo else lo
    return v if v < hi else hi


def _longest_run(idx: np.ndarray, n: int):
    """Longest circular run of idx, the sorted indices of a mask's samples in
    a loop of n, when they form more than one stretch; ties go to the run
    that starts first."""
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    # The sampling is circular: a run touching sample n - 1 joins one at sample 0.
    if idx[0] == 0 and idx[-1] == n - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return max(runs, key=len)


def _mean(a: np.ndarray) -> float:
    """np.mean of a 1-D float64 array, bit for bit, without its call overhead."""
    return float(np.add.reduce(a)) / a.size


def _window(track, x0, x1, y0, y1):
    """(lo, xs, ys): columns from sample lo on that hold every sample inside
    [x0, x1] x [y0, y1], or None when none can be.

    The slice runs from the first to the last sample block whose bounding
    box meets the rectangle; a sample inside the rectangle lies in its
    block's box, so that block is one of them.  When the hit blocks include
    the first and the last one (a window across sample 0) the slice is the
    whole loop, so circular runs still join.
    """
    sampling = track.sampling
    hit = [i for i, (bx0, bx1, by0, by1) in enumerate(sampling.boxes)
           if bx0 <= x1 and bx1 >= x0 and by0 <= y1 and by1 >= y0]
    if not hit:
        return None
    lo, hi = hit[0] * SAMPLE_BLOCK, (hit[-1] + 1) * SAMPLE_BLOCK
    return lo, sampling.xs[lo:hi], sampling.ys[lo:hi]


def _line_box(camera, track, mask, lo, center, heading, full_m):
    """Box of the longest run of mask (entry 0 is sample lo), or _NO_LINE.

    center(sel) gives its center pixel from the run's entries of the masked
    columns, sel being a slice (one stretch) or an index array (a joined or
    split run); heading is the board direction (deg) of image up, None for
    the board's +y; full_m is the chunk length of a full view.
    """
    idx = mask.nonzero()[0]
    size = idx.size
    if size == 0:
        return _NO_LINE
    first = idx.item(0)
    sampling = track.sampling
    if idx.item(-1) - first == size - 1:
        sel = slice(first, first + size)
        mid = lo + first + size // 2
    else:
        idx += lo
        run = _longest_run(idx, sampling.xs.size)
        size = run.size
        mid = run.item(size // 2)
        sel = run - lo
    length = size * sampling.step
    chunk_center = center(sel)
    direction = sampling.tans.item(mid)
    if heading is not None:
        direction = direction - heading + 90.0
    w, h, raw = fold_line_angle(direction, length * camera.pixels_per_meter,
                                track.line_width * camera.pixels_per_meter)
    return LineBoxObservation(chunk_center, w, h, raw, min(1.0, length / full_m))


def observe(camera: CameraModel, track, pose, layout: MarkerLayout = MarkerLayout(), rng=None):
    """Render one virtual frame: marker centers plus the line chunk box.

    The line chunk is the longest contiguous piece of centerline that falls
    inside the camera's look-ahead window, inside its coverage, and outside
    the vehicle footprint, mirroring a largest-black-region search.  Returns
    (MarkerObservation, LineBoxObservation); both come back invisible when
    the vehicle or the line is out of view.

    Only the samples in the blocks that the window's bounding box reaches
    are masked (see _window); the others cannot pass the mask.
    """
    if camera.kind == ONBOARD:
        return _observe_onboard(camera, track, pose, layout, rng)
    return _observe_infrastructure(camera, track, pose, layout, rng)


# Margin (m) around the onboard strip's box: far above the rounding in u and v.
_STRIP_PAD = 1e-6


def _observe_onboard(camera, track, pose, layout, rng):
    theta = math.radians(pose.heading)
    c, s = math.cos(theta), math.sin(theta)
    depth = camera.crop_m
    half_w = camera.half_width_m
    # Axis-aligned box of the strip's four corners.
    mid = camera.look_ahead + depth / 2.0
    mx, my = pose.x + mid * c, pose.y + mid * s
    ex = depth / 2.0 * abs(c) + half_w * abs(s) + _STRIP_PAD
    ey = depth / 2.0 * abs(s) + half_w * abs(c) + _STRIP_PAD
    window = _window(track, mx - ex, mx + ex, my - ey, my + ey)
    if window is None:
        return _NO_MARKERS, _NO_LINE
    lo, xs, ys = window
    dx = xs - pose.x
    dy = ys - pose.y
    u = dx * c  # forward (m): dx * c + dy * s
    tmp = dy * s
    u += tmp
    # Left (m): -dx * s + dy * c, which is dy * c - dx * s bit for bit.
    v = np.multiply(dy, c, out=dy)
    v -= np.multiply(dx, s, out=dx)
    mask = u >= camera.look_ahead
    mask &= u <= camera.look_ahead + depth
    mask &= np.abs(v, out=tmp) <= half_w
    np.multiply(u, u, out=tmp)
    tmp += np.multiply(v, v, out=dx)
    mask &= tmp > layout.body_radius ** 2

    def center(sel):
        x_px = camera.center_x - _mean(v[sel]) * camera.pixels_per_meter + camera.jitter(rng)
        return _clamp(x_px, 0.0, float(camera.image_width)), camera.crop_size / 2.0

    return _NO_MARKERS, _line_box(camera, track, mask, lo, center, pose.heading, depth)


def _observe_infrastructure(camera, track, pose, layout, rng):
    theta = math.radians(pose.heading)
    hx, hy = math.cos(theta), math.sin(theta)
    half = layout.separation / 2.0
    gbx, gby = pose.x - half * hx, pose.y - half * hy
    obx, oby = pose.x + half * hx, pose.y + half * hy
    x0c, y0c, x1c, y1c = camera.coverage
    if not (x0c <= gbx <= x1c and y0c <= gby <= y1c
            and x0c <= obx <= x1c and y0c <= oby <= y1c):
        return _NO_MARKERS, _NO_LINE
    width, height = float(camera.image_width), float(camera.image_height)
    gx, gy = camera.to_pixel(gbx, gby)
    ox, oy = camera.to_pixel(obx, oby)
    gx = _clamp(gx + camera.jitter(rng), 0.0, width)
    gy = _clamp(gy + camera.jitter(rng), 0.0, height)
    ox = _clamp(ox + camera.jitter(rng), 0.0, width)
    oy = _clamp(oy + camera.jitter(rng), 0.0, height)
    markers = MarkerObservation((gx, gy), (ox, oy), True)

    # Look-ahead window around the point one marker gap ahead of the nose,
    # derived from the jittered pixels exactly as the fix computations do.
    fx_px, fy_px = front_point(markers)
    half_m = camera.crop_m
    mx, my = camera.board_mid
    fx_b = mx + (fx_px - camera.center_x) / camera.pixels_per_meter
    fy_b = my - (fy_px - camera.center_y) / camera.pixels_per_meter
    wx0, wx1 = max(fx_b - half_m, x0c), min(fx_b + half_m, x1c)
    wy0, wy1 = max(fy_b - half_m, y0c), min(fy_b + half_m, y1c)
    if wx0 >= wx1 or wy0 >= wy1:
        return markers, _NO_LINE
    window = _window(track, wx0, wx1, wy0, wy1)
    if window is None:
        return markers, _NO_LINE
    lo, xs, ys = window
    mask = xs >= wx0
    mask &= xs <= wx1
    mask &= ys >= wy0
    mask &= ys <= wy1
    dx = xs - pose.x
    dy = ys - pose.y
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    mask &= dx > layout.body_radius ** 2

    def center(sel):
        cx, cy = camera.to_pixel(_mean(xs[sel]), _mean(ys[sel]))
        return (_clamp(cx + camera.jitter(rng), 0.0, width),
                _clamp(cy + camera.jitter(rng), 0.0, height))

    return markers, _line_box(camera, track, mask, lo, center, None, half_m)


def front_point(markers: MarkerObservation):
    """Pixel point half a marker gap beyond the orange (front) marker."""
    gx, gy = markers.green
    ox, oy = markers.orange
    return (ox + (ox - gx) / 2.0, oy + (oy - gy) / 2.0)


def compute_robot_angle(green, orange) -> float:
    """Vehicle heading in degrees from the two marker centers.

    Pixel coordinates are y-down, so the final reflection converts back to
    the counterclockwise board convention.  Output is in [0, 360).
    """
    gx, gy = green
    ox, oy = orange
    if gx == ox:
        if gy == oy:
            raise ValueError("degenerate marker pair")
        return 90.0 if gy > oy else 270.0
    # atan * 180 / pi, in this operation order, for bit-stable results.
    ang = math.atan((oy - gy) / (ox - gx)) * 180.0 / math.pi
    if gx > ox:
        ang = 180.0 + ang
    elif ang < 0.0:
        ang = 360.0 + ang
    ang = 360.0 - ang
    return 0.0 if ang == 360.0 else ang


def disambiguate_line_angle(width: float, height: float, raw_angle: float,
                            vehicle_angle: float) -> float:
    """Expand a box angle (known modulo 180) to the direction of travel.

    The vehicle's own heading picks between the two candidates, assuming it
    drives roughly along the line.
    """
    if width > height:
        if vehicle_angle > 135.0:
            return 180.0 - raw_angle
        return -raw_angle
    if vehicle_angle > 270.0 or vehicle_angle < 45.0:
        return 270.0 - raw_angle
    return 90.0 - raw_angle


def direction_fix(line_angle: float, vehicle_angle: float) -> float:
    """Signed angle from vehicle heading to line direction, short way round."""
    d = line_angle - vehicle_angle
    if d < -300.0:
        d += 360.0
    elif d > 300.0:
        d -= 360.0
    if d < -90.0:
        d += 180.0
    elif d > 90.0:
        d -= 180.0
    return d


def position_fix(front, line_center, vehicle_angle: float) -> float:
    """Signed bearing from the look-ahead point to the line chunk center.

    Works on y-down pixel coordinates; positive means the line lies to the
    vehicle's left.  The result is folded into [-90, 90] so that overshooting
    the line flips the sign rather than growing past a quarter turn.
    """
    fx, fy = front
    lx, ly = line_center
    ang = vehicle_angle
    if lx == fx and ly == fy:
        return 0.0
    if lx == fx:
        offset = 90.0 - ang if ang < 180.0 else 270.0 - ang
    else:
        temp = math.atan((fy - ly) / (lx - fx)) * 180.0 / math.pi
        if temp < 0.0:
            temp = 360.0 + temp if ang > 225.0 else 180.0 + temp
        elif 135.0 < ang < 315.0:
            temp = 180.0 + temp
        offset = temp - ang
    if offset > 180.0:
        offset -= 360.0
    elif offset < -180.0:
        offset += 360.0
    if offset < -90.0:
        offset += 180.0
    elif offset > 90.0:
        offset -= 180.0
    return offset


def onboard_offset(x_min: float, center: float) -> float:
    """Steering error from the line center column of the on-vehicle camera,
    whose image center column is center: 0.333 per pixel."""
    return 0.333 * (center - x_min)


def confidence_from_visibility(fraction: float) -> int:
    """Confidence in [0, 100] from the visible fraction of a full view."""
    return int(round(100.0 * fraction))
