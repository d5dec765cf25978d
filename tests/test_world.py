"""Geometry and kinematics tests against closed-form oracles."""

import math
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusedrive import world
from fusedrive.scenario import track_from_config
from fusedrive.world import (
    Arc,
    ConfigError,
    Motion,
    Pose,
    SAMPLE_BLOCK,
    Straight,
    Track,
    VehicleParams,
    lateral_deviation,
    normalize_heading,
    rounded_rectangle_segments,
    step_vehicle,
)

from oracles import (oracle_point_at, oracle_step_vehicle, oracle_track_closest,
                     oracle_track_samples, oracle_track_sampling)


def square_loop_track(side=1.0, radius=0.2):
    """Four straights joined by quarter arcs, centered on the board."""
    return Track(rounded_rectangle_segments((1.0, 1.0), side, radius))


class TestTrackConstruction:
    def test_square_loop_length(self):
        # 4 straights of 1 m plus a full circle of radius 0.2 worth of arcs.
        track = square_loop_track(1.0, 0.2)
        expected = 4.0 + 2.0 * math.pi * 0.2
        assert track.total_length == pytest.approx(expected, abs=1e-12)

    def test_circle_track_length(self):
        track = track_from_config({"kind": "circle", "center": [1.0, 1.0], "radius": 0.5})
        assert track.total_length == pytest.approx(math.pi, abs=1e-12)

    def test_point_at_wraps(self):
        track = square_loop_track()
        x0, y0, t0 = track.point_at(0.0)
        x1, y1, t1 = track.point_at(track.total_length)
        assert (x0, y0, t0) == pytest.approx((x1, y1, t1), abs=1e-9)

    def test_length_is_capped_by_the_sample_count(self):
        # A 262.144 m cap: 2**17 samples of 2 mm.
        board = {"kind": "circle", "board_size": 100.0, "center": [50.0, 50.0]}
        assert track_from_config(dict(board, radius=41.7)).total_length > 262.0
        with pytest.raises(ConfigError, match="^track is 263.9 m long, over the limit of 262.144 m$"):
            track_from_config(dict(board, radius=42.0))
        endless = [Straight(0.0, 0.0, math.inf, 0.0), Straight(math.inf, 0.0, 0.0, 0.0)]
        with pytest.raises(ConfigError, match="^track is inf m long"):
            Track(endless, board_size=math.inf)

    def test_non_closing_loop_rejected(self):
        segs = [
            Straight(0.5, 0.5, 1.5, 0.5),
            Straight(1.5, 0.6, 0.5, 0.6),  # gap of 0.1 at the joint
        ]
        with pytest.raises(ConfigError, match="segment 0"):
            Track(segs)

    def test_off_board_track_rejected(self):
        with pytest.raises(ConfigError, match="leaves the board"):
            track_from_config({"kind": "circle", "center": [1.0, 1.0], "radius": 1.5})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown track kind"):
            track_from_config({"kind": "triangle"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            track_from_config({"kind": "circle", "radius": 0.5, "colour": "black"})

    def test_explicit_segments(self):
        track = track_from_config({
            "kind": "segments",
            "segments": [
                {"type": "straight", "start": [0.5, 0.7], "end": [1.5, 0.7]},
                {"type": "arc", "center": [1.5, 1.0], "radius": 0.3,
                 "start_deg": 270.0, "sweep_deg": 180.0},
                {"type": "straight", "start": [1.5, 1.3], "end": [0.5, 1.3]},
                {"type": "arc", "center": [0.5, 1.0], "radius": 0.3,
                 "start_deg": 90.0, "sweep_deg": 180.0},
            ],
        })
        assert track.total_length == pytest.approx(2.0 + 2.0 * math.pi * 0.3)


class TestLateralDeviation:
    def test_center_of_circle(self):
        track = track_from_config({"kind": "circle", "center": [1.0, 1.0], "radius": 0.5})
        assert abs(lateral_deviation(track, Pose(1.0, 1.0, 0.0))[0]) == pytest.approx(0.5)

    def test_sign_left_positive(self):
        track = square_loop_track()
        # Bottom straight runs +x at y = 0.3; above it is the track's left.
        assert lateral_deviation(track, Pose(1.0, 0.35, 0.0))[0] > 0
        assert lateral_deviation(track, Pose(1.0, 0.25, 0.0))[0] < 0

    def test_on_line_zero(self):
        track = square_loop_track()
        x, y, _ = track.point_at(0.37)
        assert lateral_deviation(track, Pose(x, y, 0.0))[0] == pytest.approx(0.0, abs=1e-12)

    def test_circle_offsets(self):
        track = track_from_config({"kind": "circle", "center": [1.0, 1.0], "radius": 0.5})
        # Outside the ccw circle is to the right of travel: negative.
        assert lateral_deviation(track, Pose(1.7, 1.0, 0.0))[0] == pytest.approx(-0.2)
        assert lateral_deviation(track, Pose(1.4, 1.0, 0.0))[0] == pytest.approx(0.1)

    def test_continuity_along_path(self):
        track = square_loop_track()
        rng = random.Random(7)
        # A wobbly path near the line: consecutive deviations stay close.
        s = 0.0
        prev = None
        for _ in range(400):
            s += 0.01
            x, y, _ = track.point_at(s)
            x += rng.uniform(-0.01, 0.01)
            y += rng.uniform(-0.01, 0.01)
            d = lateral_deviation(track, Pose(x, y, 0.0))[0]
            if prev is not None:
                assert abs(d - prev) < 0.04
            prev = d


def _segments_track(items):
    return track_from_config({"kind": "segments", "segments": items})


# Tracks for the pruned ground-truth search and the centreline walk.
FAST_PATH_TRACKS = {
    "rounded_rectangle": lambda: track_from_config(
        {"kind": "rounded_rectangle", "center": [1.0, 1.0], "straight": 1.0,
         "corner_radius": 0.3}),
    "circle": lambda: track_from_config(
        {"kind": "circle", "center": [1.0, 1.0], "radius": 0.5}),
    # Clockwise stadium: negative arc sweeps.
    "segments_clockwise": lambda: _segments_track([
        {"type": "straight", "start": [1.5, 0.7], "end": [0.5, 0.7]},
        {"type": "arc", "center": [0.5, 1.0], "radius": 0.3,
         "start_deg": 270.0, "sweep_deg": -180.0},
        {"type": "straight", "start": [0.5, 1.3], "end": [1.5, 1.3]},
        {"type": "arc", "center": [1.5, 1.0], "radius": 0.3,
         "start_deg": 90.0, "sweep_deg": -180.0},
    ]),
    # A hairpin whose two straights run 1 cm apart: the loop passes close
    # to itself, so far-apart segments tie or nearly tie.
    "segments_hairpin": lambda: _segments_track([
        {"type": "straight", "start": [0.5, 1.0], "end": [1.5, 1.0]},
        {"type": "arc", "center": [1.5, 1.005], "radius": 0.005,
         "start_deg": 270.0, "sweep_deg": 180.0},
        {"type": "straight", "start": [1.5, 1.01], "end": [0.5, 1.01]},
        {"type": "arc", "center": [0.5, 1.005], "radius": 0.005,
         "start_deg": 90.0, "sweep_deg": 180.0},
    ]),
}


def _probe_points(track, seed):
    """Random board points, points near the line, and every special point."""
    rng = random.Random(seed)
    pts = [(rng.uniform(-0.5, 2.5), rng.uniform(-0.5, 2.5)) for _ in range(400)]
    for _ in range(400):
        x, y, _ = track.point_at(rng.uniform(0.0, track.total_length))
        pts.append((x + rng.uniform(-0.03, 0.03), y + rng.uniform(-0.03, 0.03)))
    for seg in track.segments:
        pts.extend([seg.start, seg.end])
        if isinstance(seg, Arc):
            pts.append((seg.cx, seg.cy))
    # Off the board, far and near.
    pts.extend([(-3.0, -3.0), (10.0, 1.0), (1.0, 50.0), (-0.01, 1.0), (2.2, 2.2)])
    # Exactly between the hairpin's straights, and on its axis of symmetry.
    pts.extend([(x, 1.005) for x in (0.3, 0.5, 0.75, 1.0, 1.5, 1.6)])
    pts.extend([(1.0, y) for y in (0.0, 1.0, 1.005, 1.01, 2.0)])
    return pts


@pytest.mark.parametrize("name", sorted(FAST_PATH_TRACKS))
class TestPrunedClosest:
    """The pruned Track.closest equals the full scan, value for value."""

    def test_shuffled_points_match_full_scan(self, name):
        track = FAST_PATH_TRACKS[name]()
        pts = _probe_points(track, 11)
        random.Random(12).shuffle(pts)
        hint = 0
        for px, py in pts:
            got = track.closest(px, py, hint)
            assert got == oracle_track_closest(track, px, py), (px, py)
            hint = got[4]

    def test_path_along_track_matches_full_scan(self, name):
        # Consecutive nearby points pass the previous pick as the first guess.
        track = FAST_PATH_TRACKS[name]()
        rng = random.Random(13)
        s, hint = 0.0, 0
        while s < 2.0 * track.total_length:
            x, y, _ = track.point_at(s)
            px, py = x + rng.uniform(-0.02, 0.02), y + rng.uniform(-0.02, 0.02)
            got = track.closest(px, py, hint)
            assert got == oracle_track_closest(track, px, py), (px, py)
            hint = got[4]
            s += 0.003

    def test_every_first_guess_matches_full_scan(self, name):
        # Whichever segment goes first, the answer is the same.
        track = FAST_PATH_TRACKS[name]()
        pts = _probe_points(track, 14)[::7]
        for px, py in pts:
            expected = oracle_track_closest(track, px, py)
            for i in range(len(track.segments)):
                assert track.closest(px, py, i) == expected, (px, py, i)


@pytest.mark.parametrize("name", sorted(FAST_PATH_TRACKS))
def test_point_at_equals_searchsorted_lookup(name):
    # Segment joints, their neighbours, and random arclengths around the loop.
    track = FAST_PATH_TRACKS[name]()
    rng = random.Random(29)
    total = track.total_length
    joints = np.cumsum([seg.length for seg in track.segments]).tolist()
    points = [0.0, -0.0, total, -total, 3.5 * total] + joints
    points += [math.nextafter(s, d) for s in joints for d in (-math.inf, math.inf)]
    points += [rng.uniform(-2.0 * total, 2.0 * total) for _ in range(500)]
    for s in points:
        assert track.point_at(s) == oracle_point_at(track, s), s


@pytest.mark.parametrize("name", sorted(FAST_PATH_TRACKS))
def test_samples_equal_point_at_loop(name):
    track = FAST_PATH_TRACKS[name]()
    sampling = track.sampling
    assert sampling.xs.flags.c_contiguous and sampling.ys.flags.c_contiguous
    expected = oracle_track_samples(track, len(sampling.xs), sampling.step)
    # Bytes, not array_equal, which takes -0.0 for 0.0.
    for got, exp in zip((sampling.xs, sampling.ys, sampling.tans), expected):
        assert got.tobytes() == np.array(exp).tobytes()


@pytest.mark.parametrize("name", sorted(FAST_PATH_TRACKS))
def test_sample_boxes_bound_each_block(name):
    sampling = FAST_PATH_TRACKS[name]().sampling
    xs, ys, block = sampling.xs, sampling.ys, SAMPLE_BLOCK
    starts = range(0, xs.size, block)
    assert len(sampling.boxes) == len(starts)
    for box, k in zip(sampling.boxes, starts):
        assert box == (min(xs[k:k + block]), max(xs[k:k + block]),
                       min(ys[k:k + block]), max(ys[k:k + block]))
        assert all(type(v) is float for v in box)


def _reversed(seg):
    if isinstance(seg, Arc):
        return Arc(seg.cx, seg.cy, seg.radius, seg.start_deg + seg.sweep_deg, -seg.sweep_deg)
    return Straight(seg.x1, seg.y1, seg.x0, seg.y0)


@st.composite
def _loops(draw):
    """A rounded rectangle, either way round, from any of its segments, its
    first straight cut by a piece shorter than one sample step."""
    r = draw(st.floats(0.001, 0.4))
    ax, ay = draw(st.floats(0.005, 0.9 - r)), draw(st.floats(0.005, 0.9 - r))
    cx = draw(st.floats(ax + r + 1e-6, 2.0 - ax - r - 1e-6))
    cy = draw(st.floats(ay + r + 1e-6, 2.0 - ay - r - 1e-6))
    segs = [Straight(cx - ax, cy - ay - r, cx + ax, cy - ay - r),
            Arc(cx + ax, cy - ay, r, 270.0, 90.0),
            Straight(cx + ax + r, cy - ay, cx + ax + r, cy + ay),
            Arc(cx + ax, cy + ay, r, 0.0, 90.0),
            Straight(cx + ax, cy + ay + r, cx - ax, cy + ay + r),
            Arc(cx - ax, cy + ay, r, 90.0, 90.0),
            Straight(cx - ax - r, cy + ay, cx - ax - r, cy - ay),
            Arc(cx - ax, cy - ay, r, 180.0, 90.0)]
    if draw(st.booleans()):  # clockwise
        segs = [_reversed(seg) for seg in reversed(segs)]
    at = 0 if isinstance(segs[0], Straight) else 1
    first = segs[at]
    cut = draw(st.just(0.0) | st.floats(0.01, 0.9))
    px = first.x0 + cut * (first.x1 - first.x0)
    py = first.y0 + cut * (first.y1 - first.y0)
    tiny = draw(st.floats(1e-7, 1e-3)) / first.length
    qx = px + tiny * (first.x1 - first.x0)
    qy = py + tiny * (first.y1 - first.y0)
    pieces = [Straight(px, py, qx, qy), Straight(qx, qy, first.x1, first.y1)]
    if cut:
        pieces.insert(0, Straight(first.x0, first.y0, px, py))
    segs[at:at + 1] = pieces
    turn = draw(st.integers(0, len(segs) - 1))
    return Track(segs[turn:] + segs[:turn])


@st.composite
def _cut_circles(draw):
    """A circle cut into 2 to 5 arcs at drawn angles, either way round, from
    a start angle that may lie outside [0, 360)."""
    r, start = draw(st.floats(0.001, 0.99)), draw(st.floats(-720.0, 720.0))
    turn = draw(st.sampled_from([1.0, -1.0]))
    cuts = draw(st.lists(st.floats(0.5, 359.5), min_size=1, max_size=4, unique=True))
    bounds = [0.0, *sorted(cuts), 360.0]
    return Track([Arc(1.0, 1.0, r, start + turn * lo, turn * (hi - lo))
                  for lo, hi in zip(bounds, bounds[1:])])


_SAMPLED_TRACKS = st.one_of(
    st.builds(lambda straight, r: Track(rounded_rectangle_segments((1.0, 1.0), straight, r)),
              st.floats(0.001, 1.0), st.floats(0.001, 0.4)),
    st.builds(lambda r, start, sweep: Track([Arc(1.0, 1.0, r, start, sweep)]),
              st.floats(0.001, 0.99), st.floats(-720.0, 720.0), st.sampled_from([360.0, -360.0])),
    _loops(),
    _cut_circles(),
)


@settings(max_examples=150)
@given(_SAMPLED_TRACKS)
# The first tangent is a hair under 0 deg: it wraps to 360.0, read as 0.0.
@example(Track([Arc(1.0, 1.0, 0.5, math.nextafter(90.0, 0.0), -360.0)]))
@example(Track([Arc(1.0, 1.0, 0.5, math.nextafter(-90.0, -math.inf), 360.0)]))
# The first tangent is -270 - 90 deg: fmod gives -0.0, and it stays -0.0.
@example(Track([Arc(1.0, 1.0, 0.5, -270.0, -360.0)]))
def test_sampling_equals_per_sample_walk(track):
    got, exp = track.sampling, oracle_track_sampling(track)
    for a, b in zip(got[:3], exp[:3]):
        assert a.tobytes() == b.tobytes()
    assert got.step == exp.step
    assert got.boxes == exp.boxes


def test_arc_sampling_calls_libm(monkeypatch):
    # With world's cos and sin one ulp above libm's, the arcs' samples must
    # move with point_at's: a fill that computed them some other way (numpy's
    # vectorised cos and sin, say) would not.
    def up(f):
        return lambda a: math.nextafter(f(a), math.inf)

    circle = {"kind": "circle", "center": [1.0, 1.0], "radius": 0.5}
    plain = track_from_config(circle).sampling
    shifted = types.SimpleNamespace(**{n: getattr(math, n) for n in dir(math)})
    shifted.cos, shifted.sin = up(math.cos), up(math.sin)
    monkeypatch.setattr(world, "math", shifted)
    track = track_from_config(circle)
    got, exp = track.sampling, oracle_track_sampling(track)
    assert got.xs.tobytes() != plain.xs.tobytes()
    for a, b in zip(got[:3], exp[:3]):
        assert a.tobytes() == b.tobytes()


class TestStepVehicle:
    def test_straight_displacement(self):
        p = VehicleParams()
        # The nominal straight-line power of 100/3 runs at 0.25 m/s.
        pose = step_vehicle(Pose(1.0, 1.0, 0.0), 100.0 / 3.0, 100.0 / 3.0, 1.0, p)
        assert pose.x == pytest.approx(1.25, abs=1e-12)
        assert pose.y == pytest.approx(1.0, abs=1e-12)
        assert pose.heading == 0.0

    def test_equal_powers_keep_heading(self):
        p = VehicleParams()
        rng = random.Random(1)
        for _ in range(200):
            pose = Pose(rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8), rng.uniform(0, 360))
            power = rng.uniform(0, 255)
            after = step_vehicle(pose, power, power, 0.05, p)
            assert after.heading == pytest.approx(pose.heading, abs=1e-9)

    def test_turn_rate(self):
        p = VehicleParams()
        # omega = power_to_speed * (r - l) / separation, here 0.0075*40/0.12 = 2.5 rad/s.
        pose = step_vehicle(Pose(1.0, 1.0, 0.0), 80, 120, 0.1, p)
        assert pose.heading == pytest.approx(math.degrees(0.25), abs=1e-9)

    def test_time_additivity(self):
        p = VehicleParams()
        rng = random.Random(42)
        for _ in range(300):
            pose = Pose(rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8), rng.uniform(0, 360))
            left, right = rng.uniform(0, 255), rng.uniform(0, 255)
            dt = rng.uniform(0.001, 0.2)
            whole = step_vehicle(pose, left, right, dt, p)
            half = step_vehicle(step_vehicle(pose, left, right, dt / 2, p),
                                left, right, dt / 2, p)
            assert whole.x == pytest.approx(half.x, abs=1e-9)
            assert whole.y == pytest.approx(half.y, abs=1e-9)
            assert math.cos(math.radians(whole.heading)) == pytest.approx(
                math.cos(math.radians(half.heading)), abs=1e-9)
            assert math.sin(math.radians(whole.heading)) == pytest.approx(
                math.sin(math.radians(half.heading)), abs=1e-9)

    def test_mirror_symmetry(self):
        p = VehicleParams()
        rng = random.Random(3)
        for _ in range(200):
            left, right = rng.uniform(0, 255), rng.uniform(0, 255)
            dt = rng.uniform(0.01, 0.2)
            a = step_vehicle(Pose(1.0, 1.0, 90.0), left, right, dt, p)
            b = step_vehicle(Pose(1.0, 1.0, 90.0), right, left, dt, p)
            # Swapping wheels mirrors the motion about the heading axis.
            assert a.y == pytest.approx(b.y, abs=1e-9)
            assert a.x == pytest.approx(2.0 - b.x, abs=1e-9)

    def test_powers_clamped(self):
        p = VehicleParams()
        a = step_vehicle(Pose(1.0, 1.0, 0.0), -50.0, 300.0, 0.1, p)
        b = step_vehicle(Pose(1.0, 1.0, 0.0), 0.0, 255.0, 0.1, p)
        assert (a.x, a.y, a.heading) == (b.x, b.y, b.heading)

    def test_spin_in_place(self):
        p = VehicleParams()
        pose = step_vehicle(Pose(1.0, 1.0, 0.0), 0.0, 0.0, 1.0, p)
        assert (pose.x, pose.y) == (1.0, 1.0)

    def test_exact_quarter_turn_arc(self):
        # Construct powers that give v = r*omega with r = 0.5 m, then check
        # the quarter-circle endpoint analytically.
        p = VehicleParams()
        omega = 0.5  # rad/s
        v = 0.25
        diff = omega * p.wheel_separation / p.power_to_speed  # right - left
        total = 2.0 * v / p.power_to_speed  # left + right
        left, right = (total - diff) / 2.0, (total + diff) / 2.0
        dt = (math.pi / 2.0) / omega
        pose = step_vehicle(Pose(1.0, 1.0, 0.0), left, right, dt, p)
        assert pose.x == pytest.approx(1.5, abs=1e-9)
        assert pose.y == pytest.approx(1.5, abs=1e-9)
        assert pose.heading == pytest.approx(90.0, abs=1e-9)


    def test_matches_closed_form_bit_for_bit(self):
        p = VehicleParams()
        rng = random.Random(5)
        for _ in range(500):
            pose = Pose(rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8), rng.uniform(0, 360))
            left, right = rng.choice([(rng.uniform(-10, 265), rng.uniform(-10, 265)),
                                      (rng.uniform(0, 255),) * 2])
            dt = rng.choice([0.005, rng.uniform(0.001, 0.2)])
            a = step_vehicle(pose, left, right, dt, p)
            b = oracle_step_vehicle(pose, left, right, dt, p)
            assert (a.x, a.y, a.heading) == (b.x, b.y, b.heading)

    def test_non_finite_pose_rejected(self):
        with pytest.raises(ValueError):
            step_vehicle(Pose(1.7e308, 1.0, 0.0), 100.0, 100.0, 1e308, VehicleParams())


class TestMotionStretch:
    """One n-tick Motion.advance is n one-tick steps, bit for bit."""

    @pytest.mark.parametrize("left, right, heading, wraps", [
        (80.0, 120.0, 350.0, True),    # counterclockwise across 360 -> 0
        (120.0, 80.0, 10.0, True),     # clockwise across 0 -> 360
        (100.0, 100.0, 33.0, False),   # equal powers: the straight branch
        (-20.0, 300.0, 0.0, True),     # clamped powers: a spin in place
    ])
    def test_stretch_equals_one_tick_steps(self, left, right, heading, wraps):
        p, dt, n = VehicleParams(), 0.005, 400
        pose = Pose(0.7, 1.3, heading)
        headings = [pose.heading]
        for _ in range(n):
            pose = step_vehicle(pose, left, right, dt, p)
            headings.append(pose.heading)
        x, y, h, ticks, _ = Motion(left, right, dt, p).advance(0.7, 1.3, heading, n)
        assert ticks == n
        assert (x, y, h) == (pose.x, pose.y, pose.heading)
        assert any(abs(b - a) > 180.0 for a, b in zip(headings, headings[1:])) == wraps

    def test_stops_at_first_tick_whose_bound_reaches_threshold(self):
        # 0.00375 m per tick: the bound 0 + 3 * 0.00375 + 1e-9 first reaches 0.01.
        p, dt = VehicleParams(), 0.005
        motion = Motion(100.0, 100.0, dt, p)
        x, y, h, ticks, bound = motion.advance(1.0, 1.0, 0.0, 10, 0.0, 1.0, 1.0, 0.01)
        assert ticks == 3
        pose = Pose(1.0, 1.0, 0.0)
        for _ in range(3):
            pose = step_vehicle(pose, 100.0, 100.0, dt, p)
        assert (x, y, h) == (pose.x, pose.y, pose.heading)
        # The bound returned is the one the tick loop would compute there.
        assert bound == 0.0 + math.hypot(x - 1.0, y - 1.0) + 1e-9
        assert bound >= 0.01
        # A stretch that runs out first returns the bound where it ends.
        x, y, _, ticks, bound = motion.advance(1.0, 1.0, 0.0, 2, 0.0, 1.0, 1.0, 0.01)
        assert ticks == 2
        assert bound == 0.0 + math.hypot(x - 1.0, y - 1.0) + 1e-9 < 0.01
        # The first tick is always stepped, whatever its bound.
        assert motion.advance(1.0, 1.0, 0.0, 10, 0.01, 1.0, 1.0, 0.01)[3] == 1

    def test_tiny_clockwise_turn_from_zero_wraps_to_zero(self):
        # omega * dt = -2e-16 rad: each tick ends at -1.1e-14 deg, which wraps
        # to 360 - 1.1e-14, a float that rounds to 360.0 and must read 0.0.
        p, dt = VehicleParams(), 1e-4
        motion = Motion(100.0, 100.0 - 3.2e-11, dt, p)
        assert not motion.straight
        x, y, h, _, _ = motion.advance(0.7, 1.3, 0.0, 1)
        assert h == 0.0
        pose = Pose(0.7, 1.3, 0.0)
        for _ in range(50):
            pose = oracle_step_vehicle(pose, 100.0, 100.0 - 3.2e-11, dt, p)
        assert motion.advance(0.7, 1.3, 0.0, 50)[:3] == (pose.x, pose.y, pose.heading)


class TestNormalizeHeading:
    def test_wraps(self):
        assert normalize_heading(370.0) == pytest.approx(10.0)
        assert normalize_heading(-10.0) == pytest.approx(350.0)
        assert normalize_heading(360.0) == 0.0
        assert normalize_heading(0.0) == 0.0
