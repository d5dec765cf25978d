"""Independent oracles used only by the test suite.

The angle/offset oracles are deliberately line-for-line ports of the
original controller scripts' branch structures, kept separate from the
package implementation so the two can be compared mechanically.  The fusion
oracle re-evaluates the three policies from their definitions, and the track
oracles redo ground truth and the centreline sampling the slow, plain way.
"""

import math
import random


def oracle_compute_robot_angle(greencx, greency, orangecx, orangecy):
    if greencx - orangecx == 0:
        if greency > orangecy:
            ang = 90.0
        else:
            ang = 270.0
    else:
        ang = math.atan((orangecy - greency) / (orangecx - greencx)) * 180.0 / math.pi
        if greencx > orangecx:
            ang = 180.0 + ang
        elif ang < 0:
            ang = 360.0 + ang
        ang = 360.0 - ang
    return ang  # note: yields 360.0 for the rightward horizontal case


def oracle_disambiguate(width, height, raw_angle, robot_angle):
    if width > height:
        if robot_angle > 135:
            lineangle = 180.0 - raw_angle
        else:
            lineangle = -raw_angle
    else:
        if robot_angle > 270 or robot_angle < 45:
            lineangle = 270.0 - raw_angle
        else:
            lineangle = 90.0 - raw_angle
    return lineangle


def oracle_direction_fix(line_angle, robot_angle):
    d = line_angle - robot_angle
    if d < -300:
        d = d + 360.0
    elif d > 300:
        d = d - 360.0
    if d < -90:
        d = d + 180.0
    elif d > 90:
        d = d - 180.0
    return d


def oracle_position_fix(front_x, front_y, line_x, line_y, ang):
    if line_x - front_x == 0:
        if ang < 180:
            p = 90.0 - ang
        else:
            p = 270.0 - ang
    else:
        temp = math.atan((front_y - line_y) / (line_x - front_x)) * 180.0 / math.pi
        if temp < 0:
            if ang > 225:
                temp = 360.0 + temp
            else:
                temp = 180.0 + temp
        elif 135 < ang < 315:
            temp = 180.0 + temp
        p = temp - ang
    if p > 180:
        p = p - 360.0
    elif p < -180:
        p = p + 360.0
    if p < -90:
        p = p + 180.0
    elif p > 90:
        p = p - 180.0
    return p


def marker_pairs(seed, n, integer_grid):
    """Distinct marker-center pairs, integer-pixel or real-valued."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if integer_grid:
            g = (rng.randint(0, 1280), rng.randint(0, 720))
            o = (rng.randint(0, 1280), rng.randint(0, 720))
        else:
            g = (rng.uniform(0, 1280), rng.uniform(0, 720))
            o = (rng.uniform(0, 1280), rng.uniform(0, 720))
        if g != o:
            out.append((g, o))
    return out


def disambiguation_inputs(seed, n, integer_grid):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if integer_grid:
            w, h = rng.randint(1, 200), rng.randint(1, 200)
            raw = float(-rng.randint(0, 90))
            ang = float(rng.randint(0, 360))
        else:
            w, h = rng.uniform(0.1, 200), rng.uniform(0.1, 200)
            raw = rng.uniform(-90.0, 0.0)
            ang = rng.uniform(0.0, 360.0)
        out.append((w, h, raw, ang))
    return out


def direction_inputs(seed, n, integer_grid):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if integer_grid:
            line = float(rng.randint(0, 360))
            ang = float(rng.randint(0, 360))
        else:
            line = rng.uniform(0.0, 360.0)
            ang = rng.uniform(0.0, 360.0)
        out.append((line, ang))
    return out


def position_inputs(seed, n, integer_grid):
    """(front, line, ang) triples with distinct points."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if integer_grid:
            f = (rng.randint(0, 1280), rng.randint(0, 720))
            l = (rng.randint(0, 1280), rng.randint(0, 720))
            ang = float(rng.randint(0, 359))
        else:
            f = (rng.uniform(0, 1280), rng.uniform(0, 720))
            l = (rng.uniform(0, 1280), rng.uniform(0, 720))
            ang = rng.uniform(0.0, 360.0)
        if f != l:
            out.append((f, l, ang))
    return out


def oracle_fuse(commands, policy):
    """Re-evaluate a fusion policy from its definition.

    commands is the list of stored (left, right, confidence) per source in
    registry order; returns (left, right) or None for the degenerate case.
    """
    if policy == "maximum_confidence":
        if all(c[2] == 0 for c in commands):
            return None
        best = None
        best_conf = None
        for left, right, conf in commands:
            if best_conf is None or conf >= best_conf:
                best, best_conf = (left, right), conf
        return best
    if policy == "simple_average":
        denom = sum(1 for c in commands if c[2] != 0)
        if denom == 0:
            return None
        return (sum(c[0] for c in commands) / denom,
                sum(c[1] for c in commands) / denom)
    if policy == "confidence_weighted":
        total = sum(c[2] for c in commands)
        if total == 0:
            return None
        return (sum(c[2] * c[0] for c in commands) / total,
                sum(c[2] * c[1] for c in commands) / total)
    raise ValueError(policy)


def oracle_track_closest(track, px, py):
    """Track.closest as a full scan: every segment, in index order, no pruning."""
    best = None
    for seg in track.segments:
        d, cx, cy, tan = seg.closest(px, py)
        if best is None or d < best[0] - 1e-15:
            best = (d, cx, cy, tan)
    d, cx, cy, tan = best
    t = math.radians(tan)
    cross = math.cos(t) * (py - cy) - math.sin(t) * (px - cx)
    return math.copysign(d, cross) if d > 0.0 else 0.0, cx, cy, tan


def oracle_track_samples(track, n, step):
    """x, y and tangent lists from one point_at call per sample."""
    xs, ys, tans = [], [], []
    for k in range(n):
        x, y, t = track.point_at(k * step)
        xs.append(x)
        ys.append(y)
        tans.append(t)
    return xs, ys, tans
