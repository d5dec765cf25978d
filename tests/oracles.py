"""Independent oracles used only by the test suite.

The angle/offset oracles are deliberately line-for-line ports of the
original controller scripts' branch structures, kept separate from the
package implementation so the two can be compared mechanically.  The fusion
oracle re-evaluates the three policies from their definitions, and the track
oracles redo ground truth and the centreline sampling the slow, plain way
(the sampling oracle is Track's build as it was before each segment filled
its own stretch, one segment point_at call per sample).
The observe oracle masks every centreline sample on every frame, as the
camera model first did.  The drive oracle is the tick loop as it was before
ground truth was skipped, ticks coasted and the simulated channel carried
commands: every tick runs in full, searches the centreline, and sends each
command as datagram text for the node to decode.  The kinematics oracle is
the one-tick step in closed form.  The text oracles are the field formatter
and the maximum-confidence pick as they were before their fast paths, and the
vehicle node as it was when it formatted each drive-log row as it logged it.
read_plot_data reads an emitted sweep table back.  use_cpus and
assert_reaped set and check the processes a run or a sweep forks.
"""

import itertools
import logging
import math
import os
import random

import numpy as np
import pytest

from fusedrive.fusion import _THIRDS, POLICIES, drive_tick, log_slots
from fusedrive.metrics import CrashDetector, SampleSeries, correction_metric
from fusedrive.perception import (
    ONBOARD,
    LineBoxObservation,
    MarkerLayout,
    MarkerObservation,
    fold_line_angle,
)
from fusedrive.runner import SensorRuntime, assemble_result, replace_dir, write_outputs
from fusedrive.wire import (ZERO, MalformedDatagram, SteeringCommand,
                            decode_command, encode_command, format_field, merge_deliveries)
from fusedrive.world import (_SAMPLE_STEP, SAMPLE_BLOCK, Pose, Sampling,
                             lateral_deviation, step_vehicle)


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


def oracle_format_field(value) -> str:
    """wire.format_field before its int and float fast paths."""
    if isinstance(value, int):
        return str(value)
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(float(value))


def oracle_fuse_max(cmds):
    """fusion.fuse_max before it took its pick in one pass."""
    if not cmds or all(c.confidence == 0 for c in cmds):
        return None
    chosen = max(reversed(cmds), key=lambda c: c.confidence)
    return chosen.left, chosen.right


class OracleVehicleNode:
    """fusion.VehicleNode as it was before its drive log formatted rows only
    when read: ingest formats the slot text, and each datagram appends its
    row, as text, to rows."""

    def __init__(self, source_ids, policy: str, slot_ids):
        if policy not in POLICIES:
            raise ValueError(f"unknown fusion policy {policy!r}")
        self._index = {sid: k for k, sid in enumerate(source_ids)}
        if len(self._index) != len(source_ids):
            raise ValueError("duplicate source ids")
        self.policy = policy
        self.applied = (0, 0)
        self.rows = []
        self.commands = [ZERO] * len(source_ids)
        self.texts = ["0,0,0,0,0,0"] * (len(source_ids) + 1)
        self._log_slots = [self._index.get(sid, len(source_ids)) for sid in slot_ids]

    @property
    def log(self):
        """The rows, where runner.assemble_result reads a node's drive log."""
        return self.rows

    def ingest(self, source_id, cmd: SteeringCommand):
        k = self._index.get(source_id)
        if k is None:
            logging.getLogger("fusedrive.fusion").warning(
                "ignoring datagram from unknown source %r", source_id)
            return
        raw_left, raw_right, raw_confidence, p, i, d = cmd
        left, right, confidence = raw_left / 3.0, raw_right / 3.0, raw_confidence / 3.0
        self.texts[k] = ",".join((
            _THIRDS.get(raw_left) or format_field(left),
            _THIRDS.get(raw_right) or format_field(right),
            _THIRDS.get(raw_confidence) or format_field(confidence),
            format_field(p), format_field(i), format_field(d),
        ))
        scaled = SteeringCommand(left, right, confidence, p, i, d)
        self.commands[k] = scaled if left > 0 or right > 0 else ZERO

    def handle_datagram(self, source_id, datagram, now: float):
        if isinstance(datagram, (str, bytes)):
            try:
                datagram = decode_command(datagram)
            except MalformedDatagram as exc:
                logging.getLogger("fusedrive.fusion").warning(
                    "dropping malformed datagram from %r: %s", source_id, exc)
                self._log_row(now, degenerate=True)
                return self.applied
        self.ingest(source_id, datagram)
        self.applied, degenerate = drive_tick(self.commands, self.policy, self.applied)
        self._log_row(now, degenerate)
        return self.applied

    def _log_row(self, now: float, degenerate: bool):
        left, right = self.applied
        texts = self.texts
        row = f"{now:.6f},{left},{right}," + ",".join([texts[k] for k in self._log_slots])
        if degenerate:
            row += ",-1"
        self.rows.append(row)


def oracle_fuse(commands, policy):
    """Re-evaluate a fusion policy from its definition.

    commands is the list of stored (left, right, confidence) per source in
    source order; returns (left, right) or None for the degenerate case.
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
    for i, seg in enumerate(track.segments):
        d, cx, cy, tan = seg.closest(px, py)
        if best is None or d < best[0] - 1e-15:
            best = (d, cx, cy, tan, i)
    d, cx, cy, tan, i = best
    t = math.radians(tan)
    cross = math.cos(t) * (py - cy) - math.sin(t) * (px - cx)
    return math.copysign(d, cross) if d > 0.0 else 0.0, cx, cy, tan, i


def oracle_point_at(track, s):
    """Track.point_at with the segment found by np.searchsorted on np.cumsum."""
    cum = np.concatenate([[0.0], np.cumsum([seg.length for seg in track.segments])])
    total = float(cum[-1])
    s = math.fmod(s, total)
    if s < 0.0:
        s += total
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(track.segments) - 1)
    local = float(s - cum[i])
    seg = track.segments[i]
    x, y, tangent = seg.point_at(local)
    return float(x), float(y), tangent


def oracle_track_samples(track, n, step):
    """x, y and tangent lists from one point_at call per sample."""
    xs, ys, tans = [], [], []
    for k in range(n):
        x, y, t = track.point_at(k * step)
        xs.append(x)
        ys.append(y)
        tans.append(t)
    return xs, ys, tans


def oracle_track_sampling(track):
    """track.sampling from one walk along the segments, sample by sample,
    with each block's box as plain min and max over its samples."""
    segments = track.segments
    cum = list(itertools.accumulate((seg.length for seg in segments), initial=0.0))
    n = max(8, int(round(cum[-1] / _SAMPLE_STEP)))
    step = cum[-1] / n
    xs = np.empty(n)
    ys = np.empty(n)
    tans = np.empty(n)
    last = len(segments) - 1
    i = 0
    for k in range(n):
        s = k * step
        while i < last and cum[i + 1] <= s:
            i += 1
        seg = segments[i]
        local = s - cum[i]
        xs[k], ys[k], tans[k] = seg.point_at(local)
    boxes = []
    for k in range(0, n, SAMPLE_BLOCK):
        bx, by = xs[k:k + SAMPLE_BLOCK].tolist(), ys[k:k + SAMPLE_BLOCK].tolist()
        boxes.append((min(bx), max(bx), min(by), max(by)))
    return Sampling(xs, ys, tans, step, boxes)


def _oracle_longest_run(mask):
    """Longest circular run of True entries over the whole mask, or None."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    if idx.size == mask.size:
        return idx
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    runs = [idx[s:e + 1] for s, e in zip(starts, ends)]
    if len(runs) > 1 and idx[0] == 0 and idx[-1] == mask.size - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return max(runs, key=len)


def _oracle_jitter(rng, noise_px):
    if rng is None or noise_px <= 0.0:
        return 0.0
    return rng.uniform(-noise_px, noise_px)


def _oracle_clamp(v, lo, hi):
    return min(hi, max(lo, v))


def _oracle_to_pixel(camera, x, y):
    x0, y0, x1, y1 = camera.coverage
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    px = camera.image_width / 2.0 + (x - mx) * camera.pixels_per_meter
    py = camera.image_height / 2.0 - (y - my) * camera.pixels_per_meter
    return px, py


def _oracle_covers(camera, x, y):
    x0, y0, x1, y1 = camera.coverage
    return x0 <= x <= x1 and y0 <= y <= y1


def oracle_observe(camera, track, pose, layout=MarkerLayout(), rng=None):
    """perception.observe with the mask evaluated on every centreline sample."""
    sampling = track.sampling
    xs, ys, tans, step = sampling.xs, sampling.ys, sampling.tans, sampling.step
    line_width = track.line_width
    jitter, clamp = _oracle_jitter, _oracle_clamp
    no_markers = MarkerObservation((0.0, 0.0), (0.0, 0.0), False)
    no_line = LineBoxObservation((0.0, 0.0), 0.0, 0.0, 0.0, 0.0)
    theta = math.radians(pose.heading)
    if camera.kind == ONBOARD:
        c, s = math.cos(theta), math.sin(theta)
        dx = xs - pose.x
        dy = ys - pose.y
        u = dx * c + dy * s
        v = -dx * s + dy * c
        depth = camera.crop_size / camera.pixels_per_meter
        half_w = camera.image_width / (2.0 * camera.pixels_per_meter)
        mask = (
            (u >= camera.look_ahead)
            & (u <= camera.look_ahead + depth)
            & (np.abs(v) <= half_w)
            & (u * u + v * v > layout.body_radius ** 2)
        )
        run = _oracle_longest_run(mask)
        if run is None:
            return no_markers, no_line
        length = run.size * step
        v_c = float(np.mean(v[run]))
        x_px = camera.image_width / 2.0 - v_c * camera.pixels_per_meter + jitter(rng, camera.noise_px)
        x_px = clamp(x_px, 0.0, float(camera.image_width))
        y_px = camera.crop_size / 2.0
        direction = tans[run[run.size // 2]] - pose.heading + 90.0
        w, h, raw = fold_line_angle(direction, length * camera.pixels_per_meter,
                                    line_width * camera.pixels_per_meter)
        fraction = min(1.0, length / depth)
        return no_markers, LineBoxObservation((x_px, y_px), w, h, raw, fraction)

    hx, hy = math.cos(theta), math.sin(theta)
    half = layout.separation / 2.0
    green_b = (pose.x - half * hx, pose.y - half * hy)
    orange_b = (pose.x + half * hx, pose.y + half * hy)
    if not (_oracle_covers(camera, *green_b) and _oracle_covers(camera, *orange_b)):
        return no_markers, no_line
    gx, gy = _oracle_to_pixel(camera, *green_b)
    ox, oy = _oracle_to_pixel(camera, *orange_b)
    gx = clamp(gx + jitter(rng, camera.noise_px), 0.0, float(camera.image_width))
    gy = clamp(gy + jitter(rng, camera.noise_px), 0.0, float(camera.image_height))
    ox = clamp(ox + jitter(rng, camera.noise_px), 0.0, float(camera.image_width))
    oy = clamp(oy + jitter(rng, camera.noise_px), 0.0, float(camera.image_height))
    markers = MarkerObservation((gx, gy), (ox, oy), True)
    fx_px, fy_px = ox + (ox - gx) / 2.0, oy + (oy - gy) / 2.0
    half_m = camera.crop_size / camera.pixels_per_meter
    x0c, y0c, x1c, y1c = camera.coverage
    mx, my = (x0c + x1c) / 2.0, (y0c + y1c) / 2.0
    fx_b = mx + (fx_px - camera.image_width / 2.0) / camera.pixels_per_meter
    fy_b = my - (fy_px - camera.image_height / 2.0) / camera.pixels_per_meter
    wx0, wx1 = max(fx_b - half_m, x0c), min(fx_b + half_m, x1c)
    wy0, wy1 = max(fy_b - half_m, y0c), min(fy_b + half_m, y1c)
    if wx0 >= wx1 or wy0 >= wy1:
        return markers, no_line
    dx = xs - pose.x
    dy = ys - pose.y
    mask = (
        (xs >= wx0)
        & (xs <= wx1)
        & (ys >= wy0)
        & (ys <= wy1)
        & (dx * dx + dy * dy > layout.body_radius ** 2)
    )
    run = _oracle_longest_run(mask)
    if run is None:
        return markers, no_line
    length = run.size * step
    cx_b = float(np.mean(xs[run]))
    cy_b = float(np.mean(ys[run]))
    cx, cy = _oracle_to_pixel(camera, cx_b, cy_b)
    cx = clamp(cx + jitter(rng, camera.noise_px), 0.0, float(camera.image_width))
    cy = clamp(cy + jitter(rng, camera.noise_px), 0.0, float(camera.image_height))
    direction = tans[run[run.size // 2]]
    w, h, raw = fold_line_angle(direction, length * camera.pixels_per_meter,
                                line_width * camera.pixels_per_meter)
    fraction = min(1.0, length / half_m)
    return markers, LineBoxObservation((cx, cy), w, h, raw, fraction)


def oracle_drive(scenario, out_dir=None):
    """runner.run with the exact centreline search on every tick, and each
    command encoded at send, as a socket carries it, and decoded by the
    oracle node, which formats each drive-log row as it logs it."""
    seq = itertools.count().__next__
    sensors = [SensorRuntime(scenario, s, seq) for s in scenario.sensors]
    channels = [s.channel for s in sensors]
    node = OracleVehicleNode([s.sensor_id for s in scenario.sensors], scenario.fusion,
                       log_slots(scenario.sensors))
    x, y, tangent = scenario.track.point_at(scenario.start_arclength)
    pose = Pose(x, y, tangent)

    correction = SampleSeries("correction")
    deviation = SampleSeries("deviation")
    detector = CrashDetector(scenario.crash_threshold, scenario.crash_hold)
    crash_time = None

    ts = scenario.timestep
    n_ticks = scenario.n_ticks()
    for i in range(n_ticks):
        now = i * ts
        for s in sensors:
            if i % s.period_ticks:
                continue
            text = encode_command(s.tick(scenario, pose, now))
            s.channel.send(s.config.sensor_id, text, now)
        delivered = merge_deliveries(channels, now)
        for source_id, datagram in delivered:
            node.handle_datagram(source_id, datagram, now)
        dev, _ = lateral_deviation(scenario.track, pose)
        if delivered:
            correction.append(now, correction_metric(*node.applied))
            deviation.append(now, dev)
        crash_time = detector.update(now, dev)
        if crash_time is not None:
            break
        pose = step_vehicle(pose, node.applied[0], node.applied[1], ts, scenario.vehicle)

    series = {ser.name: ser for ser in (correction, deviation, *(s.errors for s in sensors))}
    result = assemble_result(scenario, node, sensors, series, crash_time)
    if out_dir is not None:
        with replace_dir(out_dir) as new:
            write_outputs(result, new)
    return result


def oracle_step_vehicle(pose, left, right, dt, params):
    """step_vehicle as one closed-form call, before its constants were shared."""
    left = min(params.max_power, max(0.0, left))
    right = min(params.max_power, max(0.0, right))
    v = params.power_to_speed * (left + right) / 2.0
    omega = params.power_to_speed * (right - left) / params.wheel_separation
    theta0 = math.radians(pose.heading)
    if abs(omega) < 1e-12:
        x = pose.x + v * dt * math.cos(theta0)
        y = pose.y + v * dt * math.sin(theta0)
        return Pose(x, y, pose.heading)
    theta1 = theta0 + omega * dt
    radius = v / omega
    x = pose.x + radius * (math.sin(theta1) - math.sin(theta0))
    y = pose.y + radius * (math.cos(theta0) - math.cos(theta1))
    return Pose(x, y, math.degrees(theta1))


def read_plot_data(path):
    """Parse an emitted .dat file back into (column names, data array)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().lstrip("#").split()
        rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, data


def use_cpus(monkeypatch, n):
    """Make n CPUs usable, as runner.usable_cpus counts them for a sweep or a
    written run; returns the list of the pids that os.fork starts from here on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    # Not os.waitpid(-1, ...): a test that used a spawn pool leaves this
    # process multiprocessing's resource tracker as a child for good.
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
