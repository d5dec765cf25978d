"""Fixed-timestep experiment runner: the one tick loop of both transports.

Each tick: sensors due this tick observe the world, run their PID, pass the
command through their outage gate, and send it into their seeded simulated
channel; the vehicle node takes the datagrams due now and re-fuses per
datagram; metrics record; the vehicle steps.  Ticks on which none of that
can matter coast: the vehicle steps alone.  Everything derives from the
scenario seed, so a run is a pure function of (scenario, seed) and its
artifacts are byte-identical across repeats.  `udp.run_udp` runs the same
loop and hands `run` a hook that carries each delivery across a socket.
`run` claims its output directory before the first tick and `write_outputs`
fills it: the one place a run's drive log (RunResult.rows) is formatted,
each row once, as it streams to the file.
"""

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import random
import shutil
import stat
from dataclasses import dataclass

from .control import PidState, sensor_tick
from .faults import OutageSchedule, gate
from .fusion import DRIVE_LOG_HEADER, DriveLog, VehicleNode, log_slots
from .metrics import (
    CrashDetector,
    SampleSeries,
    correction_metric,
    post_outage_window,
    summarize,
)
from .perception import observe
from .scenario import Scenario, derive_seed
from .wire import (
    SimulatedChannel,
    SteeringCommand,
    finite_command,
    first_due_tick,
    merge_deliveries,
)
from .world import Motion, Pose, lateral_deviation


@dataclass
class RunResult:
    scenario_name: str
    seed: int
    fusion: str
    duration: float
    completed: bool
    crash_time: float
    run_end: float
    rows: DriveLog
    series: dict
    summaries: dict


class SensorRuntime:
    """One sensor's pipeline: PID state, the seeded streams of its noise,
    outage phase, outage and channel, and its error series.  Its channel
    numbers its datagrams on seq, the run's shared counter (None: its own)."""

    def __init__(self, scenario: Scenario, config, seq):
        stream = functools.partial(derive_seed, scenario.seed, config.sensor_id)
        self.config = config
        self.period_ticks = scenario.sensor_period_ticks(config)
        self.next_tick = 0  # the next tick with this sensor due
        self.channel = SimulatedChannel(config.channel_loss, config.channel_delay,
                                        stream("channel"), seq)
        self.pid_state = PidState()
        self.noise_rng = random.Random(stream("noise"))
        phase = 0.0
        if config.outage is not None:
            phase = random.Random(stream("phase")).uniform(0.0, config.outage.span)
        self.outage = OutageSchedule(config.outage, phase, random.Random(stream("outage")))
        self.errors = SampleSeries(f"error_{config.sensor_id}")

    def tick(self, scenario: Scenario, pose, now: float) -> SteeringCommand:
        """Observe, run the PID, gate through the outage, record the error;
        returns the command to send, all fields finite (finite_command) so
        that a socket can carry its text and the node read either alike."""
        obs = observe(self.config.camera, scenario.track, pose,
                      scenario.markers, self.noise_rng)
        self.pid_state, cmd = sensor_tick(self.config.camera, self.config.gains,
                                          self.pid_state, obs)
        dark = self.outage.active(now)
        if not dark and not cmd.is_zero_report():
            self.errors.append(now, cmd.p)
        return finite_command(gate(cmd, dark))


def run(scenario: Scenario, out_dir=None, cross=None) -> RunResult:
    """Execute one scenario; returns the RunResult.

    Each sensor's commands travel on its seeded SimulatedChannel, all on one
    sequence counter.  Each full tick takes merge_deliveries(channels, now),
    the (source_id, command) pairs due at now, and when cross is given hands
    them to cross(now, pairs), which returns the same sources in the same
    order for the node to take, each command decoded from its crossed text.
    When out_dir is given the drive log, metric series, and summary are
    written there as well; it is claimed (replace_dir) before the first
    tick, so an unusable path is an OSError before any frame.

    Only event ticks run in full.  Each ends with one Motion.advance call:
    it steps the vehicle through that tick, then coasts (steps it alone)
    through the ticks up to the next tick with a sensor due, the first tick
    whose merge reaches the earliest queued delivery (wire.first_due_tick),
    or the end of the run.  It stops early at a tick whose crash bound
    reaches crash_threshold, which then runs in full.  The bound is
    |deviation| at the last search + the distance moved since + 1e-9.  A full
    tick searches ground truth if it delivers a datagram, whose deviation
    sample must be exact, or if its bound reaches the threshold; otherwise
    the crash detector gets the bound.

    This is exact: every output is what the loop gives that runs every tick
    in full and searches on each.

    A skipped search.  Distance to the centreline is 1-Lipschitz, so the
    search would return a magnitude of at most the bound; the 1e-9 covers
    the rounding of the search (its pick is within 1e-15 of the minimum) and
    of hypot.  The bound stands in only while it is below the threshold, so
    the true value is too, and the detector takes the same reset branch on
    either.  A full tick reads the bound the last Motion.advance returned at
    the pose it stopped at, from the last search, and neither changes before
    that tick; the first tick's is infinite, so it searches.  A search
    leaves only the segment it picked, the next search's hint, and
    Track.closest is exact from any hint.

    A coasted tick.  There the full loop would send nothing, no sensor being
    due.  It would merge nothing: only full ticks send, so the earliest
    queued delivery is still ahead, and the queues are no deeper than after
    the last full tick.  The tick's bound is below the threshold, so it would
    skip the search as above, append no sample and reset the detector, which
    is reset already: the full tick before the stretch fed it either a bound
    under the threshold or a searched |deviation| below the stretch's first
    bound.  Then it would step the vehicle under the powers it holds, as
    Motion.advance does, one tick at a time.
    """
    with replace_dir(out_dir) as new:
        seq = itertools.count().__next__
        sensors = [SensorRuntime(scenario, s, seq) for s in scenario.sensors]
        channels = [s.channel for s in sensors]  # merge_deliveries' argument
        node = VehicleNode([s.sensor_id for s in scenario.sensors], scenario.fusion,
                           log_slots(scenario.sensors))
        x, y, tangent = scenario.track.point_at(scenario.start_arclength)
        pose = Pose(x, y, tangent)

        correction = SampleSeries("correction")
        deviation = SampleSeries("deviation")
        detector = CrashDetector(scenario.crash_threshold, scenario.crash_hold)
        crash_time = None

        threshold = scenario.crash_threshold
        last_abs, last_x, last_y = math.inf, pose.x, pose.y
        bound = math.inf  # the first tick searches
        segment = 0  # the last search's segment: the next one's hint
        ts = scenario.timestep
        vehicle = scenario.vehicle
        applied = motion = None
        n_ticks = scenario.n_ticks()
        i = 0
        while i < n_ticks:
            now = i * ts
            for s in sensors:
                if i == s.next_tick:
                    s.next_tick += s.period_ticks
                    s.channel.send(s.config.sensor_id, s.tick(scenario, pose, now), now)
            delivered = merge_deliveries(channels, now)
            if cross is not None:
                delivered = cross(now, delivered)
            for source_id, datagram in delivered:
                node.handle_datagram(source_id, datagram, now)
            if delivered or bound >= threshold:
                dev, segment = lateral_deviation(scenario.track, pose, segment)
                last_abs, last_x, last_y = abs(dev), pose.x, pose.y
            else:
                dev = bound
            if delivered:
                correction.append(now, correction_metric(*node.applied))
                deviation.append(now, dev)
            crash_time = detector.update(now, dev)
            if crash_time is not None:
                break
            if node.applied != applied:
                applied = node.applied
                motion = Motion(applied[0], applied[1], ts, vehicle)
            stop, due = n_ticks, math.inf
            for s in sensors:
                if s.next_tick < stop:
                    stop = s.next_tick
                t = s.channel.next_delivery()
                if t < due:
                    due = t
            stop = first_due_tick(due, ts, i + 1, stop)
            x, y, heading, stepped, bound = motion.advance(pose.x, pose.y, pose.heading, stop - i,
                                                           last_abs, last_x, last_y, threshold)
            pose = Pose(x, y, heading)
            i += stepped

        result = assemble_result(scenario, node, sensors, correction, deviation, crash_time)
        if new is not None:
            write_outputs(result, new)
    return result


def assemble_result(scenario, node, sensors, correction, deviation,
                    crash_time) -> RunResult:
    """Fold the raw run state into summaries and a RunResult."""
    completed = crash_time is None
    run_end = scenario.duration if completed else crash_time

    series = {"correction": correction, "deviation": deviation}
    series.update({s.errors.name: s.errors for s in sensors})
    summaries = {name: summarize(ser, crash_time) for name, ser in series.items()}
    if any(s.config.outage is not None for s in sensors):
        ends = sorted(end for s in sensors for _, end in s.outage.windows(run_end))
        for name in ("correction", "deviation"):
            summaries[f"post_outage_{name}"] = summarize(
                post_outage_window(series[name], ends, scenario.post_outage_k), crash_time)

    return RunResult(
        scenario_name=scenario.name,
        seed=scenario.seed,
        fusion=scenario.fusion,
        duration=scenario.duration,
        completed=completed,
        crash_time=crash_time,
        run_end=run_end,
        rows=node.log,
        series=series,
        summaries=summaries,
    )


@contextlib.contextmanager
def replace_dir(path):
    """Yield a fresh, empty directory that replaces path whole when the block
    ends, so that path never holds files of two runs.  On any exception the
    old directory is left as it was.  A symlink at path is followed and its
    target replaced.  Only a killed process leaves the .fusedrive-<hex>
    sibling the new directory is staged in.  A path that exists and is not a
    directory, a name too long, or a parent that cannot be made, is an
    OSError on entry.  None yields None: a run kept in memory writes nothing.
    """
    if path is None:
        yield None
        return
    path = os.path.realpath(path)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):  # os.path.exists hides ENAMETOOLONG
        if not stat.S_ISDIR(os.stat(path).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    stage = os.path.join(parent, f".fusedrive-{os.urandom(8).hex()}")
    os.mkdir(stage)
    new, old = os.path.join(stage, "new"), os.path.join(stage, "old")
    try:
        os.mkdir(new)  # the mode os.makedirs gives; mkdtemp's is 0o700
        yield new
        if os.path.isdir(path):
            os.rename(path, old)
        try:
            os.rename(new, path)  # OSError when path is a file
        except BaseException:
            if os.path.isdir(old):
                os.rename(old, path)
            raise
    finally:
        shutil.rmtree(stage)


def write_outputs(result: RunResult, out_dir):
    """Write the drive log, metric series, and the JSON summary into out_dir."""
    with open(os.path.join(out_dir, "drive_log.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DRIVE_LOG_HEADER + "\n")
        for row in result.rows:
            fh.write(row + "\n")

    for name, ser in result.series.items():
        with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"time,{name}\n")
            for t, v in zip(ser.times, ser.values):
                fh.write(f"{t:.6f},{v!r}\n")

    summary = {
        "scenario": result.scenario_name,
        "seed": result.seed,
        "fusion": result.fusion,
        "duration": result.duration,
        "completed": result.completed,
        "crash_time": result.crash_time,
        "metrics": result.summaries,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
