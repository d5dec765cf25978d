"""Fixed-timestep experiment runner: the one tick loop of both transports.

Each tick: sensors due this tick observe the world, run their PID, pass the
command through their outage gate, and send it into their seeded simulated
channel; the vehicle node takes the datagrams due now and re-fuses per
datagram; metrics record; the vehicle steps.  Ticks on which none of that
can matter coast: the vehicle steps alone.  Everything derives from the
scenario seed, so a run is a pure function of (scenario, seed) and its
artifacts are byte-identical across repeats.  `udp.run_udp` runs the same
loop and hands `run` a hook that carries each delivery across a socket.
`run` claims its output directory before the first tick.  On a process that
may fork onto a spare CPU (usable_cpus), a written run that can log
FORK_FRAMES records hands them, a chunk at a time, to a formatter child that
writes the files as the loop runs; otherwise `write_outputs` fills the
directory after the last tick.
Either host formats each drive-log row (RunResult.rows) once, with the one
code in _write, as it streams to the file.
"""

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import pickle
import random
import shutil
import signal
import stat
import threading
import traceback
import warnings
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

CHUNK = 256  # drive-log records a written run hands its formatter child at a time
# A written run forks its formatter only if it can log this many records (one
# a frame at most): formatting fewer costs about what the fork costs.
FORK_FRAMES = 2048


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
    with replace_dir(out_dir) as new, _Formatter() as formatter:
        seq = itertools.count().__next__
        sensors = [SensorRuntime(scenario, s, seq) for s in scenario.sensors]
        channels = [s.channel for s in sensors]  # merge_deliveries' argument
        node = VehicleNode([s.sensor_id for s in scenario.sensors], scenario.fusion,
                           log_slots(scenario.sensors))
        x, y, tangent = scenario.track.point_at(scenario.start_arclength)
        pose = Pose(x, y, tangent)

        correction = SampleSeries("correction")
        deviation = SampleSeries("deviation")
        series = {ser.name: ser for ser in (correction, deviation, *(s.errors for s in sensors))}
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
        frames = sum(-(-n_ticks // s.period_ticks) for s in sensors)
        hand_off = (CHUNK if new is not None and frames >= FORK_FRAMES and usable_cpus() > 1
                    else math.inf)
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
                if len(node.log) >= hand_off:
                    hand_off = formatter.send(new, node.log, series)
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

        result = assemble_result(scenario, node, sensors, series, crash_time)
        if formatter.pid is not None:
            formatter.send(new, node.log, series, _summary(result))
        elif new is not None:
            write_outputs(result, new)
    return result


def assemble_result(scenario, node, sensors, series, crash_time) -> RunResult:
    """Fold the raw run state into summaries and a RunResult; series maps the
    correction, deviation and sensor error series by name."""
    completed = crash_time is None
    run_end = scenario.duration if completed else crash_time

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


def usable_cpus():
    """The processes work may spread over: every usable CPU when this process
    has os.fork and one Python thread, which a fork would not copy; else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) if hasattr(os, "fork") and threading.active_count() == 1 else 1


def fork_child(work):
    """Fork a child that runs work(), writes its return value pickled to a
    pipe and exits; returns its pid and the pipe's reader (EOF if no reply)."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while the OS thread count is above
            # one, as numpy's OpenBLAS pool makes it; the pool's
            # pthread_atfork handlers make the fork safe.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # the child replies and exits here, never returns
        try:
            os.write(write, pickle.dumps(work()))  # a blocking pipe takes it whole
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


class _Formatter(contextlib.AbstractContextManager):
    """The child that writes a run's files into new while the loop runs: the
    first send forks it, and each later one hands it over a pipe what every
    column (_columns) gained since the last.  The send with the summary
    raises the error that stopped the child, or ChildProcessError if it died
    without replying.  Leaving kills the child if it still runs, and reaps it."""

    pid = feed = None

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.replies.close()
        if self.feed is not None:
            with contextlib.suppress(BrokenPipeError):  # what a dead child left unread
                self.feed.close()

    def send(self, new, log, series, summary=None):
        """Hand the child what log and series gained since the last send;
        returns the drive-log length at which to send next."""
        columns = _columns(log, series)
        if self.pid is None:
            read, write = os.pipe()
            self.feed = os.fdopen(write, "wb")
            with os.fdopen(read, "rb") as feed:  # closed here once the child has its copy
                self.pid, self.replies = fork_child(
                    lambda: _format(feed, self.feed, new, log, series))
        else:
            with contextlib.suppress(BrokenPipeError):  # a child that stopped replies why
                parts = [column[n:] for column, n in zip(columns, self.sent)]
                self.feed.write(pickle.dumps((parts, summary)))
                self.feed.flush()
        self.sent = [len(c) for c in columns]
        if summary is not None:
            try:
                reply = pickle.load(self.replies)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"formatter process {self.pid} died without replying") from None
            if reply != "ok":
                raise reply[0] from Exception(
                    f"raised in formatter process {self.pid}:\n{reply[1]}")
        return len(log) + CHUNK


def _format(feed, writer, new, log, series):
    """A formatter child's work: close its copy of the caller's writer, then
    _write what feed brings; "ok", or the exception that stopped it and its
    traceback."""
    writer.close()
    try:
        with feed:
            _write(new, log, series, functools.partial(pickle.load, feed))
        return "ok"
    except BaseException as exc:
        return exc, "".join(traceback.format_exception(exc))


def _columns(log, series):
    return [column for owner in (log, *series.values()) for column in owner.columns]


def _write(out_dir, log, series, take):
    """Write the CSV files of log and series into out_dir, then, while take()
    returns (new, None), extend each of _columns by its part of new and write
    on; the summary that ends it goes into summary.json."""
    texts, summary = list(log.blank_texts), None
    headers = {"drive_log": DRIVE_LOG_HEADER, **{name: f"time,{name}" for name in series}}
    written = dict.fromkeys(headers, 0)
    with contextlib.ExitStack() as stack:
        files = {}
        for name, header in headers.items():
            files[name] = stack.enter_context(open(os.path.join(out_dir, f"{name}.csv"), "w",
                                                   encoding="utf-8", newline="\n"))
            files[name].write(header + "\n")
        while True:
            fh = files["drive_log"]
            for row in log.rows(written["drive_log"], texts):
                fh.write(row + "\n")
            for name, ser in series.items():
                fh = files[name]
                for t, v in zip(ser.times[written[name]:], ser.values[written[name]:]):
                    fh.write(f"{t:.6f},{v!r}\n")
            written = {"drive_log": len(log), **{name: len(ser) for name, ser in series.items()}}
            if summary is not None:
                break
            new, summary = take()
            for column, part in zip(_columns(log, series), new):
                column.extend(part)
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _summary(result):
    return {"scenario": result.scenario_name, "seed": result.seed, "fusion": result.fusion,
            "duration": result.duration, "completed": result.completed,
            "crash_time": result.crash_time, "metrics": result.summaries}


def write_outputs(result: RunResult, out_dir):
    """Write the drive log, metric series, and the JSON summary into out_dir."""
    _write(out_dir, result.rows, result.series, lambda: ((), _summary(result)))
