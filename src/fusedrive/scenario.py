"""Scenario files: the whole file format, strict validation, seed derivation.

A scenario file mirrors the runtime structure: a track, a vehicle, a sensor
list (each with camera, gains, channel, and outage settings), a fusion
policy, and the clock.  One reader, `_read`, reads every section: unknown
keys are rejected so typos cannot silently fall back to defaults, and only
the keys the file contains are passed on, so each default lives in the
constructor the section feeds.  Any unreadable, non-finite or out-of-range
value is a ConfigError at load, named by its key path.
"""

import functools
import hashlib
import math
import os
from dataclasses import dataclass, field

import yaml

from .control import PidGains
from .faults import PeriodicOutage, ProbabilisticOutage
from .fusion import POLICIES, CONFIDENCE_WEIGHTED, log_slots
from .perception import (
    INFRASTRUCTURE,
    ONBOARD,
    MarkerLayout,
    infrastructure_camera,
    onboard_camera,
)
from .wire import SimulatedChannel
from .world import Arc, ConfigError, Straight, Track, VehicleParams, rounded_rectangle_segments

def derive_seed(*parts) -> int:
    """Stable 64-bit seed from any printable parts (order-sensitive)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class UdpConfig:
    host: str = "127.0.0.1"
    vehicle_port: int = 5000
    sensor_port_base: int = 4000


@dataclass
class SensorConfig:
    sensor_id: str
    rate_hz: float
    gains: PidGains
    camera: object
    channel_loss: float = 0.0
    channel_delay: object = 0.0
    outage: object = None

    def period(self) -> float:
        return 1.0 / self.rate_hz


@dataclass
class Scenario:
    track: Track
    sensors: list
    name: str = "scenario"
    seed: int = 0
    duration: float = 100.0
    timestep: float = 0.005
    fusion: str = CONFIDENCE_WEIGHTED
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    markers: MarkerLayout = field(default_factory=MarkerLayout)
    start_arclength: float = 0.0
    crash_threshold: float = 0.25
    crash_hold: float = 0.5
    post_outage_k: int = 5
    udp: UdpConfig = field(default_factory=UdpConfig)

    def n_ticks(self) -> int:
        return int(round(self.duration / self.timestep))

    def sensor_period_ticks(self, sensor: SensorConfig) -> int:
        return max(1, int(round(sensor.period() / self.timestep)))


def _finite(value, positive=False) -> float:
    number = float(value)
    if not math.isfinite(number) or (positive and number <= 0.0):
        raise ValueError(f"{value!r} is not a {'positive' if positive else 'finite'} number")
    return number


def _non_negative(value) -> float:
    number = _finite(value)
    if number < 0.0:
        raise ValueError(f"{value!r} is negative")
    return number


def _int(value, low=-math.inf, high=math.inf) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    number = int(value)
    if not low <= number <= high:
        raise ValueError(f"{value!r} is outside [{low}, {high}]")
    return number


_positive = functools.partial(_finite, positive=True)
_count = functools.partial(_int, low=1)
_port = functools.partial(_int, low=0, high=65535)


def _file_name(value, pattern="{}", reserved=()) -> str:
    """str(value), which names the file pattern.format(value): no "/" or NUL,
    none of reserved, and at most 255 bytes (NAME_MAX) by os.fsencode."""
    name = str(value)
    if name in reserved or os.path.basename(name) != name or "\0" in name:
        raise ValueError(f"{name!r} cannot name a file")
    size = len(os.fsencode(pattern.format(name)))
    if size > 255:
        raise ValueError(f"{pattern.format(name)!r} is {size} bytes, over NAME_MAX's 255")
    return name


_run_name = functools.partial(_file_name, reserved=("", ".", ".."))
_sensor_id = functools.partial(_file_name, pattern="error_{}.csv")


def _numbers(value, n=2) -> tuple:
    """A list of n finite numbers (a pair by default), as a tuple."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"expected a list of {n} numbers, got {value!r}")
    return tuple(map(_finite, value))


def _choice(choices, what: str, value) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}")
    return value


def _wrap(where: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with any error it raises a ConfigError naming where."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read(cfg, where: str, readers: dict, build=dict, required=(), names=None):
    """Read one section of a scenario file and build from it.

    cfg must be a mapping (None reads as empty) with only keys of readers
    and every required one.  Each value present goes through its reader and
    on to build, under its key or the name names gives it; absent keys are
    not passed, so build's defaults are the only ones.  where is the key
    path of the section, "" at the top level.
    """
    section = where or "scenario"
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError(f"{section} must be a mapping")
    prefix = f"{where}." if where else ""
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing field: {prefix}{key}")
    unknown = sorted(str(key) for key in cfg if key not in readers)
    if unknown:
        raise ConfigError(f"unknown key in {section}: {unknown[0]}")
    names = names or {}
    fields = {names.get(key, key): _wrap(prefix + key, readers[key], value)
              for key, value in cfg.items()}
    return _wrap(section, build, **fields)


def _variant(cfg, where: str, key: str, table: dict, what: str):
    """Split a section whose allowed keys depend on its kind: returns the
    entry of table that cfg[key] names, and cfg without that key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    if key not in cfg:
        raise ConfigError(f"missing field: {where}.{key}")
    rest = dict(cfg)
    name = _wrap(f"{where}.{key}", _choice, table, what, rest.pop(key))
    return table[name], rest


def _items(value, where: str, read) -> list:
    """A non-empty list, each entry read by read(entry, "<where>[i]")."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return [read(item, f"{where}[{i}]") for i, item in enumerate(value)]


_SEGMENTS = {
    "straight": ({"start": _numbers, "end": _numbers}, lambda start, end: Straight(*start, *end)),
    "arc": ({"center": _numbers, "radius": _finite, "start_deg": _finite, "sweep_deg": _finite},
            lambda center, **arc: Arc(*center, **arc)),
}
_SHAPES = {  # kind: (readers, segment list builder, required keys)
    "rounded_rectangle": ({"center": _numbers, "straight": _positive, "corner_radius": _positive},
                          rounded_rectangle_segments, ()),
    "circle": ({"center": _numbers, "radius": _positive},
               lambda center, radius=0.5: [Arc(*center, radius, 0.0, 360.0)], ()),
    "segments": ({"segments": lambda v: _items(v, "track.segments", _segment)},
                 lambda segments: segments, ("segments",)),
}
_TRACK_SIZE = {"board_size": _positive, "line_width": _positive}


def _segment(cfg, where: str):
    (readers, build), rest = _variant(cfg, where, "type", _SEGMENTS, "segment type")
    return _read(rest, where, readers, build, required=tuple(readers))


def track_from_config(cfg) -> Track:
    """Build a Track from a plain-dict description.

    Supported kinds: "rounded_rectangle" (center, straight, corner_radius),
    "circle" (center, radius), and "segments" (explicit list of straight and
    arc items); the center defaults to the middle of the board.  Raises
    ConfigError on unknown kinds or keys, bad values, or geometry that does
    not close or leaves the board.
    """
    (readers, build, required), rest = _variant(cfg, "track", "kind", _SHAPES, "track kind")
    fields = _read(rest, "track", {**_TRACK_SIZE, **readers}, required=required)
    size = {key: fields.pop(key) for key in _TRACK_SIZE if key in fields}
    if "center" in readers:
        board = size.get("board_size", Track.board_size)
        fields.setdefault("center", (board / 2.0, board / 2.0))
    return Track(_wrap("track", build, **fields), **size)


_CAMERA_KEYS = {"pixels_per_meter": _positive, "image_width": _count,
                "image_height": _count, "crop_size": _count, "noise_px": _finite}
_SENSOR_KINDS = {  # kind: (default rate_hz and gains, camera factory, its readers, required keys)
    ONBOARD: (11.0, PidGains(1.5, 0.15, 4.5), onboard_camera,
              {**_CAMERA_KEYS, "look_ahead": _finite}, ()),
    INFRASTRUCTURE: (20.0, PidGains(1.0, 0.02, 0.5), infrastructure_camera,
                     {**_CAMERA_KEYS, "coverage": functools.partial(_numbers, n=4)},
                     ("coverage",)),
}
_OUTAGES = {
    "none": ({}, lambda: None),
    "periodic": ({"period": _finite, "duration": _finite}, PeriodicOutage),
    "probabilistic": ({"interval": _finite, "threshold": _int}, ProbabilisticOutage),
}
_GAIN_KEYS = dict.fromkeys(("kp", "ki", "kd"), _finite)
_CHANNEL_KEYS = {"loss": _finite,
                 "delay": lambda v: _numbers(v) if isinstance(v, (list, tuple)) else _finite(v)}


def _outage(cfg, where: str):
    if cfg is None:
        return None
    (readers, build), rest = _variant(cfg, where, "kind", _OUTAGES, "outage kind")
    return _read(rest, where, readers, build)


def _sensor(cfg, where: str) -> SensorConfig:
    (rate_hz, gains, camera, camera_keys, camera_required), rest = _variant(
        cfg, where, "kind", _SENSOR_KINDS, "sensor kind")
    # Gains and camera are built even when the file leaves them out.
    fields = _read({"gains": None, "camera": None, **rest}, where, {
        "id": _sensor_id,
        "rate_hz": _positive,
        "gains": lambda v: (gains if v is None
                            else _read(v, f"{where}.gains", _GAIN_KEYS, PidGains)),
        "camera": lambda v: _read(v, f"{where}.camera", camera_keys, camera, camera_required),
        "channel": lambda v: _read(v, f"{where}.channel", _CHANNEL_KEYS,
                                   names={"loss": "channel_loss", "delay": "channel_delay"}),
        "outage": lambda v: _outage(v, f"{where}.outage"),
    }, required=("id",), names={"id": "sensor_id"})
    fields.update(fields.pop("channel", {}))
    fields.setdefault("rate_hz", rate_hz)
    sensor = SensorConfig(**fields)
    _wrap(f"{where}.channel", SimulatedChannel, sensor.channel_loss, sensor.channel_delay)
    return sensor


def _sensors(value) -> list:
    sensors = _items(value, "sensors", _sensor)
    ids = [s.sensor_id for s in sensors]
    if len(set(ids)) != len(ids):
        raise ConfigError("sensors: duplicate sensor id")
    _wrap("sensors", log_slots, sensors)
    return sensors


_MARKER_KEYS = {"marker_separation": "separation", "body_radius": "body_radius"}
_VEHICLE_KEYS = {
    **dict.fromkeys(("wheel_separation", "power_to_speed", "max_power", "marker_separation"),
                    _positive),
    "body_radius": _non_negative,
}


def _vehicle(**fields) -> dict:
    """The vehicle section feeds both the drive parameters and the roof markers."""
    markers = {_MARKER_KEYS[key]: fields.pop(key) for key in _MARKER_KEYS if key in fields}
    return {"vehicle": VehicleParams(**fields), "markers": MarkerLayout(**markers)}


_SCENARIO_KEYS = {
    "name": _run_name,
    "seed": _int,
    "duration": _positive,
    "timestep": _positive,
    "fusion": functools.partial(_choice, POLICIES, "policy"),
    "track": track_from_config,
    "sensors": _sensors,
    "vehicle": lambda v: _read(v, "vehicle", _VEHICLE_KEYS, _vehicle),
    "start_arclength": _finite,
    "crash": lambda v: _read(v, "crash", {"threshold_m": _positive, "hold_s": _non_negative},
                             names={"threshold_m": "crash_threshold", "hold_s": "crash_hold"}),
    "post_outage_k": _count,
    "udp": lambda v: _read(v, "udp", {"host": str, "vehicle_port": _port,
                                      "sensor_port_base": _port}, UdpConfig),
}


def scenario_from_dict(cfg, default_name: str = "scenario") -> Scenario:
    """Validate a parsed config mapping and build a Scenario."""
    fields = _read(cfg, "", _SCENARIO_KEYS, required=("track", "sensors"))
    if "name" not in fields:  # a file's name stands in, bounded alike
        fields["name"] = _wrap("name", _run_name, default_name)
    fields.update(fields.pop("vehicle", {}))
    fields.update(fields.pop("crash", {}))
    scenario = Scenario(**fields)
    _validate_clock(scenario)
    x, y, _ = scenario.track.point_at(scenario.start_arclength)
    dx, dy = scenario.track.sampling.xs - x, scenario.track.sampling.ys - y
    if not (dx * dx + dy * dy > scenario.markers.body_radius ** 2).any():
        raise ConfigError("track: the whole centreline lies under the vehicle body "
                          "at the start, so no camera can ever see it")
    base, count = scenario.udp.sensor_port_base, len(scenario.sensors)
    if base and base + count - 1 > 65535:
        raise ConfigError(f"udp.sensor_port_base: {base} gives {count} sensors ports "
                          f"up to {base + count - 1}, past 65535")
    return scenario


def _validate_clock(scenario: Scenario):
    """Reject a clock the tick loop cannot run: the timestep must tile a second,
    no sensor or outage may outrun it (a tick reads at most one outage span;
    shorter ones only add draws and windows no tick sees), and the tick
    counts the run derives must exist (the run's at most _MAX_TICKS)."""
    ts = scenario.timestep
    ticks_per_second = 1.0 / ts
    if not (math.isfinite(ticks_per_second)
            and abs(ticks_per_second - round(ticks_per_second)) <= 1e-9):
        raise ConfigError(f"timestep: period not tick-aligned (1 s is not a whole "
                          f"number of {ts} s ticks)")
    if _wrap("duration", scenario.n_ticks) > _MAX_TICKS:
        raise ConfigError(f"duration: {scenario.duration:g} s at a timestep of {ts:g} s "
                          f"is over the limit of {_MAX_TICKS} ticks")
    for i, sensor in enumerate(scenario.sensors):
        if sensor.period() < ts - 1e-12:
            raise ConfigError(f"sensors: rate {sensor.rate_hz} Hz is faster than the timestep")
        _wrap(f"sensors[{i}].rate_hz", scenario.sensor_period_ticks, sensor)
        if sensor.outage is not None and sensor.outage.span < ts - 1e-12:
            raise ConfigError(f"sensors[{i}].outage: switches faster than the {ts:g} s timestep")


_MAX_DEPTH = 32  # nesting levels a scenario file may use; the shipped ones use 5
# Ticks a run may have, so that its time is bounded by what a scenario file
# can justify: 839 times the 20,000 of a shipped 100 s run.
_MAX_TICKS = 1 << 24


class _NoAnchors(dict):
    """An anchor table that refuses every anchor, so no alias resolves either:
    nothing in a document is shared, and it holds no more than its text."""

    def __setitem__(self, anchor, node):
        raise yaml.composer.ComposerError(None, None, f"found anchor {anchor!r}", node.start_mark)


class _Guard(yaml.composer.Composer):
    """PyYAML's composer, which composes for libyaml's parser too (libyaml's
    own overflows the C stack on some 30,000 levels).  It refuses a list or
    mapping nested deeper than _MAX_DEPTH before it recurses there."""

    depth = 1  # the level of the next list or mapping; the document is level 1

    def _nested(self, compose, anchor):
        if self.depth > _MAX_DEPTH:
            raise yaml.composer.ComposerError(None, None, f"nested deeper than {_MAX_DEPTH} levels",
                                              self.peek_event().start_mark)
        self.depth += 1
        node = compose(anchor)
        self.depth -= 1
        return node

    def compose_sequence_node(self, anchor):
        return self._nested(super().compose_sequence_node, anchor)

    def compose_mapping_node(self, anchor):
        return self._nested(super().compose_mapping_node, anchor)


def _loader(parser):
    """A Loader class: parser (yaml.CSafeLoader or yaml.SafeLoader) reads, _Guard composes."""
    def __init__(self, stream):
        parser.__init__(self, stream)
        self.anchors = _NoAnchors()  # kept until the file's one document is composed
    return type("_Loader", (_Guard, parser), {"__init__": __init__})


_Loader = _loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ConfigError on any problem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.load(fh, Loader=_Loader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    return scenario_from_dict(cfg, default_name)
