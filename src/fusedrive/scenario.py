"""Scenario configuration: YAML loading, strict validation, seed derivation.

A scenario file mirrors the runtime structure: a track, a vehicle, a sensor
list (each with camera, gains, channel, and outage settings), a fusion
policy, and the clock.  Unknown keys anywhere are rejected so typos cannot
silently fall back to defaults.
"""

import hashlib
import os
from dataclasses import dataclass, field

import yaml

from .control import PidGains, default_gains
from .faults import PeriodicOutage, ProbabilisticOutage
from .fusion import POLICIES, CONFIDENCE_WEIGHTED
from .perception import (
    INFRASTRUCTURE,
    ONBOARD,
    MarkerLayout,
    infrastructure_camera,
    onboard_camera,
)
from .world import ConfigError, Track, VehicleParams, _reject_unknown, track_from_config


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
    kind: str
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


def _pop(cfg: dict, key: str, default=None, required: bool = False, where: str = ""):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing field: {where}{key}")
        return default
    return cfg.pop(key)


def _build_outage(cfg, where: str):
    if cfg is None:
        return None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    cfg = dict(cfg)
    kind = _pop(cfg, "kind", required=True, where=where + ".")
    try:
        if kind == "none":
            model = None
        elif kind == "periodic":
            model = PeriodicOutage(
                period=float(_pop(cfg, "period", 3.0)),
                duration=float(_pop(cfg, "duration", 0.0)),
            )
        elif kind == "probabilistic":
            model = ProbabilisticOutage(
                interval=float(_pop(cfg, "interval", 0.4)),
                threshold=int(_pop(cfg, "threshold", 0)),
            )
        else:
            raise ConfigError(f"unknown outage kind in {where}: {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    _reject_unknown(cfg, where)
    return model


def _build_camera(kind: str, cfg, where: str):
    cfg = dict(cfg or {})
    try:
        if kind == ONBOARD:
            camera = onboard_camera(
                pixels_per_meter=float(_pop(cfg, "pixels_per_meter", 2000.0)),
                image_width=int(_pop(cfg, "image_width", 320)),
                image_height=int(_pop(cfg, "image_height", 240)),
                crop_size=int(_pop(cfg, "crop_size", 80)),
                look_ahead=float(_pop(cfg, "look_ahead", 0.06)),
                noise_px=float(_pop(cfg, "noise_px", 2.0)),
            )
        else:
            coverage = _pop(cfg, "coverage", required=True, where=where + ".")
            camera = infrastructure_camera(
                coverage=[float(v) for v in coverage],
                pixels_per_meter=float(_pop(cfg, "pixels_per_meter", 300.0)),
                image_width=int(_pop(cfg, "image_width", 1280)),
                image_height=int(_pop(cfg, "image_height", 720)),
                crop_size=int(_pop(cfg, "crop_size", 75)),
                noise_px=float(_pop(cfg, "noise_px", 2.0)),
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    _reject_unknown(cfg, where)
    return camera


def _build_gains(kind: str, cfg, where: str):
    if cfg is None:
        return default_gains(kind)
    cfg = dict(cfg)
    try:
        gains = PidGains(
            kp=float(_pop(cfg, "kp", 0.0)),
            ki=float(_pop(cfg, "ki", 0.0)),
            kd=float(_pop(cfg, "kd", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    _reject_unknown(cfg, where)
    return gains


def _build_sensor(cfg, index: int) -> SensorConfig:
    where = f"sensors[{index}]"
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    cfg = dict(cfg)
    sensor_id = str(_pop(cfg, "id", required=True, where=where + "."))
    kind = _pop(cfg, "kind", required=True, where=where + ".")
    if kind not in (ONBOARD, INFRASTRUCTURE):
        raise ConfigError(f"{where}.kind: unknown sensor kind {kind!r}")
    rate = float(_pop(cfg, "rate_hz", 11.0 if kind == ONBOARD else 20.0))
    if rate <= 0.0:
        raise ConfigError(f"{where}.rate_hz must be positive")
    gains = _build_gains(kind, _pop(cfg, "gains"), where + ".gains")
    camera = _build_camera(kind, _pop(cfg, "camera"), where + ".camera")
    channel = dict(_pop(cfg, "channel") or {})
    loss = float(_pop(channel, "loss", 0.0))
    delay = _pop(channel, "delay", 0.0)
    if isinstance(delay, (list, tuple)):
        delay = (float(delay[0]), float(delay[1]))
    else:
        delay = float(delay)
    _reject_unknown(channel, where + ".channel")
    outage = _build_outage(_pop(cfg, "outage"), where + ".outage")
    _reject_unknown(cfg, where)
    return SensorConfig(sensor_id, kind, rate, gains, camera, loss, delay, outage)


def scenario_from_dict(cfg, default_name: str = "scenario") -> Scenario:
    """Validate a parsed config mapping and build a Scenario."""
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("scenario must be a mapping")
    cfg = dict(cfg)
    track_cfg = _pop(cfg, "track", required=True, where="")
    try:
        track = track_from_config(track_cfg)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"track: {exc}") from None

    vehicle_cfg = dict(_pop(cfg, "vehicle") or {})
    marker_separation = float(_pop(vehicle_cfg, "marker_separation", 0.10))
    body_radius = float(_pop(vehicle_cfg, "body_radius", 0.06))
    try:
        vehicle = VehicleParams(
            wheel_separation=float(_pop(vehicle_cfg, "wheel_separation", 0.12)),
            power_to_speed=float(_pop(vehicle_cfg, "power_to_speed", 0.0075)),
            max_power=float(_pop(vehicle_cfg, "max_power", 255.0)),
            nominal_power=float(_pop(vehicle_cfg, "nominal_power", 100.0 / 3.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"vehicle: {exc}") from None
    _reject_unknown(vehicle_cfg, "vehicle")
    markers = MarkerLayout(marker_separation, body_radius)

    crash_cfg = dict(_pop(cfg, "crash") or {})
    crash_threshold = float(_pop(crash_cfg, "threshold_m", 0.25))
    crash_hold = float(_pop(crash_cfg, "hold_s", 0.5))
    _reject_unknown(crash_cfg, "crash")

    udp_cfg = dict(_pop(cfg, "udp") or {})
    udp = UdpConfig(
        host=str(_pop(udp_cfg, "host", "127.0.0.1")),
        vehicle_port=int(_pop(udp_cfg, "vehicle_port", 5000)),
        sensor_port_base=int(_pop(udp_cfg, "sensor_port_base", 4000)),
    )
    _reject_unknown(udp_cfg, "udp")

    sensors_cfg = _pop(cfg, "sensors", required=True, where="")
    if not isinstance(sensors_cfg, list) or not sensors_cfg:
        raise ConfigError("sensors must be a non-empty list")
    sensors = [_build_sensor(sc, i) for i, sc in enumerate(sensors_cfg)]
    ids = [s.sensor_id for s in sensors]
    if len(set(ids)) != len(ids):
        raise ConfigError("sensors: duplicate sensor id")
    n_onboard = sum(1 for s in sensors if s.kind == ONBOARD)
    n_infra = sum(1 for s in sensors if s.kind == INFRASTRUCTURE)
    if n_onboard > 1 or n_infra > 2:
        raise ConfigError("sensors: the drive log holds one onboard and two "
                          "infrastructure columns at most")

    fusion = _pop(cfg, "fusion", CONFIDENCE_WEIGHTED)
    if fusion not in POLICIES:
        raise ConfigError(f"fusion: unknown policy {fusion!r}")

    scenario = Scenario(
        track=track,
        sensors=sensors,
        name=str(_pop(cfg, "name", default_name)),
        seed=int(_pop(cfg, "seed", 0)),
        duration=float(_pop(cfg, "duration", 100.0)),
        timestep=float(_pop(cfg, "timestep", 0.005)),
        fusion=fusion,
        vehicle=vehicle,
        markers=markers,
        start_arclength=float(_pop(cfg, "start_arclength", 0.0)),
        crash_threshold=crash_threshold,
        crash_hold=crash_hold,
        post_outage_k=int(_pop(cfg, "post_outage_k", 5)),
        udp=udp,
    )
    _reject_unknown(cfg, "scenario")
    _validate_clock(scenario)
    return scenario


def _validate_clock(scenario: Scenario):
    if scenario.duration <= 0.0:
        raise ConfigError("duration must be positive")
    ts = scenario.timestep
    if ts <= 0.0:
        raise ConfigError("timestep must be positive")
    ticks_per_second = 1.0 / ts
    if abs(ticks_per_second - round(ticks_per_second)) > 1e-9:
        raise ConfigError(
            f"timestep: period not tick-aligned (1 s is not a whole number "
            f"of {ts} s ticks)"
        )
    for sensor in scenario.sensors:
        if sensor.period() < ts - 1e-12:
            raise ConfigError(f"sensors: rate {sensor.rate_hz} Hz is faster than the timestep")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ConfigError on any problem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    return scenario_from_dict(cfg, default_name)
