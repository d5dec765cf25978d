"""Scenario loading, deterministic runner, sweeps, and the CLI."""

import contextlib
import copy
import dataclasses
import errno
import glob
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedrive import runner as runner_module
from fusedrive import scenario as scenario_module
from fusedrive.cli import main
from fusedrive.control import PidGains
from fusedrive.fusion import POLICIES, DriveLog
from fusedrive.runner import run
from fusedrive.scenario import Scenario, derive_seed, load_scenario, scenario_from_dict
from fusedrive.sweep import SweepSpec, apply_axis, sweep
from fusedrive.udp import run_udp
from fusedrive.wire import SimulatedChannel, encode_command
from fusedrive.world import ConfigError

from oracles import read_plot_data

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def minimal_cfg(**overrides):
    cfg = {
        "track": {"kind": "rounded_rectangle", "center": [1.0, 1.0],
                  "straight": 1.0, "corner_radius": 0.3},
        "sensors": [{"id": "pi", "kind": "onboard",
                     "camera": {"pixels_per_meter": 1300}}],
    }
    cfg.update(overrides)
    return cfg


def sensor_cfg(**fields):
    cfg = minimal_cfg()
    cfg["sensors"][0].update(fields)
    return cfg


PERIODIC = {"kind": "periodic", "period": 3.0, "duration": 0.4}
PROBABILISTIC = {"kind": "probabilistic", "interval": 0.4, "threshold": 20}


def with_cameras(count):
    """minimal_cfg plus `count` infrastructure cameras."""
    cfg = minimal_cfg()
    cfg["sensors"] += [{"id": f"cam{i}", "kind": "infrastructure",
                        "camera": {"coverage": [0.0, 0.0, 2.0, 2.0]}} for i in range(count)]
    return cfg


TWO_SENSORS, THREE_SENSORS = with_cameras(1), with_cameras(2)

# (key path the error must start with, config): each value is unreadable,
# non-finite or out of range.  Each used to escape the loader as a bare
# ValueError, TypeError, IndexError or OverflowError, or to load and then
# fail inside run or be silently accepted.
MALFORMED = [
    ("sensors[0].rate_hz", sensor_cfg(rate_hz="abc")),
    ("seed", minimal_cfg(seed="abc")),
    ("sensors[0].channel.loss", sensor_cfg(channel={"loss": "x"})),
    ("crash.threshold_m", minimal_cfg(crash={"threshold_m": "x"})),
    ("udp.vehicle_port", minimal_cfg(udp={"vehicle_port": "x"})),
    ("start_arclength", minimal_cfg(start_arclength="x")),
    ("vehicle.marker_separation", minimal_cfg(vehicle={"marker_separation": "x"})),
    ("sensors[0].channel", sensor_cfg(channel=[1, 2])),
    ("vehicle", minimal_cfg(vehicle=[1])),
    ("sensors[0].camera", sensor_cfg(camera=[1])),
    ("sensors[0].gains", sensor_cfg(gains=[1])),
    ("sensors[0].channel.delay", sensor_cfg(channel={"delay": [0.1]})),
    ("sensors[0].channel", sensor_cfg(channel={"loss": 2})),
    ("sensors[0].channel", sensor_cfg(channel={"delay": -1})),
    ("duration", minimal_cfg(duration=float("inf"))),
    ("duration", minimal_cfg(duration=float("nan"))),
    ("sensors[0].rate_hz", sensor_cfg(rate_hz=float("nan"))),
    ("post_outage_k", dict(sensor_cfg(outage=PERIODIC), post_outage_k=0)),
    ("seed", minimal_cfg(seed=float("inf"))),
    ("duration", minimal_cfg(duration=1e308)),
    ("duration", minimal_cfg(duration=10 ** 400)),
    ("timestep", minimal_cfg(timestep=5e-324)),
    ("sensors[0].rate_hz", sensor_cfg(rate_hz=5e-324)),
    ("sensors[0].camera.pixels_per_meter", sensor_cfg(camera={"pixels_per_meter": 0})),
    ("sensors[0].camera", sensor_cfg(camera={"crop_size": 0})),
    ("sensors[0].outage.threshold",
     sensor_cfg(outage={"kind": "probabilistic", "threshold": 35.5})),
    ("vehicle", minimal_cfg(vehicle={"wheel_separation": 0})),
    ("vehicle", minimal_cfg(vehicle={"marker_separation": 0})),
    ("udp", minimal_cfg(udp={"vehicle_port": 70000})),
    ("track.line_width", minimal_cfg(track={"kind": "circle", "line_width": 0})),
    # Sensor i binds sensor_port_base + i: the last port must exist.
    ("udp.sensor_port_base", dict(TWO_SENSORS, udp={"sensor_port_base": 65535})),
    ("udp.sensor_port_base", dict(THREE_SENSORS, udp={"sensor_port_base": 65534})),
    ("crash.threshold_m", minimal_cfg(crash={"threshold_m": 0})),
    ("crash.threshold_m", minimal_cfg(crash={"threshold_m": -0.1})),
    # Used to load; the run then reported a crash at -4.965 s, before its start.
    ("crash.hold_s", minimal_cfg(crash={"threshold_m": 0.0001, "hold_s": -5})),
    # The drive log has one onboard and two infrastructure column groups.
    ("sensors:", minimal_cfg(sensors=[{"id": f"pi{i}", "kind": "onboard"} for i in range(2)])),
    ("sensors:", with_cameras(3)),
    ("sensors[0].kind", sensor_cfg(kind="satellite")),
    # Finite, but the speed or turn rate overflowed: math.sin(inf) in Motion.advance.
    ("vehicle", minimal_cfg(vehicle={"power_to_speed": 1e308})),
    ("vehicle", minimal_cfg(vehicle={"power_to_speed": 1.0, "wheel_separation": 1e-308})),
    # Used to "complete" with the vehicle parked: every centreline sample lay
    # under the body at the start, where no frame can see the line.
    ("track:", minimal_cfg(track={"kind": "circle", "radius": 1e-300})),
    ("track:", minimal_cfg(vehicle={"body_radius": 5.0})),
    # Used to load and act as its absolute value.
    ("vehicle.body_radius", minimal_cfg(vehicle={"body_radius": -0.06})),
    # The name names the output directory: these wrote outside it, or raised
    # a ValueError from os.makedirs.
    ("name", minimal_cfg(name="../escaped")),
    ("name", minimal_cfg(name="/")),
    ("name", minimal_cfg(name="a\0b")),
    # Past 255 bytes, NAME_MAX, the output directory cannot be made.
    ("name", minimal_cfg(name="x" * 256)),
    ("name", minimal_cfg(name="é" * 128)),  # 128 characters, 256 bytes
    # A sensor id names its error_<id>.csv: these ran the whole simulation,
    # then failed to open that file.
    ("sensors[0].id", sensor_cfg(id="a/b")),
    ("sensors[0].id", sensor_cfg(id="a\0b")),
    # error_<id>.csv past 255 bytes, NAME_MAX: these ran the whole simulation,
    # then failed with "File name too long".
    ("sensors[0].id", sensor_cfg(id="x" * 246)),
    ("sensors[0].id", sensor_cfg(id="é" * 123)),  # 123 characters, 246 bytes
]

# Used to load and run for ever: the tick count is capped.
TOO_MANY_TICKS = [
    ("duration", minimal_cfg(track={"kind": "circle"}, timestep=1e-300)),
    ("duration", minimal_cfg(track={"kind": "circle"}, duration=1e300)),
    ("duration", minimal_cfg(track={"kind": "circle"}, duration=1e6)),
]
MALFORMED += TOO_MANY_TICKS


def sub_tick_outage(**outage):
    cfg = sensor_cfg(outage=outage)
    cfg.update(track={"kind": "circle"}, duration=2.0)
    return cfg


# An outage that switches faster than the 0.005 s clock.  The first used to
# run for ever (one draw per nanosecond), the second to end in a MemoryError
# listing its windows, and the third to count 90,000 post-outage samples
# from a 23-sample series.
SUB_TICK_OUTAGES = [
    ("sensors[0].outage", sub_tick_outage(kind="probabilistic", interval=1e-9, threshold=50)),
    ("sensors[0].outage", sub_tick_outage(kind="periodic", period=1e-9, duration=0.0)),
    ("sensors[0].outage", sub_tick_outage(kind="periodic", period=1e-4, duration=0.0)),
]
MALFORMED += SUB_TICK_OUTAGES

# (shipped scenario file or config, axis, a good value, then one that the
# scenario file could not hold in the key the axis replaces).
BAD_SWEEP_VALUES = [
    pytest.param("sweep_kp.yaml", "kp", 1.5, -1.0, id="negative-kp"),
    pytest.param("sweep_kp.yaml", "kd", 0.0, float("nan"), id="nan-kd"),
    pytest.param("outage_onboard.yaml", "outage_duration", 0.4, 5.0,
                 id="duration-past-period"),
    pytest.param(sensor_cfg(outage=PROBABILISTIC), "outage_threshold", 20, 35.5,
                 id="fractional-threshold"),
    pytest.param(sensor_cfg(outage=PROBABILISTIC), "outage_threshold", 20, 150,
                 id="threshold-past-100"),
]

# (axis, the outage model it needs, a value it takes), one for each sweep axis.
SWEPT = [pytest.param(axis, outage, value, id=axis) for axis, outage, value in [
    ("kp", None, 1.0), ("ki", None, 0.1), ("kd", None, 1.0),
    ("outage_duration", PERIODIC, 0.2), ("outage_threshold", PROBABILISTIC, 30)]]


NEEDS_LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")
PYTHON_LOADER = scenario_module._loader(yaml.SafeLoader)


@pytest.fixture(params=[pytest.param("libyaml", marks=NEEDS_LIBYAML), "python"])
def parser(request, monkeypatch):
    """load_scenario as shipped, or forced onto PyYAML's pure-Python parser
    under the same guard."""
    if request.param == "python":
        monkeypatch.setattr(scenario_module, "_Loader", PYTHON_LOADER)
    return request.param


def load_with_each_parser(path):
    """load_scenario's outcome, a Scenario or a ConfigError's text, as
    shipped and then with PyYAML's pure-Python parser forced under the same
    guard."""
    def outcome():
        try:
            return load_scenario(path)
        except ConfigError as exc:
            return str(exc)

    shipped = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_Loader", PYTHON_LOADER)
        return shipped, outcome()


def shared_pairs(levels):
    """YAML list items: an anchored list, then levels - 1 pairs of aliases,
    each to the item before."""
    return "  - &l0 [0]\n" + "".join(f"  - &l{i} [*l{i - 1}, *l{i - 1}]\n"
                                     for i in range(1, levels))


finite = st.floats(allow_nan=False, allow_infinity=False)
scenario_dicts = st.fixed_dictionaries({
    "track": st.one_of(
        st.fixed_dictionaries({"kind": st.just("circle"), "radius": st.floats(0.05, 0.99)}),
        st.fixed_dictionaries({"kind": st.just("rounded_rectangle"),
                               "straight": st.floats(0.01, 1.0),
                               "corner_radius": st.floats(0.01, 0.4) | finite})),
    "sensors": st.lists(st.fixed_dictionaries(
        {"id": st.text(max_size=8), "kind": st.just("onboard")},
        optional={"rate_hz": st.floats(1.0, 200.0) | finite,
                  "gains": st.fixed_dictionaries({}, optional=dict.fromkeys(("kp", "ki", "kd"),
                                                                            st.floats(0.0, 9.0))),
                  "camera": st.fixed_dictionaries({}, optional={
                      "pixels_per_meter": st.floats(100.0, 2000.0),
                      "noise_px": finite, "image_width": st.integers(1, 4000)})}),
        min_size=1, max_size=1),
}, optional={
    "name": st.text(max_size=30),
    "seed": st.integers(),
    "duration": st.floats(0.5, 200.0) | finite,
    "fusion": st.sampled_from(sorted(POLICIES)),
    "vehicle": st.fixed_dictionaries({}, optional={"body_radius": st.floats(-0.1, 0.1),
                                                   "max_power": finite}),
    "start_arclength": finite,
})


def shipped_cfg(name):
    with open(os.path.join(SCENARIO_DIR, name), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


SHIPPED_CFGS = {name: shipped_cfg(name) for name in sorted(os.listdir(SCENARIO_DIR))}
# Values a hostile or careless edit might leave: wrong types, negatives,
# nan and inf, and huge values (a track's board_size and radius among them).
hostile_values = st.one_of(
    st.sampled_from([-1, -0.5, 0, 0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300,
                     2 ** 64, 10 ** 400, 2000, 1.0e7, True, None, "", "abc", [], {}, [1, 2, 3]]),
    st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.floats() | st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
added_keys = st.sampled_from(["board_size", "radius", "straight", "corner_radius", "segments",
                              "name", "seed", "duration", "loss", "delay", "rate_hz",
                              "outage", "coverage", "kp", "body_radius", "no_such_key"])


def locations(value, seen=None):
    """Every (container, key) pair within value, each container once."""
    seen = set() if seen is None else seen
    seen.add(id(value))
    for key, child in list(value.items() if isinstance(value, dict) else enumerate(value)):
        yield value, key
        if isinstance(child, (dict, list)) and id(child) not in seen:
            yield from locations(child, seen)


def pick(data, cfg):
    """A (container, key) pair anywhere in cfg."""
    return data.draw(st.sampled_from(list(locations(cfg))))


def edit(data, cfg):
    """One generated edit of cfg, in place.  A shared value or a cycle dumps
    as YAML anchors and aliases."""
    parent, key = pick(data, cfg)
    how = data.draw(st.sampled_from(["replace", "delete", "add", "share", "cycle", "nest"]))
    if how == "replace":
        parent[key] = data.draw(hostile_values)
    elif how == "delete":
        del parent[key]
    elif how == "add":
        target = parent[key] if isinstance(parent[key], dict) else parent
        if isinstance(target, dict):
            target[data.draw(added_keys)] = data.draw(hostile_values)
    elif how == "share":
        other, other_key = pick(data, cfg)
        parent[key] = other[other_key]
    elif how == "cycle":
        parent[key] = parent
    else:
        value = parent[key]
        for _ in range(data.draw(st.integers(1, 40))):
            value = [value]
        parent[key] = value


FUZZ_MAX_TICKS = 2000  # a longer edit runs with its duration cut to this many ticks


def load_and_run(cfg, path):
    """Write cfg to path and load it with each parser.  If it loads, run it
    through the CLI, its duration cut to FUZZ_MAX_TICKS ticks if longer: the
    run ends in exit 0, 1 or 2 and prints no traceback."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    outcomes = load_with_each_parser(path)
    for outcome in outcomes:
        assert isinstance(outcome, (Scenario, str))
    if not isinstance(outcomes[0], Scenario):
        return
    if outcomes[0].n_ticks() > FUZZ_MAX_TICKS:
        cfg["duration"] = FUZZ_MAX_TICKS * outcomes[0].timestep
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", path, "--out", os.path.join(os.path.dirname(path), "runs")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def numeric_leaves(value, path=()):
    """The key path of every int or float leaf within value."""
    for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
        if isinstance(child, (dict, list)):
            yield from numeric_leaves(child, (*path, key))
        elif type(child) in (int, float):
            yield (*path, key)


class TestLoaderFuzz:
    """Edits of the shipped files load, or are a ConfigError, with either
    parser, and those that load run through the CLI."""

    @settings(max_examples=80)
    @given(st.sampled_from(sorted(SHIPPED_CFGS)),
           st.sampled_from([None] * 4 + [10, 1e3, 1e6, 1e300]), st.integers(1, 3), st.data())
    def test_edited_scenarios_load_or_are_config_errors(self, name, scale, edits, data):
        cfg = copy.deepcopy(SHIPPED_CFGS[name])
        if scale:  # the shipped loop, scale times as large (on a board to match)
            cfg["track"].update(board_size=2.0 * scale, center=[scale, scale],
                                straight=scale, corner_radius=0.3 * scale)
        for _ in range(edits):
            if cfg:
                edit(data, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            load_and_run(cfg, os.path.join(tmp, name))

    # Few hostile edits leave a file that loads; numbers scaled more often do.
    @settings(max_examples=40)
    @given(st.sampled_from(sorted(SHIPPED_CFGS)), st.integers(1, 3), st.data())
    def test_scaled_scenarios_run_or_are_config_errors(self, name, edits, data):
        cfg = copy.deepcopy(SHIPPED_CFGS[name])
        numbers = [(c, k) for c, k in locations(cfg) if type(c[k]) in (int, float)]
        for _ in range(edits):
            parent, key = data.draw(st.sampled_from(numbers))
            parent[key] *= data.draw(st.sampled_from([-1, 0, 0.1, 0.5, 2, 10, 1e6]))
        with tempfile.TemporaryDirectory() as tmp:
            load_and_run(cfg, os.path.join(tmp, name))

    def test_each_numeric_leaf_at_extremes_ends_in_bounded_time(self, tmp_path, capsys):
        # Each key path once, from the first shipped file that holds it.
        files = {}
        for name, cfg in SHIPPED_CFGS.items():
            for path in numeric_leaves(cfg):
                files.setdefault(path, name)

        def overran(signum, frame):
            pytest.fail("a 2 s run took over 5 s")
        handler = signal.signal(signal.SIGALRM, overran)
        try:
            for path, name in files.items():
                for value in (0, 1e-300, -1e-300, 1e300, -1e300, 2 ** 63):
                    cfg = dict(copy.deepcopy(SHIPPED_CFGS[name]), duration=2.0)
                    parent = cfg
                    for key in path[:-1]:
                        parent = parent[key]
                    parent[path[-1]] = value
                    scenario = tmp_path / name
                    scenario.write_text(yaml.safe_dump(cfg), encoding="utf-8")
                    signal.alarm(5)
                    code = main(["run", str(scenario), "--out", str(tmp_path / "runs")])
                    signal.alarm(0)
                    assert code in (0, 1, 2), (name, path, value)
                    assert "Traceback" not in capsys.readouterr().err, (name, path, value)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)


class TestParsers:
    """libyaml's parser and PyYAML's own load every file alike."""

    @NEEDS_LIBYAML
    @pytest.mark.parametrize("name", sorted(os.listdir(SCENARIO_DIR)))
    def test_shipped_scenarios_load_alike(self, name):
        shipped, python = load_with_each_parser(os.path.join(SCENARIO_DIR, name))
        assert isinstance(shipped, Scenario)
        assert shipped == python

    @NEEDS_LIBYAML
    @settings(max_examples=60)
    @given(scenario_dicts)
    def test_dumped_scenarios_load_alike(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dumped.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(cfg, fh)
            shipped, python = load_with_each_parser(path)
        assert shipped == python


def scenario_path(source, tmp_path) -> str:
    """A shipped scenario file by name, or a config written to tmp_path."""
    if isinstance(source, str):
        return os.path.join(SCENARIO_DIR, source)
    path = tmp_path / "swept.yaml"
    path.write_text(yaml.safe_dump(source), encoding="utf-8")
    return str(path)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(1, "pi", "noise")
        assert a == derive_seed(1, "pi", "noise")
        assert a != derive_seed(1, "pi", "channel")
        assert a != derive_seed(2, "pi", "noise")
        assert a != derive_seed(1, "cam0", "noise")
        assert 0 <= a < 2 ** 64

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")


class TestScenarioValidation:
    def test_fixture_files_load(self):
        paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.yaml")))
        assert len(paths) >= 6
        for path in paths:
            sc = load_scenario(path)
            assert sc.name == os.path.splitext(os.path.basename(path))[0]

    def test_defaults(self):
        sc = scenario_from_dict(minimal_cfg())
        assert sc.seed == 0
        assert sc.duration == 100.0
        assert sc.timestep == 0.005
        assert sc.fusion == "confidence_weighted"
        assert sc.sensors[0].rate_hz == 11.0
        assert sc.sensors[0].gains.kp == 1.5

    def test_readme_schema_loads(self):
        with open(os.path.join(SCENARIO_DIR, os.pardir, "README.md"), encoding="utf-8") as fh:
            block = fh.read().split("The schema, with defaults in parentheses:")[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        sc = scenario_from_dict(yaml.safe_load(block))
        assert sc.name == "my_scenario"
        assert sc.vehicle.max_power == 255.0
        assert [s.sensor_id for s in sc.sensors] == ["pi", "cam0"]

    def test_kind_default_gains(self):
        cams = with_cameras(1)["sensors"]
        sc = scenario_from_dict(minimal_cfg(sensors=cams))
        assert sc.sensors[0].gains == PidGains(1.5, 0.15, 4.5)
        assert sc.sensors[1].gains == PidGains(1.0, 0.02, 0.5)
        # A gains section replaces the kind's defaults: unset gains are 0.
        cams[1]["gains"] = {"kp": 2.0}
        assert scenario_from_dict(minimal_cfg(sensors=cams)).sensors[1].gains == PidGains(2.0)

    def test_infra_rate_default(self):
        cfg = minimal_cfg(sensors=[{
            "id": "cam0", "kind": "infrastructure",
            "camera": {"coverage": [0, 0, 2, 2], "pixels_per_meter": 300,
                       "crop_size": 36}}])
        sc = scenario_from_dict(cfg)
        assert sc.sensors[0].rate_hz == 20.0
        assert sc.sensors[0].gains.kp == 1.0

    def test_empty_scenario(self):
        with pytest.raises(ConfigError, match="missing field: track"):
            scenario_from_dict(None)

    def test_missing_sensors(self):
        cfg = minimal_cfg()
        del cfg["sensors"]
        with pytest.raises(ConfigError, match="missing field: sensors"):
            scenario_from_dict(cfg)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key in scenario: fusionn"):
            scenario_from_dict(minimal_cfg(fusionn="maximum_confidence"))

    def test_unknown_sensor_key(self):
        cfg = minimal_cfg()
        cfg["sensors"][0]["rate"] = 11
        with pytest.raises(ConfigError, match=r"unknown key in sensors\[0\]: rate"):
            scenario_from_dict(cfg)

    def test_unknown_camera_key(self):
        cfg = minimal_cfg()
        cfg["sensors"][0]["camera"]["zoom"] = 2
        with pytest.raises(ConfigError, match=r"sensors\[0\].camera: zoom"):
            scenario_from_dict(cfg)

    def test_unknown_outage_kind(self):
        cfg = minimal_cfg()
        cfg["sensors"][0]["outage"] = {"kind": "cosmic"}
        with pytest.raises(ConfigError, match="unknown outage kind"):
            scenario_from_dict(cfg)

    def test_duplicate_sensor_ids(self):
        cfg = minimal_cfg()
        cfg["sensors"] = [cfg["sensors"][0], copy.deepcopy(cfg["sensors"][0])]
        with pytest.raises(ConfigError, match="duplicate sensor id"):
            scenario_from_dict(cfg)

    def test_too_many_onboard(self):
        s = minimal_cfg()["sensors"][0]
        cfg = minimal_cfg(sensors=[dict(s, id="a"), dict(s, id="b")])
        with pytest.raises(ConfigError, match="one onboard and two"):
            scenario_from_dict(cfg)

    def test_unknown_fusion(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            scenario_from_dict(minimal_cfg(fusion="median"))

    def test_timestep_must_divide_one_second(self):
        with pytest.raises(ConfigError, match="period not tick-aligned"):
            scenario_from_dict(minimal_cfg(timestep=0.007))
        sc = scenario_from_dict(minimal_cfg(timestep=0.004))
        assert sc.n_ticks() == 25000

    def test_rate_faster_than_tick(self):
        cfg = minimal_cfg()
        cfg["sensors"][0]["rate_hz"] = 300
        with pytest.raises(ConfigError, match="faster than the timestep"):
            scenario_from_dict(cfg)

    def test_infra_coverage_required(self):
        cfg = minimal_cfg(sensors=[{"id": "cam0", "kind": "infrastructure"}])
        with pytest.raises(ConfigError, match="coverage"):
            scenario_from_dict(cfg)

    def test_track_errors_wrapped(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(minimal_cfg(track={"kind": "circle", "radius": 5.0}))

    # A 5.7 km loop would take 2.8 M samples, and a 6,300 km one 23 GiB.
    @pytest.mark.parametrize("board_size, radius", [(2000, 900), (1.0e7, 1.0e6)])
    def test_track_longer_than_its_sampling_cap_is_refused(self, board_size, radius):
        track = {"kind": "circle", "board_size": board_size, "radius": radius}
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="^track is .* m long, over the limit"):
            scenario_from_dict(minimal_cfg(track=track))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("where, cfg", MALFORMED)
    def test_malformed_value_is_config_error(self, where, cfg):
        with pytest.raises(ConfigError, match="^" + re.escape(where)):
            scenario_from_dict(copy.deepcopy(cfg))

    @pytest.mark.parametrize("where, cfg", TOO_MANY_TICKS)
    def test_tick_count_is_capped_at_load(self, where, cfg):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="^duration: .* at a timestep of .* over the limit"):
            scenario_from_dict(copy.deepcopy(cfg))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("where, cfg", SUB_TICK_OUTAGES)
    def test_outage_faster_than_the_clock_is_refused_at_load(self, where, cfg):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="^" + re.escape(where) + ": switches faster"):
            scenario_from_dict(copy.deepcopy(cfg))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("outage", [
        {"kind": "periodic", "period": 0.005, "duration": 0.0025},
        {"kind": "probabilistic", "interval": 0.005, "threshold": 50},
    ])
    def test_outage_span_of_one_tick_loads(self, outage):
        sc = scenario_from_dict(dict(sensor_cfg(outage=outage), duration=1.0))
        assert sc.sensors[0].outage.span == sc.timestep
        assert run(sc).summaries["post_outage_deviation"]["count"] > 0

    def test_tick_count_up_to_the_cap_loads(self):
        cap = scenario_module._MAX_TICKS
        assert scenario_from_dict(minimal_cfg(duration=cap * 0.005)).n_ticks() == cap
        with pytest.raises(ConfigError, match="^duration"):
            scenario_from_dict(minimal_cfg(duration=(cap + 1) * 0.005))

    # Anchors are refused as they are composed, so no alias resolves.
    # Let through, a cycle would nest without end, and each level of shared
    # pairs would double what str() of the value prints: 22 levels, 4 M pairs.
    @pytest.mark.parametrize("text", [
        "name: &loop [*loop]\n",
        "junk:\n" + shared_pairs(30),
        "name:\n" + shared_pairs(22),
        "fusion:\n" + shared_pairs(22),
        "name: *x\n",
    ], ids=["cycle", "shared", "name", "fusion", "bare"])
    def test_aliases_are_walked_within_bounds(self, parser, text, tmp_path, capsys):
        path = tmp_path / "aliases.yaml"
        path.write_text(yaml.safe_dump(minimal_cfg()) + text)
        start = time.perf_counter()
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "configuration error: cannot parse" in err
        assert "Traceback" not in err

    # The document is level 1, so a value under a top-level key may hold 31
    # nested lists, and 32 are one level too many.
    @pytest.mark.parametrize("depth", [31, 32])
    def test_nesting_is_capped_at_32_levels(self, parser, depth, tmp_path):
        path = tmp_path / "nested.yaml"
        path.write_text(yaml.safe_dump(minimal_cfg()) + "name: " + "[" * depth + "]" * depth)
        if depth == 31:
            assert load_scenario(path).name == "[" * depth + "]" * depth
        else:
            with pytest.raises(ConfigError, match="cannot parse .*: nested deeper than 32 levels"):
                load_scenario(path)

    def test_zero_body_radius_loads(self):
        assert scenario_from_dict(minimal_cfg(vehicle={"body_radius": 0})).markers.body_radius == 0

    @pytest.mark.parametrize("base, cfg", [(65534, TWO_SENSORS), (65535, minimal_cfg()),
                                           (0, THREE_SENSORS)])
    def test_sensor_ports_up_to_65535_load(self, base, cfg):
        cfg = dict(copy.deepcopy(cfg), udp={"sensor_port_base": base})
        assert scenario_from_dict(cfg).udp.sensor_port_base == base


def snapshot(root):
    """Every path under root, each file with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def fail_writing(monkeypatch, module, name):
    """module's open of a file called name creates it, then fails as on a
    full disk."""
    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.path.basename(path) == name:
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        return fh
    monkeypatch.setattr(f"{module}.open", failing_open, raising=False)


def use_cpus(monkeypatch, n):
    """Make n CPUs usable, as a sweep counts them; returns the list of the
    pids that os.fork starts from here on."""
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


def run_fields(result):
    """Every field of a RunResult, its drive log and series as their contents."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    fields["rows"] = list(result.rows.records())
    fields["series"] = {k: (s.name, s.times, s.values) for k, s in result.series.items()}
    return repr(fields)


def fail_json_dump(monkeypatch):
    def failing_dump(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr("fusedrive.runner.json.dump", failing_dump)


def refuse_frames(monkeypatch):
    """Fail the test at the first frame any sensor takes."""
    def refuse(*args):
        raise AssertionError("a frame was taken")
    monkeypatch.setattr(runner_module, "observe", refuse)


RUN_FILES = ["correction.csv", "deviation.csv", "drive_log.csv", "error_pi.csv", "summary.json"]


class TestRunner:
    def test_sensor_cadence_sets_row_count(self):
        sc = scenario_from_dict(minimal_cfg(duration=10.0))
        res = run(sc)
        # 11 Hz rounds to one observation every 18 ticks of 5 ms
        assert len(res.rows) == len(range(0, 2000, 18))
        assert res.completed

    def test_error_series_named_by_sensor(self):
        sc = scenario_from_dict(minimal_cfg(duration=5.0))
        res = run(sc)
        assert "error_pi" in res.series
        assert len(res.series["error_pi"]) > 0

    @pytest.mark.parametrize("sensor_id", ["x" * 245, "é" * 122 + "x"], ids=["ascii", "utf-8"])
    def test_longest_sensor_id_writes_its_error_series(self, sensor_id, tmp_path):
        # error_<id>.csv of 255 bytes, NAME_MAX, loads and is written.
        run(scenario_from_dict(dict(sensor_cfg(id=sensor_id), duration=1.0)), tmp_path / "out")
        assert os.path.isfile(tmp_path / "out" / f"error_{sensor_id}.csv")

    def test_total_loss_parks_vehicle(self):
        cfg = minimal_cfg(duration=5.0)
        cfg["sensors"][0]["channel"] = {"loss": 1.0}
        res = run(scenario_from_dict(cfg))
        assert res.completed
        assert list(res.rows) == []
        assert res.summaries["correction"] == {"count": 0}

    def test_outage_summaries_present_only_with_outage(self):
        res = run(scenario_from_dict(minimal_cfg(duration=5.0)))
        assert "post_outage_correction" not in res.summaries
        cfg = minimal_cfg(duration=5.0)
        cfg["sensors"][0]["outage"] = {"kind": "periodic", "period": 3.0,
                                       "duration": 0.2}
        res = run(scenario_from_dict(cfg))
        assert "post_outage_correction" in res.summaries
        assert "post_outage_deviation" in res.summaries

    def test_crash_sets_exit_code(self):
        cfg = minimal_cfg(seed=1)
        cfg["sensors"][0]["outage"] = {"kind": "periodic", "period": 3.0,
                                       "duration": 1.0}
        res = run(scenario_from_dict(cfg))
        assert not res.completed
        assert res.crash_time is not None and res.crash_time < 100.0
        assert res.summaries["deviation"]["crash_time"] == res.crash_time

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg = minimal_cfg(duration=8.0, seed=42)
        cfg["sensors"][0]["channel"] = {"loss": 0.2, "delay": [0.0, 0.03]}
        run(scenario_from_dict(cfg), tmp_path / "a")
        run(scenario_from_dict(cfg), tmp_path / "b")
        names = sorted(os.listdir(tmp_path / "a"))
        assert names and names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            with open(tmp_path / "a" / name, "rb") as fh:
                left = fh.read()
            with open(tmp_path / "b" / name, "rb") as fh:
                right = fh.read()
            assert left == right, name

    def test_different_seed_different_rows(self):
        cfg = minimal_cfg(duration=8.0)
        cfg["sensors"][0]["channel"] = {"loss": 0.2}
        a = run(scenario_from_dict(dict(cfg, seed=1)))
        b = run(scenario_from_dict(dict(cfg, seed=2)))
        assert list(a.rows) != list(b.rows)

    def test_output_files(self, tmp_path):
        cfg = minimal_cfg(duration=5.0)
        res = run(scenario_from_dict(cfg), tmp_path / "out")
        assert sorted(os.listdir(tmp_path / "out")) == [
            "correction.csv", "deviation.csv", "drive_log.csv",
            "error_pi.csv", "summary.json",
        ]
        with open(tmp_path / "out" / "drive_log.csv", "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header.startswith("time,left,right,piLeft")
        with open(tmp_path / "out" / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["completed"] is True
        assert summary["metrics"]["deviation"]["count"] == len(res.series["deviation"])

    def test_rerun_removes_stale_error_series(self, tmp_path):
        cams = [{"id": f"cam{k}", "kind": "infrastructure",
                 "camera": {"coverage": [0, 0, 2, 2], "pixels_per_meter": 300,
                            "crop_size": 36}} for k in range(2)]
        cfg = minimal_cfg(duration=2.0)
        run(scenario_from_dict(dict(cfg, sensors=cfg["sensors"] + cams)), tmp_path / "out")
        assert "error_cam1.csv" in os.listdir(tmp_path / "out")
        (tmp_path / "out" / "notes.txt").write_text("kept", encoding="utf-8")
        run(scenario_from_dict(cfg), tmp_path / "out")
        assert sorted(os.listdir(tmp_path / "out")) == [
            "correction.csv", "deviation.csv", "drive_log.csv",
            "error_pi.csv", "summary.json",
        ]

    @pytest.mark.parametrize("failing", [*RUN_FILES, "json.dump"])
    def test_failed_rerun_leaves_the_earlier_run_whole(self, failing, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run(scenario_from_dict(minimal_cfg(duration=2.0, seed=1)), out)
        before = snapshot(out)
        if failing == "json.dump":
            fail_json_dump(monkeypatch)
        else:
            fail_writing(monkeypatch, "fusedrive.runner", failing)
        with pytest.raises(OSError):
            run(scenario_from_dict(minimal_cfg(duration=2.0, seed=2)), out)
        assert snapshot(out) == before
        assert os.listdir(tmp_path) == ["out"]

    def test_output_dirs_get_the_mode_makedirs_gives(self, tmp_path):
        run(scenario_from_dict(minimal_cfg(duration=1.0)), tmp_path / "run")
        sweep(scenario_from_dict(minimal_cfg(duration=1.0)), SweepSpec("kp", (1.0,), reps=1),
              tmp_path / "sweep")
        os.makedirs(tmp_path / "made")
        mode = os.stat(tmp_path / "made").st_mode
        for made in (tmp_path / "run", tmp_path / "sweep", tmp_path / "sweep" / "kp_1_rep0"):
            assert os.stat(made).st_mode == mode

    def test_symlinked_output_dir_is_replaced_at_its_target(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        (target / "notes.txt").write_text("replaced", encoding="utf-8")
        (tmp_path / "link").symlink_to(target, target_is_directory=True)
        run(scenario_from_dict(minimal_cfg(duration=1.0)), tmp_path / "link")
        assert os.readlink(tmp_path / "link") == str(target)
        assert sorted(os.listdir(target)) == RUN_FILES
        assert sorted(os.listdir(tmp_path)) == ["link", "target"]

    @pytest.mark.parametrize("transport", [run, run_udp], ids=["sim", "udp"])
    @pytest.mark.parametrize("out", ["file", "file/out", pytest.param("x" * 256, id="x*256")])
    def test_unusable_output_path_fails_before_the_first_frame(self, transport, out, tmp_path,
                                                                 monkeypatch):
        # A file at the output path, or at its parent, or a name past NAME_MAX:
        # the run raises before any sensor observes, instead of after its last
        # tick.
        refuse_frames(monkeypatch)
        (tmp_path / "file").write_text("kept", encoding="utf-8")
        cfg = minimal_cfg(duration=1.0, udp={"vehicle_port": 0, "sensor_port_base": 0})
        with pytest.raises(OSError):
            transport(scenario_from_dict(cfg), tmp_path / out)
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"
        assert os.listdir(tmp_path) == ["file"]

    def test_in_memory_runs_format_no_drive_log(self, monkeypatch):
        scenario = load_scenario(os.path.join(SCENARIO_DIR, "combined_weighted.yaml"))
        scenario.duration = 10.0
        spec = SweepSpec("kp", (1.0, 2.0), reps=1)

        def summaries():
            table = sweep(scenario, spec)
            return run(scenario).summaries, [r.summaries for rs in table.runs for r in rs]

        expected = summaries()

        def refuse(value):
            raise AssertionError("a drive-log field was formatted")
        monkeypatch.setattr("fusedrive.fusion.format_field", refuse)
        assert summaries() == expected

    def test_written_run_reads_its_drive_log_once(self, tmp_path, monkeypatch):
        reads = []
        iterate = DriveLog.__iter__

        def counted(log):
            reads.append(log)
            return iterate(log)
        monkeypatch.setattr(DriveLog, "__iter__", counted)
        res = run(scenario_from_dict(minimal_cfg(duration=2.0)), tmp_path / "out")
        assert len(reads) == 1 and reads[0] is res.rows
        with open(tmp_path / "out" / "drive_log.csv", "r", encoding="utf-8") as fh:
            assert len(fh.readlines()) == len(res.rows) + 1 > 1


class TestSweep:
    def test_single_value_equals_plain_run_with_derived_seed(self):
        sc = scenario_from_dict(minimal_cfg(duration=5.0, seed=9))
        table = sweep(sc, SweepSpec("kp", (1.5,), reps=1))
        direct = copy.deepcopy(sc)
        direct.seed = derive_seed(9, "kp", 1.5, 0)
        res = run(apply_axis(direct, "kp", 1.5))
        assert list(table.runs[0][0].rows) == list(res.rows)
        assert table.metrics["deviation"][0][0] == pytest.approx(
            res.summaries["deviation"]["mean_abs"])

    def test_apply_axis_replaces_gain_everywhere(self):
        sc = scenario_from_dict(minimal_cfg())
        out = apply_axis(sc, "kd", 0.0)
        assert out.sensors[0].gains.kd == 0.0
        assert sc.sensors[0].gains.kd == 4.5  # original untouched

    def test_outage_axis_needs_matching_model(self):
        sc = scenario_from_dict(minimal_cfg())
        with pytest.raises(ConfigError, match="periodic"):
            apply_axis(sc, "outage_duration", 0.5)
        with pytest.raises(ConfigError, match="probabilistic"):
            apply_axis(sc, "outage_threshold", 30)

    def test_duplicate_values_keep_their_own_cells(self):
        sc = scenario_from_dict(minimal_cfg(duration=5.0))
        table = sweep(sc, SweepSpec("kp", (1.5, 1.5), reps=1))
        assert table.metrics["deviation"][0] == table.metrics["deviation"][1]

    def test_emit_read_roundtrip(self, tmp_path):
        sc = scenario_from_dict(minimal_cfg(duration=5.0))
        table = sweep(sc, SweepSpec("kp", (1.0, 2.0), reps=2), tmp_path)
        path = tmp_path / "kp_deviation.dat"
        assert path.exists()
        header, data = read_plot_data(path)
        assert header == ["kp", "mean_abs", "std_abs", "crash_rate"]
        assert data.shape == (2, 4)
        assert data[:, 0].tolist() == [1.0, 2.0]
        assert data[0, 1] == pytest.approx(table.metrics["deviation"][0][0])

    def test_run_dirs_named_like_dat_values(self, tmp_path):
        sc = scenario_from_dict(minimal_cfg(duration=1.0))
        sweep(sc, SweepSpec("kp", (1.0, 1.0000001), reps=1), tmp_path)
        assert sorted(p.name for p in tmp_path.glob("kp_*_rep0")) == [
            "kp_1.0000001_rep0", "kp_1_rep0"]
        _, data = read_plot_data(tmp_path / "kp_deviation.dat")
        assert data[:, 0].tolist() == [1.0, 1.0000001]

    def test_rerun_leaves_only_its_own_outputs(self, tmp_path):
        sc = scenario_from_dict(minimal_cfg(duration=1.0))
        outage = dict(sensor_cfg(outage=PERIODIC), duration=1.0)
        sweep(scenario_from_dict(outage), SweepSpec("kp", (1.0, 2.0), reps=2), tmp_path)
        assert (tmp_path / "kp_post_outage_deviation.dat").exists()
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        sweep(sc, SweepSpec("kp", (1.0,), reps=1), tmp_path)
        assert sorted(os.listdir(tmp_path)) == [
            "kp_1_rep0", "kp_correction.dat", "kp_deviation.dat", "kp_error_pi.dat",
        ]
        assert sorted(os.listdir(tmp_path / "kp_1_rep0")) == [
            "correction.csv", "deviation.csv", "drive_log.csv", "error_pi.csv", "summary.json",
        ]

    # Two jobs on two CPUs: this process runs job 0, a forked child job 1.
    @pytest.mark.parametrize("failing", [pytest.param(1, id="run"), pytest.param(0, id="caller_run"),
                                         "kp_deviation.dat"])
    def test_failed_rerun_leaves_the_earlier_sweep_whole(self, failing, tmp_path, monkeypatch):
        spec = SweepSpec("kp", (1.0, 2.0), reps=1)
        out = tmp_path / "out"
        sweep(scenario_from_dict(minimal_cfg(duration=2.0, seed=1)), spec, out)
        before = snapshot(out)
        forked = use_cpus(monkeypatch, 2)
        if failing == "kp_deviation.dat":
            fail_writing(monkeypatch, "fusedrive.sweep", failing)
            error = OSError
        else:
            failing_seed = derive_seed(2, "kp", spec.values[failing], 0)

            def run_or_fail(variant, out_dir):
                if variant.seed == failing_seed:
                    raise RuntimeError("run failed")
                return run(variant, out_dir)
            monkeypatch.setattr("fusedrive.sweep.run", run_or_fail)
            error = RuntimeError
        with pytest.raises(error):
            sweep(scenario_from_dict(minimal_cfg(duration=2.0, seed=2)), spec, out)
        assert snapshot(out) == before
        assert os.listdir(tmp_path) == ["out"]
        assert_reaped(forked)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forked_sweep_equals_the_sweep_run_here(self, cpus, tmp_path, monkeypatch):
        sc = scenario_from_dict(dict(sensor_cfg(outage=PERIODIC), duration=4.0, seed=5))
        spec = SweepSpec("kp", (1.0, 2.0), reps=2)
        tables = {}
        for n in (1, cpus):
            forked = use_cpus(monkeypatch, n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tables[n] = sweep(sc, spec, tmp_path / str(n))
            assert [str(w.message) for w in caught] == []
        assert len(forked) == cpus - 1
        assert_reaped(forked)
        here, forked = tables[1], tables[cpus]
        assert (forked.axis, forked.values, repr(forked.metrics), forked.crash_rate) == (
            here.axis, here.values, repr(here.metrics), here.crash_rate)
        assert [[run_fields(r) for r in rs] for rs in forked.runs] == [
            [run_fields(r) for r in rs] for rs in here.runs]
        assert snapshot(tmp_path / str(cpus)) == snapshot(tmp_path / "1")

    @pytest.mark.parametrize("cpus, values, mine", [(2, (1.0, 2.0), [0, 3]),
                                                    (3, (1.0, 2.0, 3.0), [0, 5])])
    def test_this_process_runs_its_snake_share(self, cpus, values, mine, monkeypatch):
        # Jobs are dealt 0..P-1, P-1..0, ...: this process takes the first
        # and the last of every 2P.
        seeds = [derive_seed(4, "kp", value, rep) for value in values for rep in range(2)]
        ran = []

        def recorded(variant, out_dir):
            ran.append(variant.seed)
            return run(variant, out_dir)
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr("fusedrive.sweep.run", recorded)
        table = sweep(scenario_from_dict(minimal_cfg(duration=1.0, seed=4)),
                      SweepSpec("kp", values, reps=2))
        assert ran == [seeds[i] for i in mine]
        assert [r.seed for rs in table.runs for r in rs] == seeds

    # Four jobs: on 2 CPUs this process runs [0, 3] and a child [1, 2]; on 3,
    # this process [0], the children [1] and [2, 3].
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [(1, 3), (2, 3), (0, 1), (3,)],
                             ids=lambda jobs: ",".join(map(str, jobs)))
    def test_failed_sweep_raises_the_first_failed_run_on_any_cpu_count(self, cpus, failing,
                                                                      monkeypatch):
        values = (1.0, 2.0)
        seeds = [derive_seed(6, "kp", value, rep) for value in values for rep in range(2)]
        caller = os.getpid()

        def run_or_fail(variant, out_dir):
            job = seeds.index(variant.seed)
            if job in failing:
                raise RuntimeError(f"job {job} failed")
            return run(variant, out_dir)
        forked = use_cpus(monkeypatch, cpus)
        monkeypatch.setattr("fusedrive.sweep.run", run_or_fail)
        with pytest.raises(RuntimeError, match=f"^job {failing[0]} failed$") as raised:
            sweep(scenario_from_dict(minimal_cfg(duration=1.0, seed=6)),
                  SweepSpec("kp", values, reps=2))
        assert len(forked) == cpus - 1
        if forked:
            assert_reaped(forked)
        # A child's exception carries the child's traceback as its cause.
        in_child = cpus == 3 and failing[0] > 0 or cpus == 2 and failing[0] in (1, 2)
        cause = raised.value.__cause__
        assert (cause is not None) == in_child
        if in_child:
            assert "Traceback (most recent call last)" in str(cause)
            assert f"RuntimeError: job {failing[0]} failed" in str(cause)
        assert os.getpid() == caller

    def test_child_that_dies_makes_the_sweep_raise(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def die_in_child(variant, out_dir):
            if os.getpid() != caller:
                os._exit(3)
            return run(variant, out_dir)
        forked = use_cpus(monkeypatch, 2)
        monkeypatch.setattr("fusedrive.sweep.run", die_in_child)
        with pytest.raises(ChildProcessError, match="died without replying"):
            sweep(scenario_from_dict(minimal_cfg(duration=1.0)),
                  SweepSpec("kp", (1.0, 2.0), reps=1), tmp_path / "out")
        assert os.listdir(tmp_path) == []
        assert_reaped(forked)

    def test_second_thread_keeps_every_run_in_this_process(self, monkeypatch):
        def refuse_fork():
            raise AssertionError("forked beside a second thread")
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", refuse_fork)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            table = sweep(scenario_from_dict(minimal_cfg(duration=1.0)),
                          SweepSpec("kp", (1.0, 2.0), reps=1))
        finally:
            release.set()
            helper.join(timeout=10)
        assert not helper.is_alive()
        assert [len(rs) for rs in table.runs] == [1, 1]

    @pytest.mark.parametrize("out", ["file", "file/out", pytest.param("x" * 256, id="x*256")])
    def test_unusable_output_path_fails_before_any_run(self, out, tmp_path, monkeypatch):
        # A file at the output path, or at its parent, or a name past NAME_MAX:
        # the sweep raises before its first run instead of after its last.
        calls = []
        monkeypatch.setattr("fusedrive.sweep.run", lambda *args: calls.append(args))
        (tmp_path / "file").write_text("kept", encoding="utf-8")
        with pytest.raises(OSError):
            sweep(scenario_from_dict(minimal_cfg(duration=1.0)),
                  SweepSpec("kp", (1.0, 2.0), reps=1), tmp_path / out)
        assert calls == []
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"
        assert os.listdir(tmp_path) == ["file"]

    @pytest.mark.parametrize("axis, outage, value", SWEPT)
    def test_longest_error_table_name_is_written(self, axis, outage, value, tmp_path):
        # <axis>_error_<id>.dat of 255 bytes, NAME_MAX.
        sensor_id = "x" * (255 - len(f"{axis}_error_.dat"))
        sc = scenario_from_dict(dict(sensor_cfg(id=sensor_id, outage=outage), duration=1.0))
        sweep(sc, SweepSpec(axis, (value,), reps=1), tmp_path / "out")
        assert (tmp_path / "out" / f"{axis}_error_{sensor_id}.dat").is_file()

    @pytest.mark.parametrize("axis, outage, value", SWEPT)
    def test_error_table_name_past_name_max_stops_before_any_run(self, axis, outage, value,
                                                                  tmp_path, monkeypatch):
        # A sensor id that loads, but makes <axis>_error_<id>.dat 256 bytes:
        # the sweep used to run every run, then fail to open that table.
        sensor_id = "x" * (256 - len(f"{axis}_error_.dat"))
        sc = scenario_from_dict(sensor_cfg(id=sensor_id, outage=outage))
        monkeypatch.setattr("fusedrive.sweep.run", pytest.fail)
        with pytest.raises(ConfigError, match=r"^sensors\[0\]\.id: .* is 256 bytes"):
            sweep(sc, SweepSpec(axis, (value,), reps=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_values_sharing_a_dir_label_rejected(self, tmp_path):
        sc = scenario_from_dict(minimal_cfg(duration=1.0))
        with pytest.raises(ConfigError, match="directory label '1'"):
            sweep(sc, SweepSpec("kp", (1.0, 1.00000000001), reps=1), tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source, axis, good, bad", BAD_SWEEP_VALUES)
    def test_value_a_file_could_not_hold_stops_before_anything(self, source, axis, good,
                                                               bad, tmp_path, monkeypatch):
        sc = load_scenario(scenario_path(source, tmp_path))
        monkeypatch.setattr("fusedrive.sweep.run", pytest.fail)
        kept = tmp_path / "out" / f"{axis}_9_rep0"
        kept.mkdir(parents=True)
        with pytest.raises(ConfigError, match=f"^{axis}: "):
            sweep(sc, SweepSpec(axis, (good, bad), reps=1), tmp_path / "out")
        assert kept.is_dir()

    def test_threshold_read_as_a_whole_number(self):
        sc = scenario_from_dict(sensor_cfg(outage=PROBABILISTIC))
        threshold = apply_axis(sc, "outage_threshold", 35.0).sensors[0].outage.threshold
        assert threshold == 35 and isinstance(threshold, int)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SweepSpec("kq", (1.0,))
        with pytest.raises(ConfigError):
            SweepSpec("kp", ())
        with pytest.raises(ConfigError):
            SweepSpec("kp", (1.0,), reps=0)


class TestCli:
    def write_scenario(self, tmp_path, **overrides):
        cfg = minimal_cfg(**{"duration": 5.0, **overrides})
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        return str(path)

    def test_run_exit_zero_and_outputs(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        code = main(["run", path, "--out", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed 5 s" in out
        assert (tmp_path / "runs" / "tiny" / "drive_log.csv").exists()

    def test_run_crash_exit_two(self, tmp_path):
        cfg_sensors = [{"id": "pi", "kind": "onboard",
                        "camera": {"pixels_per_meter": 1300},
                        "outage": {"kind": "periodic", "period": 3.0,
                                   "duration": 1.0}}]
        path = self.write_scenario(tmp_path, duration=100.0, seed=1,
                                   sensors=cfg_sensors)
        code = main(["run", path, "--out", str(tmp_path / "runs")])
        assert code == 2

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("track: {}\n", encoding="utf-8")
        code = main(["run", str(path), "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_markers_on_one_pixel_run_without_traceback(self, tmp_path, capsys):
        # Both roof markers project to the same pixel.  This used to end in
        # "ValueError: degenerate marker pair" from sensor_tick.
        cfg = {"duration": 2.0, "track": {"kind": "circle"},
               "vehicle": {"marker_separation": 1e-300},
               "sensors": [{"id": "cam", "kind": "infrastructure",
                            "camera": {"coverage": [0, 0, 2, 2], "noise_px": 0}}]}
        path = tmp_path / "markers.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("where, cfg", MALFORMED)
    def test_malformed_file_exits_one_before_running(self, where, cfg, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setattr("fusedrive.cli.run", pytest.fail)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert f"configuration error: {where}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", ["x" * 255, "é" * 127 + "x"], ids=["ascii", "utf-8"])
    def test_longest_name_runs(self, name, tmp_path):
        # A 255-byte name, NAME_MAX, names its output directory.
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(minimal_cfg(name=name, duration=1.0)), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 0
        assert os.listdir(tmp_path / "runs") == [name]
        assert os.path.isfile(tmp_path / "runs" / name / "summary.json")

    def test_file_name_too_long_to_stage_is_config_error(self):
        # With no name: key the default name (load_scenario's file stem) names
        # the run, and is bounded alike.  No file's stem passes 255 bytes, so
        # the default is given here.
        with pytest.raises(ConfigError, match="^name: '" + "x" * 256 + "' is 256 bytes"):
            scenario_from_dict(minimal_cfg(), "x" * 256)

    @pytest.mark.parametrize("axis, outage, value", SWEPT)
    def test_longest_sweep_dir_name_is_written(self, axis, outage, value, tmp_path):
        # <name>_<axis> of 255 bytes, NAME_MAX, names the sweep's directory.
        name = "x" * (255 - len(f"_{axis}"))
        path = self.write_scenario(tmp_path, name=name, duration=1.0,
                                   sensors=sensor_cfg(outage=outage)["sensors"])
        assert main(["sweep", path, "--axis", axis, "--values", str(value), "--reps", "1",
                     "--out", str(tmp_path / "runs")]) == 0
        assert os.listdir(tmp_path / "runs") == [f"{name}_{axis}"]

    @pytest.mark.parametrize("axis, outage, value", SWEPT)
    def test_sweep_dir_name_past_name_max_fails_before_any_run(self, axis, outage, value,
                                                               tmp_path, capsys, monkeypatch):
        # A name that loads, but makes <name>_<axis> 256 bytes: an error on
        # entering the sweep's directory, before its first run.
        monkeypatch.setattr("fusedrive.sweep.run", pytest.fail)
        path = self.write_scenario(tmp_path, name="x" * (256 - len(f"_{axis}")),
                                   sensors=sensor_cfg(outage=outage)["sensors"])
        assert main(["sweep", path, "--axis", axis, "--values", str(value), "--reps", "1",
                     "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert f"error: [Errno {errno.ENAMETOOLONG}]" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path / "runs") == []

    @pytest.mark.parametrize("argv", [["run", "s.yaml", "--seed", "1.5"],
                                      ["sweep", "s.yaml", "--axis", "kp", "--values", "1",
                                       "--reps", "x"],
                                      ["run"], ["walk", "s.yaml"]])
    def test_usage_error_exits_one(self, argv, capsys):
        # 2 is reserved for a run that ended in a crash.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert "usage: fusedrive" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "usage: fusedrive run" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        path = self.write_scenario(tmp_path)
        main(["run", path, "--seed", "5", "--out", str(tmp_path / "a")])
        main(["run", path, "--seed", "5", "--out", str(tmp_path / "b")])
        with open(tmp_path / "a" / "tiny" / "drive_log.csv", "rb") as fh:
            left = fh.read()
        with open(tmp_path / "b" / "tiny" / "drive_log.csv", "rb") as fh:
            right = fh.read()
        assert left == right

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        path = self.write_scenario(tmp_path)
        monkeypatch.setenv("FUSEDRIVE_OUT", str(tmp_path / "envout"))
        assert main(["run", path]) == 0
        assert (tmp_path / "envout" / "tiny" / "summary.json").exists()

    @pytest.mark.parametrize("argv, name", [
        (["run"], "tiny"),
        (["sweep", "--axis", "kp", "--values", "1", "--reps", "1"], "tiny_kp"),
        (["run", "--transport", "udp", "--pace", "1"], "tiny"),
    ])
    def test_output_path_that_is_a_file_exits_one(self, argv, name, tmp_path, capsys,
                                                  monkeypatch):
        refuse_frames(monkeypatch)
        path = self.write_scenario(tmp_path, duration=1.0,
                                   udp={"vehicle_port": 0, "sensor_port_base": 0})
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / name).write_text("kept", encoding="utf-8")
        assert main([argv[0], path, *argv[1:], "--out", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "runs" / name).read_text(encoding="utf-8") == "kept"
        assert os.listdir(tmp_path / "runs") == [name]

    @pytest.mark.parametrize("delay", [1e20, 1e300])
    def test_delay_past_the_run_end_completes(self, delay, tmp_path):
        # A datagram due this late used to set the tick loop counting ticks
        # up to its due time: the run never ended.
        cfg = {"duration": 2.0, "track": {"kind": "circle"},
               "sensors": [{"id": "pi", "kind": "onboard", "channel": {"delay": delay}}]}
        path = tmp_path / "late.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_DIR, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "fusedrive", "run", str(path),
                               "--out", str(tmp_path / "runs")],
                              env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sweep_writes_tables(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        code = main(["sweep", path, "--axis", "kp", "--values", "1.0,2.0",
                     "--reps", "1", "--out", str(tmp_path / "runs")])
        assert code == 0
        dat = tmp_path / "runs" / "tiny_kp" / "kp_deviation.dat"
        assert dat.exists()
        assert "crash_rate" in capsys.readouterr().out

    @pytest.mark.parametrize("source, axis, good, bad", BAD_SWEEP_VALUES)
    def test_sweep_value_a_file_could_not_hold_exits_one(self, source, axis, good, bad,
                                                         tmp_path, capsys, monkeypatch):
        path = scenario_path(source, tmp_path)
        kept = tmp_path / "runs" / f"{load_scenario(path).name}_{axis}" / f"{axis}_9_rep0"
        kept.mkdir(parents=True)
        monkeypatch.setattr("fusedrive.sweep.run", pytest.fail)
        code = main(["sweep", path, "--axis", axis, "--values", f"{good},{bad}",
                     "--reps", "1", "--out", str(tmp_path / "runs")])
        assert code == 1
        assert f"configuration error: {axis}: " in capsys.readouterr().err
        assert kept.is_dir()

    def test_overflowing_gain_runs_to_completion(self, tmp_path, capsys):
        # kp 1e308 loads, and its corrections overflow to inf.
        path = self.write_scenario(tmp_path, duration=2.0, track={"kind": "circle"},
                                   sensors=[{"id": "pi", "kind": "onboard",
                                             "gains": {"kp": 1e308}}])
        assert main(["run", path, "--out", str(tmp_path / "runs")]) == 0
        assert "completed 2 s" in capsys.readouterr().out

    def test_huge_finite_gain_keeps_power_fields_short(self, tmp_path, capsys, monkeypatch):
        # kp 1e300: finite corrections far past 2**53 clamp before the split.
        # The channel carries commands; a socket would carry their text.
        commands = []
        send = SimulatedChannel.send

        def recorded_send(channel, source_id, cmd, now):
            commands.append(cmd)
            return send(channel, source_id, cmd, now)

        monkeypatch.setattr(SimulatedChannel, "send", recorded_send)
        path = self.write_scenario(tmp_path, duration=2.0, track={"kind": "circle"},
                                   sensors=[{"id": "pi", "kind": "onboard",
                                             "gains": {"kp": 1e300}}])
        assert main(["run", path, "--out", str(tmp_path / "runs")]) == 0
        assert "completed 2 s" in capsys.readouterr().out
        powers = [f for cmd in commands for f in encode_command(cmd).split(";")[:2]]
        assert max(map(len, powers)) == 17
        log = (tmp_path / "runs" / "tiny" / "drive_log.csv").read_text().splitlines()
        pi_powers = [f for row in log[1:] for f in row.split(",")[3:5]]
        assert pi_powers and max(map(len, pi_powers)) <= 20

    def test_summarize(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        main(["run", path, "--out", str(tmp_path / "runs")])
        capsys.readouterr()
        code = main(["summarize", str(tmp_path / "runs" / "tiny")])
        assert code == 0
        assert '"completed": true' in capsys.readouterr().out

    def test_non_utf8_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"track: {kind: circle}\n\xff")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot parse" in err
        assert "Traceback" not in err

    def test_summarize_non_utf8_summary_exits_one(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_bytes(b"\xff\xfe{}")
        assert main(["summarize", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_deeply_nested_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nested.yaml"
        path.write_text("track: " + "[" * 5000 + "]" * 5000 + "\n")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot parse" in err
        assert "Traceback" not in err

    # The guarded composer stops both at level 33, before it recurses there;
    # libyaml's own composer would overflow the C stack on 50,000.
    @pytest.mark.parametrize("depth", [40, 50000])
    @pytest.mark.parametrize("key", ["track", "name"])
    def test_nested_value_exits_one_with_either_parser(self, parser, key, depth, tmp_path,
                                                        capsys):
        cfg = minimal_cfg()
        cfg.pop(key, None)
        path = tmp_path / "nested.yaml"
        path.write_text(yaml.safe_dump(cfg) + f"{key}: " + "[" * depth + "]" * depth + "\n")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: cannot parse" in err
        assert "Traceback" not in err

    def test_summarize_deeply_nested_summary_exits_one(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text("[" * 5000 + "]" * 5000)
        assert main(["summarize", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_summarize_missing_dir(self, tmp_path, capsys):
        code = main(["summarize", str(tmp_path / "nope")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
