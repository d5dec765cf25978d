"""Scenario loading, deterministic runner, sweeps, and the CLI."""

import copy
import glob
import json
import os
import re

import pytest

from fusedrive.cli import main
from fusedrive.control import PidGains
from fusedrive.runner import run
from fusedrive.scenario import derive_seed, load_scenario, scenario_from_dict
from fusedrive.sweep import SweepSpec, apply_axis, sweep
from fusedrive.wire import SimulatedChannel
from fusedrive.world import ConfigError

from oracles import read_plot_data

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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
]

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


def scenario_path(source, tmp_path) -> str:
    """A shipped scenario file by name, or a config written to tmp_path."""
    if isinstance(source, str):
        return os.path.join(SCENARIO_DIR, source)
    import yaml

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
        import yaml

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

    @pytest.mark.parametrize("where, cfg", MALFORMED)
    def test_malformed_value_is_config_error(self, where, cfg):
        with pytest.raises(ConfigError, match="^" + re.escape(where)):
            scenario_from_dict(copy.deepcopy(cfg))

    @pytest.mark.parametrize("base, cfg", [(65534, TWO_SENSORS), (65535, minimal_cfg()),
                                           (0, THREE_SENSORS)])
    def test_sensor_ports_up_to_65535_load(self, base, cfg):
        cfg = dict(copy.deepcopy(cfg), udp={"sensor_port_base": base})
        assert scenario_from_dict(cfg).udp.sensor_port_base == base


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

    def test_total_loss_parks_vehicle(self):
        cfg = minimal_cfg(duration=5.0)
        cfg["sensors"][0]["channel"] = {"loss": 1.0}
        res = run(scenario_from_dict(cfg))
        assert res.completed
        assert res.rows == []
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
        a = run(scenario_from_dict(cfg), tmp_path / "a")
        b = run(scenario_from_dict(cfg), tmp_path / "b")
        for name in a.files:
            with open(a.files[name], "rb") as fh:
                left = fh.read()
            with open(b.files[name], "rb") as fh:
                right = fh.read()
            assert left == right, name

    def test_different_seed_different_rows(self):
        cfg = minimal_cfg(duration=8.0)
        cfg["sensors"][0]["channel"] = {"loss": 0.2}
        a = run(scenario_from_dict(dict(cfg, seed=1)))
        b = run(scenario_from_dict(dict(cfg, seed=2)))
        assert a.rows != b.rows

    def test_output_files(self, tmp_path):
        cfg = minimal_cfg(duration=5.0)
        res = run(scenario_from_dict(cfg), tmp_path / "out")
        assert sorted(os.listdir(tmp_path / "out")) == [
            "correction.csv", "deviation.csv", "drive_log.csv",
            "error_pi.csv", "summary.json",
        ]
        with open(res.files["drive_log"], "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header.startswith("time,left,right,piLeft")
        with open(res.files["summary"], "r", encoding="utf-8") as fh:
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
            "error_pi.csv", "notes.txt", "summary.json",
        ]


class TestSweep:
    def test_single_value_equals_plain_run_with_derived_seed(self):
        sc = scenario_from_dict(minimal_cfg(duration=5.0, seed=9))
        table = sweep(sc, SweepSpec("kp", (1.5,), reps=1))
        direct = copy.deepcopy(sc)
        direct.seed = derive_seed(9, "kp", 1.5, 0)
        res = run(apply_axis(direct, "kp", 1.5))
        assert table.runs[0][0].rows == res.rows
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
            "notes.txt",
        ]
        assert sorted(os.listdir(tmp_path / "kp_1_rep0")) == [
            "correction.csv", "deviation.csv", "drive_log.csv", "error_pi.csv", "summary.json",
        ]

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
        import yaml

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

    @pytest.mark.parametrize("where, cfg", MALFORMED)
    def test_malformed_file_exits_one_before_running(self, where, cfg, tmp_path,
                                                     capsys, monkeypatch):
        import yaml

        monkeypatch.setattr("fusedrive.cli.run", pytest.fail)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 1
        assert f"configuration error: {where}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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
        datagrams = []
        send = SimulatedChannel.send

        def recorded_send(channel, source_id, datagram, now):
            datagrams.append(datagram)
            return send(channel, source_id, datagram, now)

        monkeypatch.setattr(SimulatedChannel, "send", recorded_send)
        path = self.write_scenario(tmp_path, duration=2.0, track={"kind": "circle"},
                                   sensors=[{"id": "pi", "kind": "onboard",
                                             "gains": {"kp": 1e300}}])
        assert main(["run", path, "--out", str(tmp_path / "runs")]) == 0
        assert "completed 2 s" in capsys.readouterr().out
        powers = [f for d in datagrams for f in d.split(";")[:2]]
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

    def test_summarize_missing_dir(self, tmp_path, capsys):
        code = main(["summarize", str(tmp_path / "nope")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
