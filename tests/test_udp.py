"""Loopback-UDP transport: wire format and vehicle node over real sockets.

These runs are paced against the wall clock and therefore not deterministic;
assertions stay qualitative (it drives, it logs, sources resolve by address).
The socket is the one place a command travels as text.
"""

import json
import logging
import os
import socket

import pytest
import yaml

from fusedrive import udp
from fusedrive.cli import main
from fusedrive.runner import run
from fusedrive.scenario import scenario_from_dict
from fusedrive.udp import run_udp
from fusedrive.wire import SteeringCommand, encode_command


def udp_cfg(sensors, duration=5.0):
    return {
        "seed": 3,
        "duration": duration,
        "track": {"kind": "rounded_rectangle", "center": [1.0, 1.0],
                  "straight": 1.0, "corner_radius": 0.3},
        "fusion": "confidence_weighted",
        "sensors": sensors,
        # port 0 = ephemeral, so parallel test runs never collide
        "udp": {"vehicle_port": 0, "sensor_port_base": 0},
    }


ONBOARD = [{"id": "pi", "kind": "onboard", "camera": {"pixels_per_meter": 1300}}]
PAIR = ONBOARD + [
    {"id": "cam0", "kind": "infrastructure",
     "camera": {"coverage": [0, 0, 2, 2], "pixels_per_meter": 300,
                "crop_size": 36}},
]


class TestUdpTransport:
    def test_onboard_drives_over_udp(self):
        sc = scenario_from_dict(udp_cfg(ONBOARD))
        res = run_udp(sc, pace=10.0)
        assert res.completed
        assert len(res.rows) > 20
        dev = res.series["deviation"]
        assert max(abs(v) for v in dev.values) < 0.05

    def test_sources_resolved_by_sender_address(self):
        sc = scenario_from_dict(udp_cfg(PAIR))
        res = run_udp(sc, pace=10.0)
        assert res.completed
        # both column groups carry data at some point
        rows = list(res.rows)
        pi_seen = any(row.split(",")[3] != "0" for row in rows)
        cam_seen = any(row.split(",")[9] != "0" for row in rows)
        assert pi_seen and cam_seen

    def test_tracks_simulated_transport_loosely(self):
        cfg = udp_cfg(ONBOARD, duration=8.0)
        sim = run(scenario_from_dict(cfg))
        real = run_udp(scenario_from_dict(cfg), pace=10.0)
        assert real.completed and sim.completed
        sim_dev = sim.summaries["deviation"]["mean_abs"]
        real_dev = real.summaries["deviation"]["mean_abs"]
        # same controller, same track; wall pacing only adds jitter
        assert real_dev == pytest.approx(sim_dev, abs=0.01)

    def test_outputs_written(self, tmp_path):
        sc = scenario_from_dict(udp_cfg(ONBOARD, duration=3.0))
        res = run_udp(sc, tmp_path / "udp", pace=10.0)
        out = tmp_path / "udp"
        assert sorted(os.listdir(out)) == [
            "correction.csv", "deviation.csv", "drive_log.csv", "error_pi.csv", "summary.json"]
        log = (out / "drive_log.csv").read_text(encoding="utf-8").splitlines()
        assert log[1:] == list(res.rows) and len(res.rows) > 10
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["completed"] is res.completed is True

    def test_wildcard_host_logs_sensor_rows(self):
        # Sockets bound to 0.0.0.0 are named by the address they are connected
        # from, the one recvfrom reports, so the sensor's datagrams resolve.
        cfg = udp_cfg(ONBOARD, duration=1.0)
        cfg["udp"] = dict(cfg["udp"], host="0.0.0.0")
        res = run_udp(scenario_from_dict(cfg), pace=10.0)
        assert res.completed
        assert len(res.rows) > 5
        assert any(row.split(",")[3] != "0" for row in list(res.rows))

    def test_every_tick_runs_in_full(self, monkeypatch):
        # A socket can deliver at any time, so the loop never coasts over UDP.
        calls = []
        drive = udp.drive

        def counting_drive(scenario, channels, deliver, out_dir=None):
            def counted(now):
                calls.append(now)
                return deliver(now)
            return drive(scenario, channels, counted, out_dir)

        monkeypatch.setattr(udp, "drive", counting_drive)
        sc = scenario_from_dict(udp_cfg(ONBOARD, duration=1.0))
        res = run_udp(sc, pace=10.0)
        assert res.completed
        assert len(calls) == sc.n_ticks()
        assert calls == [i * sc.timestep for i in range(sc.n_ticks())]


def _failing_send(after):
    """A socket.socket.send that raises OSError once `after` datagrams are sent."""
    real = socket.socket.send
    sent = []

    def send(sock, data):
        if len(sent) >= after:
            raise OSError("send failed on purpose")
        sent.append(data)
        return real(sock, data)

    return send


class TestUdpWireText:
    def test_socket_channel_sends_command_text(self):
        cmd = SteeringCommand(97, 103, 60, 0.25, -1.5, 2.0)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as vehicle, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sensor:
            vehicle.bind(("127.0.0.1", 0))
            sensor.bind(("127.0.0.1", 0))
            sensor.connect(vehicle.getsockname())
            vehicle.settimeout(5.0)
            udp._SocketChannel(sensor).send("pi", cmd, 0.0)
            data, addr = vehicle.recvfrom(1500)
            assert addr == sensor.getsockname()
        assert data == encode_command(cmd).encode("utf-8") == b"97;103;60;0.25;-1.5;2"

    def test_undecodable_text_from_known_sensor_logs_one_degenerate_row(
            self, monkeypatch, caplog):
        real = socket.socket.send
        sent = []

        def send(sock, data):
            # The tenth datagram of the run goes out as text that does not decode.
            sent.append(data)
            return real(sock, b"left;right;60" if len(sent) == 10 else data)

        monkeypatch.setattr(socket.socket, "send", send)
        with caplog.at_level(logging.WARNING, logger="fusedrive.fusion"):
            res = run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=10.0)
        assert res.completed
        malformed = [r for r in caplog.records if "malformed" in r.getMessage()]
        assert len(malformed) == 1 and "'pi'" in malformed[0].getMessage()
        rows = list(res.rows)
        degenerate = [k for k, row in enumerate(rows) if row.endswith(",-1")]
        assert len(degenerate) == 1
        k = degenerate[0]
        assert 0 < k < len(rows) - 1 and len(sent) > 10
        # The row holds the previous powers and the stored reports.
        assert rows[k].split(",")[1:-1] == rows[k - 1].split(",")[1:]


class TestUdpFailures:
    def test_send_error_propagates(self, monkeypatch):
        monkeypatch.setattr(socket.socket, "send", _failing_send(20))
        with pytest.raises(OSError, match="on purpose"):
            run_udp(scenario_from_dict(udp_cfg(ONBOARD)), pace=10.0)

    def test_send_error_exits_one(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "udp.yaml"
        path.write_text(yaml.safe_dump(udp_cfg(ONBOARD)), encoding="utf-8")
        monkeypatch.setattr(socket.socket, "send", _failing_send(20))
        code = main(["run", str(path), "--transport", "udp", "--pace", "10",
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "on purpose" in capsys.readouterr().err

    def test_unknown_sender_never_logged(self, monkeypatch):
        real = socket.socket.send
        strays = []
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            stray.bind(("127.0.0.1", 0))

            def send(sock, data):
                # Every sensor datagram is shadowed by one from the stray socket.
                strays.append(stray.sendto(b"999;999;100;0;0;0", sock.getpeername()))
                return real(sock, data)

            monkeypatch.setattr(socket.socket, "send", send)
            res = run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=10.0)
        assert res.completed
        assert len(strays) > 10 and len(res.rows) > 10
        for row in list(res.rows):
            assert "999" not in row.split(",")

    @pytest.mark.parametrize("pace", ["0", "-1", "nan", "inf"])
    def test_bad_pace_exits_one_before_binding(self, pace, tmp_path, monkeypatch, capsys):
        path = tmp_path / "udp.yaml"
        path.write_text(yaml.safe_dump(udp_cfg(ONBOARD)), encoding="utf-8")
        monkeypatch.setattr("fusedrive.udp.socket.socket", pytest.fail)
        code = main(["run", str(path), "--transport", "udp", "--pace", pace,
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "configuration error: pace" in capsys.readouterr().err
