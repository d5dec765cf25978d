"""Loopback-UDP transport: the simulated channels' deliveries, crossing real sockets.

A UDP run decides loss and delay on the seeded channels `run` uses and
coasts as `run` does, so it must equal `run` exactly, whatever its pace:
drawn scenarios and every golden pin are checked here with ==.  The socket
is the one place a command travels as text; a datagram that goes missing
or arrives changed fails the run.
"""

import dataclasses
import hashlib
import json
import os
import socket
import threading
import time

import pytest
import yaml
from hypothesis import HealthCheck, given, settings

from fusedrive import runner
from fusedrive.cli import main
from fusedrive.faults import ProbabilisticOutage
from fusedrive.fusion import VehicleNode
from fusedrive.runner import run
from fusedrive.scenario import load_scenario, scenario_from_dict
from fusedrive.udp import run_udp
from fusedrive.wire import SteeringCommand, decode_command, encode_command

from test_drive import _assert_same, _scenario_cfg
from test_golden import GOLDEN, LOSSY_BLACKOUT, SCENARIOS

PORTS_0 = {"vehicle_port": 0, "sensor_port_base": 0}


def udp_cfg(sensors, duration=5.0):
    return {
        "seed": 3,
        "duration": duration,
        "track": {"kind": "rounded_rectangle", "center": [1.0, 1.0],
                  "straight": 1.0, "corner_radius": 0.3},
        "fusion": "confidence_weighted",
        "sensors": sensors,
        # port 0 = ephemeral, so parallel test runs never collide
        "udp": dict(PORTS_0),
    }


ONBOARD = [{"id": "pi", "kind": "onboard", "camera": {"pixels_per_meter": 1300}}]
PAIR = ONBOARD + [
    {"id": "cam0", "kind": "infrastructure",
     "camera": {"coverage": [0, 0, 2, 2], "pixels_per_meter": 300,
                "crop_size": 36}},
]
LOSSY = {"loss": 0.2, "delay": [0.0, 0.03]}


def _lossy(sensors):
    return [dict(sensor, channel=LOSSY) for sensor in sensors]


def _recorded(monkeypatch, transport, scenario):
    """transport(scenario) with each call of runner.merge_deliveries recorded
    as (now, the pairs it returned)."""
    calls = []
    merge = runner.merge_deliveries

    def recorded(channels, now):
        pairs = merge(channels, now)
        calls.append((now, pairs))
        return pairs

    with monkeypatch.context() as patch:
        patch.setattr(runner, "merge_deliveries", recorded)
        transport(scenario)
    return calls


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

    def test_paced_run_equals_simulated_transport(self):
        # Pacing only waits for the wall clock: the paced lossy run is `run`.
        cfg = udp_cfg(_lossy(PAIR), duration=4.0)
        _assert_same(run_udp(scenario_from_dict(cfg), pace=10.0), run(scenario_from_dict(cfg)))

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

    @pytest.mark.parametrize("sensors, calls", [(ONBOARD, 12), (_lossy(ONBOARD), 23)],
                             ids=["clean", "lossy"])
    def test_coasts_as_run_does(self, sensors, calls, monkeypatch):
        # The loop merges on the same ticks over UDP as in `run`.
        sc = scenario_from_dict(udp_cfg(sensors, duration=1.0))
        sim = _recorded(monkeypatch, run, sc)
        real = _recorded(monkeypatch, lambda s: run_udp(s, pace=10.0), sc)
        assert [now for now, _ in real] == [now for now, _ in sim]
        assert len(real) == calls and sc.n_ticks() == 200


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


def _dropping_send(changed_to, nth=10):
    """A socket.socket.send that sends the nth datagram as changed_to instead
    (None: not at all), and the list of every datagram it was given."""
    real = socket.socket.send
    sent = []

    def send(sock, data):
        sent.append(data)
        if len(sent) != nth:
            return real(sock, data)
        return len(data) if changed_to is None else real(sock, changed_to)

    return send, sent


class TestUdpWireText:
    def test_vehicle_socket_receives_command_text(self, monkeypatch):
        # The socket carries each delivered command's text, and the node gets
        # that text decoded: a command of six floats, never the int fields sent.
        sc = scenario_from_dict(udp_cfg(_lossy(ONBOARD), duration=2.0))
        delivered = [cmd for _, pairs in _recorded(monkeypatch, run, sc)
                     for _, cmd in pairs]
        real = socket.socket.recvfrom
        received = []

        def recvfrom(sock, size):
            data, addr = real(sock, size)
            received.append(data)
            return data, addr

        handle = VehicleNode.handle_datagram
        taken = []

        def handle_datagram(node, source_id, cmd, now):
            taken.append(cmd)
            return handle(node, source_id, cmd, now)

        monkeypatch.setattr(socket.socket, "recvfrom", recvfrom)
        monkeypatch.setattr(VehicleNode, "handle_datagram", handle_datagram)
        run_udp(sc, pace=1e9)
        assert len(delivered) > 10
        assert received == [encode_command(cmd).encode("utf-8") for cmd in delivered]
        assert taken == [decode_command(data) for data in received]
        for cmd in taken:
            assert type(cmd) is SteeringCommand
            assert [type(v) for v in cmd] == [float] * 6

    def test_changed_datagram_fails_the_run(self, monkeypatch):
        # Text that differs from what was sent, here text that would not
        # even decode, never reaches the node: the run fails at the socket.
        send, sent = _dropping_send(b"left;right;60")
        monkeypatch.setattr(socket.socket, "send", send)
        with pytest.raises(OSError, match="sensor 'pi' arrived changed"):
            run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=10.0)
        assert len(sent) == 10

    @pytest.mark.parametrize("changed_to", [b"inf;inf;inf;0;0;0", b"nan;nan;nan;0;0;0",
                                            b"1e400;5;100;0;0;0", b"90;110;60;0;0;0"],
                             ids=["inf", "nan", "overflow", "decodable"])
    def test_changed_text_never_reaches_the_node(self, changed_to, monkeypatch):
        # Non-finite text, and text that decodes but is not what was sent:
        # the node takes the nine commands before it and nothing after.
        send, sent = _dropping_send(changed_to)
        handle = VehicleNode.handle_datagram
        taken = []

        def handle_datagram(node, source_id, cmd, now):
            taken.append(cmd)
            return handle(node, source_id, cmd, now)

        monkeypatch.setattr(socket.socket, "send", send)
        monkeypatch.setattr(VehicleNode, "handle_datagram", handle_datagram)
        with pytest.raises(OSError, match="sensor 'pi' arrived changed"):
            run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=1e9)
        assert len(sent) == 10
        assert taken == [decode_command(data) for data in sent[:9]]


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

    def test_lost_datagram_fails_the_run_within_2_s(self, monkeypatch):
        send, sent = _dropping_send(None)
        monkeypatch.setattr(socket.socket, "send", send)
        start = time.monotonic()
        with pytest.raises(OSError, match="sensor 'pi' not received"):
            run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=1e9)
        assert time.monotonic() - start < 2.0
        assert len(sent) == 10

    def test_stray_sender_does_not_extend_the_wait(self, monkeypatch):
        # Each stray datagram is dropped and must not restart the wait for the lost one.
        drop, sent = _dropping_send(None)
        vehicle = []

        def send(sock, data):
            vehicle.append(sock.getpeername())
            return drop(sock, data)

        monkeypatch.setattr(socket.socket, "send", send)
        stop = threading.Event()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            def spray():
                # Every 0.2 s for 6 s at most, so that an unbounded wait still ends.
                for _ in range(30):
                    if stop.wait(0.2):
                        return
                    if vehicle:
                        stray.sendto(b"999;999;100;0;0;0", vehicle[-1])

            helper = threading.Thread(target=spray)
            helper.start()
            start = time.monotonic()
            try:
                with pytest.raises(OSError, match="sensor 'pi' not received"):
                    run_udp(scenario_from_dict(udp_cfg(ONBOARD, duration=2.0)), pace=1e9)
                elapsed = time.monotonic() - start
            finally:
                stop.set()
                helper.join(timeout=10.0)
        assert not helper.is_alive()
        assert elapsed < 2.0
        assert len(sent) == 10

    def test_lost_datagram_exits_one_and_keeps_the_old_outputs(self, tmp_path, monkeypatch,
                                                               capsys):
        path = tmp_path / "udp.yaml"
        path.write_text(yaml.safe_dump(udp_cfg(ONBOARD, duration=2.0)), encoding="utf-8")
        (tmp_path / "runs" / "udp").mkdir(parents=True)
        (tmp_path / "runs" / "udp" / "summary.json").write_text("kept", encoding="utf-8")
        monkeypatch.setattr(socket.socket, "send", _dropping_send(None)[0])
        code = main(["run", str(path), "--transport", "udp", "--pace", "1e9",
                     "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'pi'" in err and "Traceback" not in err
        assert os.listdir(tmp_path / "runs") == ["udp"]
        assert os.listdir(tmp_path / "runs" / "udp") == ["summary.json"]
        assert (tmp_path / "runs" / "udp" / "summary.json").read_text(encoding="utf-8") == "kept"

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

    @pytest.mark.parametrize("pace", ["0", "-1", "nan", "inf", "1e-300"])
    def test_bad_pace_exits_one_before_binding(self, pace, tmp_path, monkeypatch, capsys):
        path = tmp_path / "udp.yaml"
        path.write_text(yaml.safe_dump(udp_cfg(ONBOARD)), encoding="utf-8")
        monkeypatch.setattr("fusedrive.udp.socket.socket", pytest.fail)
        code = main(["run", str(path), "--transport", "udp", "--pace", pace,
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "configuration error: pace" in capsys.readouterr().err


class TestOneInFlight:
    def test_one_sensors_datagrams_due_on_one_tick_cross_one_at_a_time(self, monkeypatch):
        # Delays of up to 0.25 s, several periods of either sensor, let one
        # sensor's datagrams fall due on the same tick, and a stray sender
        # sprays the vehicle socket throughout: the run is still `run`.
        cfg = udp_cfg([dict(s, channel={"loss": 0.2, "delay": [0.0, 0.25]}) for s in PAIR],
                      duration=6.0)
        merges = _recorded(monkeypatch, run, scenario_from_dict(cfg))
        assert any(len(pairs) > len({source for source, _ in pairs}) for _, pairs in merges)
        expected = run(scenario_from_dict(cfg))
        real = socket.socket.send
        vehicle = []
        sprayed, stop = threading.Event(), threading.Event()

        def send(sock, data):
            vehicle.append(sock.getpeername())
            sprayed.wait(timeout=10.0)  # a stray is queued ahead of the first datagram
            return real(sock, data)

        monkeypatch.setattr(socket.socket, "send", send)
        strays = []
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
            def spray():
                while not stop.wait(0.001):
                    if vehicle:
                        strays.append(stray.sendto(b"999;999;100;0;0;0", vehicle[-1]))
                        sprayed.set()

            helper = threading.Thread(target=spray)
            helper.start()
            try:
                actual = run_udp(scenario_from_dict(cfg), pace=1e9)
            finally:
                stop.set()
                helper.join(timeout=10.0)
        assert not helper.is_alive()
        assert strays
        _assert_same(actual, expected)


class TestLockstep:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_scenario_cfg())
    def test_drawn_scenarios_equal_run(self, cfg):
        cfg = dict(cfg, udp=dict(PORTS_0))
        _assert_same(run_udp(scenario_from_dict(cfg), pace=1e9), run(scenario_from_dict(cfg)))

    @staticmethod
    def _lossy_blackout():
        # The variant test_golden pins: combined_weighted on a lossy, delayed
        # channel under random blackouts.
        scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
        outage = ProbabilisticOutage(interval=0.4, threshold=35)
        scenario.sensors = [
            dataclasses.replace(s, channel_loss=0.2, channel_delay=(0.0, 0.03), outage=outage)
            for s in scenario.sensors
        ]
        return scenario

    @pytest.mark.parametrize("name", [*sorted(GOLDEN), "lossy_blackout"])
    def test_golden_pins_hold_over_sockets(self, name, tmp_path):
        if name == "lossy_blackout":
            scenario, pins = self._lossy_blackout(), LOSSY_BLACKOUT
        else:
            scenario, pins = load_scenario(SCENARIOS / f"{name}.yaml"), GOLDEN[name]
        scenario.udp = dataclasses.replace(scenario.udp, **PORTS_0)
        run_udp(scenario, tmp_path / "out", pace=1e9)
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (tmp_path / "out").iterdir()} == pins
