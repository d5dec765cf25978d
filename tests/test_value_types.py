"""The per-frame value types: immutable tuples whose fields the tracer and the
node read by name, and the wire codec's round trip over them."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusedrive.control import PidGains, PidState, commands_from_correction, sensor_tick
from fusedrive.faults import gate
from fusedrive.perception import (
    LineBoxObservation,
    MarkerObservation,
    confidence_from_visibility,
    infrastructure_camera,
    observe,
    onboard_camera,
)
from fusedrive.wire import ZERO, SteeringCommand, decode_command, encode_command
from fusedrive.world import Pose, Track, rounded_rectangle_segments

VALUES = {
    "command": (SteeringCommand(90, 110, 60, 1.5, -2.0, 0.25), "left"),
    "pid_state": (PidState(4.2, 1.0), "integral"),
    "markers": (MarkerObservation((1.0, 2.0), (3.0, 4.0), True), "visible"),
    "line_box": (LineBoxObservation((160.0, 40.0), 80.0, 40.0, -0.0, 1.0), "width"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_assigned(name):
    value, field = VALUES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)


def test_equality_is_tuple_equality():
    assert SteeringCommand(1, 2, 3) == (1, 2, 3, 0.0, 0.0, 0.0)
    assert ZERO == SteeringCommand(0.0, 0.0, 0.0)
    assert gate(SteeringCommand(1, 2, 3), True) is ZERO
    assert PidState() == (0.0, 0.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.tuples(finite, finite, finite, finite, finite, finite))
def test_decode_inverts_encode(fields):
    cmd = SteeringCommand(*fields)
    assert decode_command(encode_command(cmd)) == cmd


def _track():
    return Track(rounded_rectangle_segments((1.0, 1.0), 0.8, 0.3))


def test_observation_reads_what_the_tracer_reads():
    # perfbench's counting hooks read observe(...)[1].visible and
    # sensor_tick(...)[1].is_zero_report().
    track = _track()
    x, y, tan = track.point_at(0.3)
    pose = Pose(x, y, tan)
    camera = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
    obs = observe(camera, track, pose)
    assert obs[1].visible is True
    assert obs[1].visible == (obs[1].visible_fraction > 0.0)
    _, cmd = sensor_tick(camera, PidGains(1.0, 0.02, 0.5), PidState(), obs)
    assert cmd.is_zero_report() is False

    blind = observe(onboard_camera(), track, Pose(0.05, 0.05, 225.0))
    assert blind[1].visible is False
    _, cmd = sensor_tick(onboard_camera(), PidGains(1.5, 0.15, 4.5), PidState(), blind)
    assert cmd.is_zero_report() is True


def _sent_commands():
    """A command of each kind a sensor sends: sensor_tick's on a seen onboard
    frame, a seen infrastructure frame and a blind frame (the zero-report);
    an outage's gate; and sensor_tick's powers and confidence at their
    extremes."""
    track = _track()
    x, y, tan = track.point_at(0.3)
    off_line = Pose(x, y + 0.02, tan + 10.0)
    sent = {}
    for name, camera, gains, pose in (
            ("onboard", onboard_camera(), PidGains(1.5, 0.15, 4.5), off_line),
            ("infrastructure", infrastructure_camera((0.0, 0.0, 2.0, 2.0)),
             PidGains(1.0, 0.02, 0.5), off_line),
            ("blind", onboard_camera(), PidGains(1.5, 0.15, 4.5), Pose(0.05, 0.05, 225.0))):
        sent[name] = sensor_tick(camera, gains, PidState(), observe(camera, track, pose))[1]
    sent["gate"] = gate(sent["onboard"], True)
    for label, correction, fraction in (("0", 0.0, 0.0), ("2**53", 2.0 ** 53, 1.0),
                                        ("-2**53", -(2.0 ** 53), 0.0), ("1e300", 1e300, 1.0)):
        sent[f"correction={label}"] = SteeringCommand(
            *commands_from_correction(correction), confidence_from_visibility(fraction),
            0.5, -1.25, 3e-7)
    return sent


SENT = _sent_commands()


@pytest.mark.parametrize("name", sorted(SENT))
def test_a_sensor_sends_six_floats_that_its_text_gives_back(name):
    cmd = SENT[name]
    assert [type(field) for field in cmd] == [float] * 6, cmd
    assert tuple(decode_command(encode_command(cmd))) == tuple(cmd)
