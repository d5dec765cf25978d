"""The datagram text path against its oracles: the field formatter, the
encoder, the drive-log text of an ingested command, and the maximum-
confidence pick, each equal to what the code gave before its fast path; and
a sensor's command, as the simulated channel carries it, drives the vehicle
node exactly as the command decoded from its datagram text does.  The node's drive log, formatted when
read, gives the rows of the node that formatted each row as it logged it."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusedrive.control import commands_from_correction
from fusedrive.fusion import MAXIMUM_CONFIDENCE, POLICIES, VehicleNode, fuse_max
from fusedrive.wire import ZERO, SteeringCommand, decode_command, encode_command, format_field

from oracles import OracleVehicleNode, oracle_format_field, oracle_fuse_max

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53), 1e16, -1e16, 1e300, -1e300,
    97.0, 97.0 / 3.0, 0.1, 255.0, 1.7976931348623157e308,
]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


# Floats, float subclasses such as np.float64 included: the values
# format_field is defined on, as every command field is a float.
@given(st.one_of(floats, floats.map(np.float64)))
@example(-0.0)
@example(97.0)
@example(np.float64(-0.0))
def test_format_field_matches_oracle(value):
    assert format_field(value) == oracle_format_field(value)


def test_format_field_reads_other_values_as_floats():
    assert format_field(np.int64(2 ** 53 + 1)) == format_field(float(2 ** 53 + 1))
    assert format_field(np.float32(0.5)) == "0.5"


finite_fields = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-1000, 2000).map(float),
)


@given(st.tuples(*[finite_fields] * 6))
@example((97.0, 103.0, 255.0, 0.0, -0.0, 1e300))
def test_encode_matches_oracle(fields):
    cmd = SteeringCommand(*fields)
    assert encode_command(cmd) == ";".join(map(oracle_format_field, cmd))


# Raw left, right and confidence: whole floats around the table's range
# [0, 765], non-integral floats, and -0.0, as decoded text may carry them.
raw_values = st.one_of(
    st.integers(-1000, 2000).map(float),
    st.floats(-1000.0, 2000.0),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(raw_values, raw_values, raw_values, finite_fields, finite_fields, finite_fields)
@example(291.0, 303.0, 255.0, 0.5, 1.5, -0.25)
@example(-0.0, 765.0, 766.0, 0.0, 0.0, 0.0)
@example(1.0, 2.0, -3.0, 0.0, 0.0, 0.0)
def test_ingest_text_matches_oracle(left, right, confidence, p, i, d):
    node = VehicleNode(["pi"], MAXIMUM_CONFIDENCE, ("pi", None, None))
    node.handle_datagram("pi", SteeringCommand(left, right, confidence, p, i, d), 0.0)
    scaled = SteeringCommand(left / 3.0, right / 3.0, confidence / 3.0, p, i, d)
    (row,) = node.log
    assert ",".join(row.split(",")[3:9]) == ",".join(map(oracle_format_field, scaled))
    expected = scaled if scaled.left > 0 or scaled.right > 0 else ZERO
    assert node.commands[0] == expected
    assert list(map(type, node.commands[0])) == list(map(type, expected))


confidences = st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0, 60.0, math.nan]),
                        st.floats(-100.0, 100.0))


@given(st.lists(st.tuples(st.floats(0.0, 900.0), st.floats(0.0, 900.0), confidences),
                min_size=1, max_size=3))
@example([(90.0, 30.0, 60.0), (30.0, 90.0, 60.0)])
@example([(90.0, 30.0, 0.0), (30.0, 90.0, -30.0)])
@example([(90.0, 30.0, math.nan), (30.0, 90.0, 30.0)])
def test_fuse_max_matches_oracle(stored):
    sids = [f"s{k}" for k in range(len(stored))]
    node = VehicleNode(sids, MAXIMUM_CONFIDENCE, (None, None, None))
    for sid, (left, right, confidence) in zip(sids, stored):
        node.ingest(sid, SteeringCommand(left, right, confidence))
    assert fuse_max(node.commands) == oracle_fuse_max(node.commands)


# Commands of the shape sensor_tick emits, six floats: whole powers split
# from a finite correction (clamped to 2**53), a whole confidence in
# [0, 100] and finite p, i and d; and the zero command.
any_finite = st.floats(allow_nan=False, allow_infinity=False)
sensor_commands = st.one_of(
    st.just(ZERO),
    st.builds(lambda correction, confidence, p, i, d: SteeringCommand(
        *commands_from_correction(correction), confidence, p, i, d),
        st.one_of(st.floats(-400.0, 400.0), any_finite,
                  st.sampled_from([2.0 ** 53, -(2.0 ** 53), 1e300, 0.5, -0.0])),
        st.integers(0, 100).map(float), any_finite, any_finite, any_finite),
)
SOURCES = ("pi", "cam0", "cam1")


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=150)
@given(st.lists(st.tuples(st.sampled_from(SOURCES), sensor_commands), max_size=12))
@example([("pi", SteeringCommand(97.0, 103.0, 100.0, -0.0, 1e-300, 5e-324))])
@example([("cam0", SteeringCommand(2.0 ** 53 + 100, -(2.0 ** 53) + 100, 7.0, 1.5, 0.1, -2.0)),
          ("pi", ZERO)])
def test_command_drives_node_as_its_text_does(policy, sends):
    by_command = VehicleNode(SOURCES, policy, SOURCES)
    by_text = VehicleNode(SOURCES, policy, SOURCES)
    for k, (source_id, cmd) in enumerate(sends):
        by_command.handle_datagram(source_id, cmd, 0.005 * k)
        by_text.handle_datagram(source_id, decode_command(encode_command(cmd)), 0.005 * k)
    assert by_command.commands == by_text.commands
    assert by_command.applied == by_text.applied
    assert list(by_command.log) == list(by_text.log)


# A sensor-shaped command from a log source, and whether it crosses as text.
traffic = st.tuples(st.sampled_from(SOURCES), sensor_commands, st.booleans())


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=150)
@given(st.lists(traffic, max_size=12))
@example([("pi", SteeringCommand(97.0, 103.0, 100.0, -0.0, 1e-300, 5e-324), False),
          ("cam0", SteeringCommand(2.0 ** 53 + 100, 7.0, 7.0, 1.5, 0.1, -2.0), True)])
# p, i and d all non-integral floats (the slot's repr path), then each with
# exactly one integral float, which must print without a decimal point.
@example([("pi", SteeringCommand(97.0, 103.0, 100.0, 0.5, -1.25, 3e-7), False)])
@example([("pi", SteeringCommand(97.0, 103.0, 100.0, 2.0, -1.25, 3e-7), False)])
@example([("cam1", SteeringCommand(97.0, 103.0, 100.0, 0.5, -0.0, 3e-7), False)])
@example([("pi", SteeringCommand(97.0, 103.0, 100.0, 0.5, -1.25, 2.0), False)])
def test_drive_log_rows_match_the_eager_node(policy, sends):
    # pi and cam1 fill the first and last column groups; the middle one is
    # empty.  Text crosses to the node decoded; the oracle decodes it itself.
    node = VehicleNode(SOURCES, policy, ("pi", None, "cam1"))
    oracle = OracleVehicleNode(SOURCES, policy, ("pi", None, "cam1"))
    for k, (source_id, cmd, as_text) in enumerate(sends):
        sent = encode_command(cmd) if as_text else cmd
        received = decode_command(sent) if as_text else cmd
        assert node.handle_datagram(source_id, received, 0.005 * k) == \
            oracle.handle_datagram(source_id, sent, 0.005 * k)
        assert node.applied == oracle.applied
        assert list(node.log) == oracle.rows
