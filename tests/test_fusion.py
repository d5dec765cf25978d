"""Ingest scaling, fusion policies, and drive-log formatting."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusedrive.fusion import (
    CONFIDENCE_WEIGHTED,
    DRIVE_LOG_HEADER,
    MAXIMUM_CONFIDENCE,
    POLICIES,
    SIMPLE_AVERAGE,
    VehicleNode,
    drive_tick,
    fuse_max,
    fuse_simple_avg,
    fuse_weighted,
)
from fusedrive.wire import ZERO, MalformedDatagram, SteeringCommand, decode_command

from oracles import oracle_fuse

_FUSE_FNS = {
    MAXIMUM_CONFIDENCE: fuse_max,
    SIMPLE_AVERAGE: fuse_simple_avg,
    CONFIDENCE_WEIGHTED: fuse_weighted,
}


def node_of(source_ids):
    """A node whose stored commands the tests fill through ingest."""
    return VehicleNode(source_ids, MAXIMUM_CONFIDENCE, (None, None, None))


def random_node(rng):
    n = rng.randint(1, 3)
    sids = [f"s{i}" for i in range(n)]
    node = node_of(sids)
    for sid in sids:
        if rng.random() < 0.2:
            cmd = ZERO
        else:
            conf = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 120.0)
            cmd = SteeringCommand(rng.uniform(-30.0, 300.0),
                                  rng.uniform(-30.0, 300.0),
                                  conf, 0.0, 0.0, 0.0)
        node.ingest(sid, cmd)
    return node


class TestIngest:
    def test_third_scaling(self):
        node = node_of(["pi"])
        node.ingest("pi", SteeringCommand(100, 100, 100, 5, 2, 1))
        stored = node.commands[0]
        assert stored.left == pytest.approx(100 / 3.0, abs=1e-12)
        assert stored.right == pytest.approx(100 / 3.0, abs=1e-12)
        assert stored.confidence == pytest.approx(100 / 3.0, abs=1e-12)
        # controller terms ride through unscaled
        assert (stored.p, stored.i, stored.d) == (5, 2, 1)

    def test_scaling_example(self):
        node = node_of(["pi"])
        node.ingest("pi", SteeringCommand(90, 110, 60))
        stored = node.commands[0]
        assert stored.left == pytest.approx(30.0)
        assert stored.right == pytest.approx(110 / 3.0)
        assert stored.confidence == pytest.approx(20.0)

    def test_zero_report_parks_source(self):
        node = node_of(["pi"])
        node.ingest("pi", SteeringCommand(90, 110, 60))
        assert not node.commands[0].is_zero_report()
        node.ingest("pi", ZERO)
        assert node.commands[0].is_zero_report()

    def test_negative_powers_park_source(self):
        node = VehicleNode(["pi"], MAXIMUM_CONFIDENCE, ("pi", None, None))
        node.handle_datagram("pi", SteeringCommand(-30, -30, 60), 0.0)
        assert node.commands[0].is_zero_report()
        # but the verbatim (scaled) report is kept for the log
        assert float(list(node.log)[-1].split(",")[3]) == pytest.approx(-10.0)

    def test_unknown_source_rejected(self):
        # run delivers configured ids only, and a socket drops any other
        # sender: a node handed an id it was not built with fails loudly.
        node = node_of(["pi"])
        with pytest.raises(KeyError):
            node.ingest("ghost", SteeringCommand(90, 110, 60))
        assert node.commands[0].is_zero_report()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate source ids"):
            VehicleNode(["pi", "pi"], MAXIMUM_CONFIDENCE, ("pi", None, None))


class TestPolicies:
    def test_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(10000):
            node = random_node(rng)
            stored = [(c.left, c.right, c.confidence) for c in node.commands]
            for policy in POLICIES:
                got = _FUSE_FNS[policy](node.commands)
                want = oracle_fuse(stored, policy)
                if want is None:
                    assert got is None, (policy, stored)
                else:
                    assert got == pytest.approx(want, abs=1e-9), (policy, stored)

    def test_max_later_source_wins_ties(self):
        node = node_of(["a", "b"])
        node.ingest("a", SteeringCommand(90, 30, 60))
        node.ingest("b", SteeringCommand(30, 90, 60))
        assert fuse_max(node.commands) == pytest.approx((10.0, 30.0))

    def test_max_returns_a_stored_command(self):
        rng = random.Random(5)
        for _ in range(2000):
            node = random_node(rng)
            fused = fuse_max(node.commands)
            if fused is None:
                continue
            stored = [(c.left, c.right) for c in node.commands]
            assert fused in stored

    def test_weighted_stays_in_hull(self):
        rng = random.Random(6)
        for _ in range(2000):
            node = random_node(rng)
            fused = fuse_weighted(node.commands)
            if fused is None:
                continue
            weighted = [c for c in node.commands if c.confidence > 0]
            lo = min(c.left for c in weighted)
            hi = max(c.left for c in weighted)
            assert lo - 1e-9 <= fused[0] <= hi + 1e-9

    def test_weighted_confidence_scale_invariant(self):
        node = node_of(["a", "b"])
        node.ingest("a", SteeringCommand(90, 30, 60))
        node.ingest("b", SteeringCommand(30, 90, 30))
        base = fuse_weighted(node.commands)
        node2 = node_of(["a", "b"])
        node2.ingest("a", SteeringCommand(90, 30, 6))
        node2.ingest("b", SteeringCommand(30, 90, 3))
        assert fuse_weighted(node2.commands) == pytest.approx(base, abs=1e-9)

    def test_simple_average_spreads_confident_free_power(self):
        # one confident source plus one that commands power at zero
        # confidence: the sum spreads over the single confident source
        node = node_of(["a", "b"])
        node.ingest("a", SteeringCommand(90, 90, 30))
        node.ingest("b", SteeringCommand(180, 0, 0))
        assert fuse_simple_avg(node.commands) == pytest.approx((90.0, 30.0))

    def test_all_zero_confidence_is_degenerate(self):
        node = node_of(["a"])
        node.ingest("a", SteeringCommand(90, 90, 0))
        assert fuse_max(node.commands) is None
        assert fuse_weighted(node.commands) is None
        # simple average still counts zero-conf sources out
        assert fuse_simple_avg(node.commands) is None


class TestDriveTick:
    def test_truncates_and_clamps(self):
        node = node_of(["a"])
        node.ingest("a", SteeringCommand(90, 110, 60))
        powers, degenerate = drive_tick(node.commands, MAXIMUM_CONFIDENCE, (0, 0))
        assert powers == (30, 36) and not degenerate

        node.ingest("a", SteeringCommand(3000, 3000, 60))
        powers, _ = drive_tick(node.commands, MAXIMUM_CONFIDENCE, (0, 0))
        assert powers == (255, 255)

        node.ingest("a", SteeringCommand(-15, 30, 9))
        powers, _ = drive_tick(node.commands, MAXIMUM_CONFIDENCE, (0, 0))
        assert powers == (0, 10)

    def test_degenerate_holds_previous(self):
        node = node_of(["a"])
        node.ingest("a", SteeringCommand(90, 90, 0))
        powers, degenerate = drive_tick(node.commands, CONFIDENCE_WEIGHTED, (77, 33))
        assert degenerate and powers == (77, 33)


_FIELD = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "", " 90 ", "0x10", "1_0"]),
    st.text(max_size=6),
)
# Arbitrary text and bytes, plus six-field datagrams that often parse.
_DATAGRAM = st.one_of(
    st.text(),
    st.binary(),
    st.lists(_FIELD, min_size=6, max_size=6).map(";".join),
    st.lists(_FIELD, min_size=6, max_size=6).map(lambda f: ";".join(f).encode("utf-8")),
)
# Commands as decode_command returns them, huge values included.
_FINITE_COMMAND = st.builds(
    SteeringCommand,
    *[st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1e308, -1e308, 0.0, -0.0]))] * 6,
)


class TestVehicleNode:
    def test_header_columns(self):
        assert DRIVE_LOG_HEADER.split(",") == [
            "time", "left", "right",
            "piLeft", "piRight", "piConf", "piP", "piI", "piD",
            "cam0Left", "cam0Right", "cam0Conf", "cam0P", "cam0I", "cam0D",
            "cam1Left", "cam1Right", "cam1Conf", "cam1P", "cam1I", "cam1D",
        ]

    def test_starts_stopped(self):
        node = VehicleNode(["pi"], MAXIMUM_CONFIDENCE, ("pi", None, None))
        assert node.applied == (0, 0)

    def test_row_format(self):
        node = VehicleNode(["pi"], MAXIMUM_CONFIDENCE,
                           slot_ids=("pi", None, None))
        node.handle_datagram("pi", decode_command("90;110;60;10;3.5;-2"), 0.005)
        assert list(node.log) == [
            "0.005000,30,36,30," + repr(110 / 3.0) + ",20,10,3.5,-2"
            + ",0,0,0,0,0,0,0,0,0,0,0,0"
        ]

    def test_degenerate_row_marked(self):
        node = VehicleNode(["pi"], CONFIDENCE_WEIGHTED, ("pi", None, None))
        node.handle_datagram("pi", decode_command("0;0;0;0;0;0"), 0.1)
        assert node.applied == (0, 0)
        assert list(node.log)[-1].endswith(",-1")

    def test_degenerate_keeps_powers(self):
        node = VehicleNode(["pi"], CONFIDENCE_WEIGHTED, ("pi", None, None))
        node.handle_datagram("pi", decode_command("90;110;60;0;0;0"), 0.1)
        assert node.applied == (30, 36)
        node.handle_datagram("pi", decode_command("0;0;0;0;0;0"), 0.2)
        assert node.applied == (30, 36)
        assert list(node.log)[-1].endswith(",-1")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_overflowing_fusion_never_raises(self, policy):
        # Finite but huge: the weighted sums overflow to inf.
        node = VehicleNode(["pi", "cam0"], policy, ("pi", "cam0", None))
        node.handle_datagram("cam0", decode_command("90;110;60;0;0;0"), 0.1)
        applied = node.handle_datagram("pi", decode_command("1e308;1e308;1e308;0;0;0"), 0.2)
        row = list(node.log)[-1]
        if policy == CONFIDENCE_WEIGHTED:
            assert applied == (30, 36)
            assert row.endswith(",-1")
        else:
            assert applied == (255, 255)
            assert not row.endswith(",-1")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            VehicleNode(["pi"], "median", ("pi", None, None))

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=150, deadline=None)
    @given(traffic=st.lists(st.tuples(st.sampled_from(["pi", "cam0"]), _FINITE_COMMAND),
                            max_size=8))
    @example(traffic=[("cam0", SteeringCommand(90.0, 110.0, 60.0, 0.0, 0.0, 0.0)),
                      ("pi", SteeringCommand(1e308, 1e308, 1e308, 0.0, 0.0, 0.0))])
    def test_finite_commands_never_raise(self, policy, traffic):
        node = VehicleNode(["pi", "cam0"], policy, ("pi", "cam0", None))
        for k, (source_id, cmd) in enumerate(traffic):
            held = node.applied
            applied = node.handle_datagram(source_id, cmd, 0.1 * k)
            rows = list(node.log)
            assert len(rows) == k + 1
            assert applied == node.applied
            assert all(0 <= p <= 255 for p in applied)
            assert rows[-1].split(",")[1:3] == [str(applied[0]), str(applied[1])]
            if rows[-1].endswith(",-1"):
                assert applied == held


@settings(max_examples=150)
@given(_DATAGRAM)
def test_hostile_text_decodes_to_finite_floats_or_is_malformed(datagram):
    # What a socket hands the node: six finite floats, or no command at all.
    try:
        cmd = decode_command(datagram)
    except MalformedDatagram:
        return
    assert type(cmd) is SteeringCommand and len(cmd) == 6
    assert all(type(v) is float and math.isfinite(v) for v in cmd)
