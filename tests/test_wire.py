"""Codec and simulated channel tests."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusedrive.wire import (
    ZERO,
    MalformedDatagram,
    SimulatedChannel,
    SteeringCommand,
    decode_command,
    encode_command,
    first_due_tick,
    merge_deliveries,
)


def random_command(rng):
    if rng.random() < 0.1:
        return ZERO
    def num():
        return float(rng.randint(-200, 200)) if rng.random() < 0.5 \
            else rng.uniform(-200.0, 200.0)
    return SteeringCommand(num(), num(), abs(num()), num(), num(), num())


class TestCodec:
    def test_encode_examples(self):
        cmd = SteeringCommand(38, 161, 25, 10, 3.5, -2)
        assert encode_command(cmd) == "38;161;25;10;3.5;-2"
        assert encode_command(ZERO) == "0;0;0;0;0;0"

    def test_decode_examples(self):
        assert decode_command("0;0;0;0;0;0").is_zero_report()
        cmd = decode_command("87;112;40;10.0;10.0;4.0")
        assert (cmd.left, cmd.right, cmd.confidence) == (87.0, 112.0, 40.0)
        assert (cmd.p, cmd.i, cmd.d) == (10.0, 10.0, 4.0)

    def test_decode_malformed(self):
        with pytest.raises(MalformedDatagram):
            decode_command("87;112")
        with pytest.raises(MalformedDatagram):
            decode_command("a;b;c;d;e;f")
        with pytest.raises(MalformedDatagram):
            decode_command("1;2;3;4;5;6;7")
        with pytest.raises(MalformedDatagram):
            decode_command(b"\xff\xfe;1;2;3;4;5")

    def test_decode_bytes(self):
        assert decode_command(b"1;2;3;4;5;6") == SteeringCommand(1, 2, 3, 4, 5, 6)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(10000):
            cmd = random_command(rng)
            again = decode_command(encode_command(cmd))
            assert again == cmd

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode_command(SteeringCommand(float("inf"), 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("text", ["inf;inf;inf;0;0;0", "nan;nan;nan;0;0;0",
                                      "1e400;5;100;0;0;0", "1;2;3;4;5;-inf"])
    def test_decode_non_finite_malformed(self, text):
        with pytest.raises(MalformedDatagram, match="non-finite"):
            decode_command(text)


class TestChannel:
    def test_no_loss_no_delay(self):
        ch = SimulatedChannel()
        ch.send("a", "1;2;3;4;5;6", 0.0)
        assert merge_deliveries([ch], 0.0) == [("a", "1;2;3;4;5;6")]
        assert merge_deliveries([ch], 0.0) == []

    def test_total_loss(self):
        ch = SimulatedChannel(loss_probability=1.0)
        for i in range(100):
            ch.send("a", "x", i * 0.1)
        assert ch.pending() == 0

    def test_fixed_delay_ordering(self):
        ch = SimulatedChannel(delay=0.05)
        ch.send("a", "first", 0.0)
        ch.send("a", "second", 0.02)
        assert merge_deliveries([ch], 0.04) == []
        assert merge_deliveries([ch], 0.05) == [("a", "first")]
        assert merge_deliveries([ch], 0.07) == [("a", "second")]

    def test_fifo_within_tick(self):
        ch = SimulatedChannel()
        ch.send("a", "1", 0.0)
        ch.send("a", "2", 0.0)
        ch.send("a", "3", 0.0)
        assert [d for _, d in merge_deliveries([ch], 0.0)] == ["1", "2", "3"]

    def test_delivery_rate(self):
        ch = SimulatedChannel(loss_probability=0.3, seed=7)
        n = 100000
        for i in range(n):
            ch.send("a", "x", 0.0)
        rate = ch.pending() / n
        assert rate == pytest.approx(0.7, abs=0.01)

    def test_same_seed_same_schedule(self):
        def schedule(seed):
            ch = SimulatedChannel(loss_probability=0.4, delay=(0.0, 0.05), seed=seed)
            for i in range(500):
                ch.send("a", str(i), i * 0.01)
            out = []
            for k in range(600):
                out.extend(merge_deliveries([ch], k * 0.01))
            return out

        assert schedule(123) == schedule(123)
        assert schedule(123) != schedule(124)

    def test_uniform_delay_range(self):
        ch = SimulatedChannel(delay=(0.01, 0.03), seed=1)
        for i in range(1000):
            ch.send("a", "x", 0.0)
        delays = [t for t, _, _, _ in ch._heap]
        assert min(delays) >= 0.01
        assert max(delays) <= 0.03

    def test_merge_deliveries_global_order(self):
        seq = itertools.count().__next__
        a = SimulatedChannel(delay=0.02, seq=seq)
        b = SimulatedChannel(delay=0.01, seq=seq)
        a.send("a", "a0", 0.0)
        b.send("b", "b0", 0.0)
        b.send("b", "b1", 0.015)
        out = merge_deliveries([a, b], 0.05)
        assert out == [("b", "b0"), ("a", "a0"), ("b", "b1")]

    def test_next_delivery_is_earliest_queued_time(self):
        ch = SimulatedChannel(delay=(0.0, 0.03), seed=2)
        assert ch.next_delivery() == math.inf
        for i in range(20):
            ch.send("a", str(i), i * 0.005)
        while ch.pending():
            t = ch.next_delivery()
            assert t == min(entry[0] for entry in ch._heap)
            assert merge_deliveries([ch], t - 2e-12) == []
            assert merge_deliveries([ch], t)
        assert ch.next_delivery() == math.inf

    def test_first_due_tick_matches_the_merge(self):
        # The first tick k >= first whose merge, at k * ts, delivers at t.
        rng = random.Random(11)
        ts = 0.005
        for _ in range(2000):
            first = rng.randrange(0, 20000)
            now = first * ts
            t = rng.choice([now + rng.uniform(-0.01, 0.05),
                            now + rng.randrange(0, 8) * ts,      # whole ticks
                            (first + rng.randrange(0, 8)) * ts + rng.choice([-1e-12, 1e-12])])
            k = first
            while not t <= k * ts + 1e-12:
                k += 1
            assert first_due_tick(t, ts, first, 2 ** 24) == k
        assert first_due_tick(math.inf, ts, 3, 10) == 10
        assert first_due_tick(-math.inf, ts, 3, 10) == 3

    @given(st.data())
    def test_first_due_tick_is_the_least_due_tick_up_to_stop(self, data):
        # A delay of 1e20 s or more used to count ticks up to the due time
        # one at a time, past the float's precision: the run never ended.
        ts = data.draw(st.sampled_from([0.001, 0.002, 0.005, 0.01, 1 / 3]))
        first = data.draw(st.integers(0, 2 ** 24))
        stop = data.draw(st.integers(first, 2 ** 24))
        near_tick = (data.draw(st.integers(0, 2 ** 24)) * ts
                     + data.draw(st.sampled_from([-2e-12, -1e-12, 0.0, 1e-12, 2e-12])))
        t = data.draw(st.one_of(st.floats(-1e300, 1e300), st.just(near_tick),
                                st.sampled_from([math.inf, -math.inf])))

        def due(k):  # as merge_deliveries tests it; monotone in k
            return t <= k * ts + 1e-12

        k = first_due_tick(t, ts, first, stop)
        if due(stop):
            assert first <= k <= stop and due(k) and (k == first or not due(k - 1))
        else:
            assert k == stop

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SimulatedChannel(loss_probability=1.5)
        with pytest.raises(ValueError):
            SimulatedChannel(delay=-0.1)
