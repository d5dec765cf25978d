"""Outage model tests: periodic windows, strict probabilistic draws."""

import random

import pytest

from fusedrive.faults import (
    OutageSchedule,
    PeriodicOutage,
    ProbabilisticOutage,
    gate,
)
from fusedrive.wire import SteeringCommand


class TestPeriodic:
    def test_window_membership(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.5))
        assert not sched.active(0.5)
        assert not sched.active(2.999)
        assert sched.active(3.0)
        assert sched.active(3.2)
        assert sched.active(3.499)
        assert not sched.active(3.5)
        assert sched.active(6.1)

    def test_zero_duration_never_active(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.0))
        for i in range(2000):
            assert not sched.active(i * 0.005)

    def test_phase_shifts_windows(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.5), phase=1.0)
        assert sched.active(1.2)
        assert not sched.active(3.2)
        assert sched.active(4.2)

    def test_windows_analytic(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.5), phase=1.0)
        assert sched.windows(7.5) == [(1.0, 1.5), (4.0, 4.5), (7.0, 7.5)]

    def test_windows_include_one_under_way_at_zero(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.4), phase=2.84)
        assert sched.active(0.0) and sched.active(0.1) and not sched.active(0.3)
        windows = sched.windows(5.0)
        assert len(windows) == 2
        assert windows[0] == pytest.approx((2.84 - 3.0, 2.84 - 3.0 + 0.4))
        assert windows[1] == (2.84, 2.84 + 0.4)
        # a window that ends before t = 0 is not listed
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.4), phase=2.5)
        assert not sched.active(0.0)
        assert sched.windows(5.0) == [(2.5, 2.5 + 0.4)]

    def test_windows_zero_duration_marks(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=0.0))
        assert sched.windows(6.5) == [(0.0, 0.0), (3.0, 3.0), (6.0, 6.0)]

    def test_duty_cycle_matches_duration(self):
        sched = OutageSchedule(PeriodicOutage(period=3.0, duration=1.2))
        dark = sum(sched.active(i * 0.001) for i in range(30000))
        assert dark / 30000 == pytest.approx(1.2 / 3.0, abs=0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period=0.0, duration=0.0)
        with pytest.raises(ValueError):
            PeriodicOutage(period=3.0, duration=3.5)


class TestProbabilistic:
    def test_strict_threshold_rate(self):
        # draw < threshold over integers 1..100: fires (threshold-1)/100
        for threshold, want in ((40, 0.39), (1, 0.0), (100, 0.99)):
            sched = OutageSchedule(ProbabilisticOutage(interval=0.4, threshold=threshold),
                                   rng=random.Random(11))
            n = 50000
            dark = sum(sched.active(k * 0.4) for k in range(n))
            assert dark / n == pytest.approx(want, abs=0.01), threshold

    def test_zero_threshold_never_fires(self):
        sched = OutageSchedule(ProbabilisticOutage(interval=0.4, threshold=0),
                               rng=random.Random(1))
        assert not any(sched.active(k * 0.1) for k in range(4000))

    def test_one_draw_per_interval(self):
        # querying many times inside one interval must not consume draws
        def darkness(queries_per_interval):
            sched = OutageSchedule(ProbabilisticOutage(interval=0.4, threshold=50),
                                   rng=random.Random(77))
            out = []
            step = 0.4 / queries_per_interval
            for k in range(200 * queries_per_interval):
                out.append(sched.active(k * step))
            # collapse to one flag per interval
            return out[::queries_per_interval]

        assert darkness(1) == darkness(8)

    def test_same_seed_same_schedule(self):
        def flags(seed):
            sched = OutageSchedule(ProbabilisticOutage(interval=0.4, threshold=50),
                                   rng=random.Random(seed))
            return [sched.active(k * 0.4) for k in range(500)]

        assert flags(3) == flags(3)
        assert flags(3) != flags(4)

    def test_windows_merge_adjacent_intervals(self):
        sched = OutageSchedule(ProbabilisticOutage(interval=0.4, threshold=50),
                               rng=random.Random(9))
        # query at interval midpoints so each flag maps to one interval
        flags = [sched.active((k + 0.5) * 0.4) for k in range(50)]
        windows = sched.windows(50 * 0.4)
        # reconstruct expected merged windows from the flags
        want = []
        start = None
        for k, f in enumerate(flags):
            if f and start is None:
                start = k * 0.4
            elif not f and start is not None:
                want.append((start, k * 0.4))
                start = None
        if start is not None:
            want.append((start, 50 * 0.4))
        assert len(windows) == len(want)
        for got, expected in zip(windows, want):
            assert got == pytest.approx(expected, abs=1e-9)
        assert all(e - s >= 0.4 - 1e-9 for s, e in windows)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilisticOutage(interval=0.4, threshold=101)
        with pytest.raises(ValueError):
            ProbabilisticOutage(interval=0.0, threshold=10)


class TestGate:
    def test_gate_substitutes_zero_report(self):
        cmd = SteeringCommand(80, 120, 40, 10, 1, 2)
        assert gate(cmd, False) is cmd
        assert gate(cmd, True).is_zero_report()

    def test_none_model_never_active(self):
        sched = OutageSchedule(None)
        assert not sched.active(12.3)
        assert sched.windows(10.0) == []
