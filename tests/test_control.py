"""PID controller and steering-command tests against hand evaluations."""

import random

import pytest

from fusedrive.control import (
    PidGains,
    PidState,
    commands_from_correction,
    pid_update,
    sensor_tick,
)
from fusedrive.perception import (
    LineBoxObservation,
    MarkerObservation,
    infrastructure_camera,
    observe,
    onboard_camera,
)
from fusedrive.wire import ZERO
from fusedrive.world import Pose, Track, rounded_rectangle_segments


class TestPidUpdate:
    def test_pure_proportional(self):
        state, correction = pid_update(PidGains(1, 0, 0), PidState(), 7.0, 7.0 - 0.0)
        assert correction == 7.0
        assert state.integral == 7.0
        assert state.last_error == 7.0

    def test_hand_evaluation_full_gains(self):
        # kp*10 + ki*(10 + 0.9*0) + kd*(10 - 0) = 15 + 1.5 + 45.
        state, correction = pid_update(PidGains(1.5, 0.15, 4.5), PidState(), 10.0, 10.0 - 0.0)
        assert correction == pytest.approx(61.5, abs=1e-12)
        assert state.integral == 10.0

    def test_integral_updates_before_use(self):
        # With ki = 1 and zero other gains the first correction already
        # includes the fresh error, not just the decayed history.
        _, correction = pid_update(PidGains(0, 1, 0), PidState(integral=10.0), 5.0, 5.0 - 0.0)
        assert correction == pytest.approx(5.0 + 0.9 * 10.0)

    def test_geometric_series_limit(self):
        gains = PidGains(0, 1, 0)
        state = PidState()
        correction = None
        for _ in range(300):
            state, correction = pid_update(gains, state, 1.0, 1.0 - state.last_error)
        assert correction == pytest.approx(10.0, abs=1e-9)

    def test_external_derivative_replaces_difference(self):
        gains = PidGains(1.0, 0.02, 0.5)
        state = PidState(last_error=50.0)
        _, correction = pid_update(gains, state, 10.0, 4.0)
        assert correction == pytest.approx(10.0 + 0.02 * 10.0 + 0.5 * 4.0)

    def test_derivative_from_difference(self):
        gains = PidGains(0, 0, 1.0)
        state = PidState(last_error=3.0)
        _, correction = pid_update(gains, state, 10.0, 10.0 - state.last_error)
        assert correction == pytest.approx(7.0)

    def test_integral_bounded(self):
        rng = random.Random(20)
        gains = PidGains(1.5, 0.15, 4.5)
        state = PidState()
        bound = 50.0 / (1.0 - 0.9)
        for _ in range(100000):
            error = rng.uniform(-50.0, 50.0)
            state, _ = pid_update(gains, state, error, error - state.last_error)
            assert abs(state.integral) <= bound

    def test_mirrored_errors_negate_corrections(self):
        rng = random.Random(21)
        errors = [rng.uniform(-30, 30) for _ in range(100)]
        gains = PidGains(1.2, 0.1, 2.0)
        s_pos, s_neg = PidState(), PidState()
        for e in errors:
            s_pos, c_pos = pid_update(gains, s_pos, e, e - s_pos.last_error)
            s_neg, c_neg = pid_update(gains, s_neg, -e, -e - s_neg.last_error)
            assert c_neg == pytest.approx(-c_pos, abs=1e-9)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PidGains(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PidGains(float("nan"), 0.0, 0.0)


class TestCommandsFromCorrection:
    def test_examples(self):
        assert commands_from_correction(0.0) == (100, 100)
        assert commands_from_correction(61.5) == (38, 161)
        assert commands_from_correction(-25.0) == (125, 75)

    def test_truncation_toward_zero(self):
        # 100 - 100.5 = -0.5 truncates to 0, not -1.
        assert commands_from_correction(100.5) == (0, 200)
        assert commands_from_correction(99.7) == (0, 199)

    @pytest.mark.parametrize("correction", [2.0 ** 53, 1e300, 1.7e308])
    def test_huge_corrections_clamp_to_exact_integers(self, correction):
        assert commands_from_correction(correction) == (100 - 2 ** 53, 100 + 2 ** 53)
        assert commands_from_correction(-correction) == (100 + 2 ** 53, 100 - 2 ** 53)

    def test_sum_before_truncation(self):
        rng = random.Random(22)
        for _ in range(1000):
            c = rng.uniform(-90, 90)
            assert (100.0 - c) + (100.0 + c) == pytest.approx(200.0)


def _visible_box(x=160.0, fraction=1.0):
    return LineBoxObservation((x, 40.0), 80.0, 40.0, -0.0, fraction)


def _invisible():
    return (MarkerObservation((0, 0), (0, 0), False),
            LineBoxObservation((0, 0), 0, 0, 0, 0.0))


class TestSensorTick:
    def test_invisible_zero_report(self):
        state = PidState(integral=4.2, last_error=1.0)
        new_state, cmd = sensor_tick(onboard_camera(), PidGains(1.5, 0.15, 4.5), state,
                                     _invisible())
        assert cmd.is_zero_report()
        assert new_state == state  # outage must not disturb the integral

    def test_onboard_centered(self):
        obs = (MarkerObservation((0, 0), (0, 0), False), _visible_box(160.0))
        state, cmd = sensor_tick(onboard_camera(), PidGains(1.5, 0.15, 4.5), PidState(), obs)
        assert (cmd.left, cmd.right) == (100, 100)
        assert cmd.confidence == 100
        assert cmd.p == 0.0
        assert cmd.i == 0.0
        assert cmd.d == 0.0

    def test_onboard_offset_error(self):
        obs = (MarkerObservation((0, 0), (0, 0), False), _visible_box(100.0))
        _, cmd = sensor_tick(onboard_camera(), PidGains(1.0, 0.0, 0.0), PidState(), obs)
        assert cmd.p == pytest.approx(0.333 * 60.0)
        assert cmd.left == int(100 - cmd.p)
        assert cmd.right == int(100 + cmd.p)

    def test_onboard_derivative_is_the_error_difference(self):
        # Error 0.333 * 60 px after an error of 3: kd alone sees the difference.
        obs = (MarkerObservation((0, 0), (0, 0), False), _visible_box(100.0))
        state, cmd = sensor_tick(onboard_camera(), PidGains(0.0, 0.0, 1.0),
                                 PidState(last_error=3.0), obs)
        assert cmd.p == pytest.approx(0.333 * 60.0)
        assert cmd.d == cmd.p - 3.0
        assert (cmd.left, cmd.right) == commands_from_correction(cmd.d)
        assert state.last_error == cmd.p

    @pytest.mark.parametrize("width", [320, 400, 640])
    def test_onboard_error_from_the_frames_center_column(self, width):
        # A pose on the line of a straight: any image width sees no error.
        track = Track(rounded_rectangle_segments((1.0, 1.0), 1.0, 0.3))
        cam = onboard_camera(image_width=width)
        obs = observe(cam, track, Pose(1.0, 0.2, 0.0))
        assert obs[1].visible
        _, cmd = sensor_tick(cam, PidGains(1.0, 0.0, 0.0), PidState(), obs)
        assert abs(cmd.p) < 1e-6

    def test_infrastructure_hand_case(self):
        # Geometry chosen to give P = 10. Vehicle at heading 0, line center
        # 10 degrees up-left of the look-ahead point; external derivative
        # comes from the line angle of the box.
        track = Track(rounded_rectangle_segments((1.0, 1.0), 1.0, 0.3))
        cam = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        markers, box = observe(cam, track, Pose(1.0, 0.2, 0.0))
        state, cmd = sensor_tick(cam, PidGains(1.0, 0.02, 0.5),
                                 PidState(), (markers, box))
        assert not cmd.is_zero_report()
        assert cmd.left + cmd.right == pytest.approx(200, abs=1)
        assert abs(cmd.p) < 15.0
        assert abs(cmd.d) < 10.0

    def test_infrastructure_markers_hidden(self):
        box = _visible_box()
        markers = MarkerObservation((0, 0), (0, 0), False)
        state = PidState(integral=2.0)
        new_state, cmd = sensor_tick(infrastructure_camera((0.0, 0.0, 2.0, 2.0)),
                                     PidGains(1.0, 0.02, 0.5),
                                     state, (markers, box))
        assert cmd.is_zero_report()
        assert new_state == state

    @pytest.mark.parametrize("green, orange", [((50.0, 60.0), (50.0, 60.0)),
                                               ((0.0, 0.0), (-0.0, 0.0))])
    def test_infrastructure_markers_on_one_pixel(self, green, orange):
        # compute_robot_angle has no heading for such a pair: the frame is blind.
        markers = MarkerObservation(green, orange, True)
        state = PidState(integral=2.0, last_error=1.0)
        new_state, cmd = sensor_tick(infrastructure_camera((0.0, 0.0, 2.0, 2.0)),
                                     PidGains(1.0, 0.02, 0.5),
                                     state, (markers, _visible_box()))
        assert cmd is ZERO
        assert new_state == state

    @pytest.mark.parametrize("gains", [PidGains(1e308, 0.0, 0.0),  # inf
                                       PidGains(1e308, 0.0, 1e308)])  # inf - inf: nan
    def test_non_finite_correction_zero_report(self, gains):
        # Error 0.333 * 60 px, falling from 100: kp * error alone overflows.
        state = PidState(integral=4.2, last_error=100.0)
        obs = (MarkerObservation((0, 0), (0, 0), False), _visible_box(100.0))
        new_state, cmd = sensor_tick(onboard_camera(), gains, state, obs)
        assert cmd.is_zero_report()
        assert new_state == state

    def test_power_sum_invariant(self):
        rng = random.Random(23)
        state = PidState()
        gains = PidGains(1.5, 0.15, 4.5)
        cam = onboard_camera()
        for _ in range(500):
            obs = (MarkerObservation((0, 0), (0, 0), False),
                   _visible_box(rng.uniform(120, 200)))
            state, cmd = sensor_tick(cam, gains, state, obs)
            # Truncation moves each side below its exact value by < 1.
            assert 198 <= cmd.left + cmd.right <= 200

