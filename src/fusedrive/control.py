"""Per-sensor PID steering with a decayed integral, plus command synthesis.

Each sensor runs its own controller.  The integral term is a decayed sum
(new = error + DECAY * old, updated before use) rather than a plain sum, so
it cannot wind up past error_bound / (1 - DECAY).  Infrastructure sensors
supply the line-to-vehicle angle as an external derivative; the on-vehicle
sensor uses consecutive error differences.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .perception import (
    ONBOARD,
    compute_robot_angle,
    confidence_from_visibility,
    direction_fix,
    disambiguate_line_angle,
    front_point,
    onboard_offset,
    position_fix,
)
from .wire import ZERO, SteeringCommand

DECAY = 0.9  # weight of the old integral in each update
MAX_CORRECTION = 2.0 ** 53  # largest correction whose wheel powers stay exact integers


@dataclass(frozen=True)
class PidGains:
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self):
        for g in (self.kp, self.ki, self.kd):
            if not math.isfinite(g) or g < 0.0:
                raise ValueError("gains must be finite and non-negative")


class PidState(NamedTuple):
    """Controller memory: decayed error sum and the previous error."""

    integral: float = 0.0
    last_error: float = 0.0


def pid_update(gains: PidGains, state: PidState, error: float, derivative: float):
    """One controller step; returns (new_state, correction).

    The integral decays before it is read.  derivative is the error rate:
    measured directly by an infrastructure sensor, the difference of
    consecutive errors on the vehicle (sensor_tick).
    """
    integral = error + DECAY * state.integral
    correction = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return PidState(integral, error), correction


def commands_from_correction(correction: float):
    """Split a correction into wheel powers around the 100 midpoint.

    The correction clamps to +-MAX_CORRECTION first, so a huge gain sends
    powers of at most 17 characters, not hundreds of digits; the node clamps
    applied powers to [0, 255] anyway.  int() truncates toward zero,
    matching the integer cast on the sensors; the power is that whole
    number as a float, which holds it exactly, as every command field is
    a float.
    """
    correction = min(MAX_CORRECTION, max(-MAX_CORRECTION, correction))
    return float(int(100.0 - correction)), float(int(100.0 + correction))


def sensor_tick(camera, gains: PidGains, state: PidState, observation):
    """Turn one camera frame into a steering command.

    observation is the (markers, line_box) pair observe gave for camera.
    An empty frame yields a zero-report and leaves the controller state
    untouched, so a sensor resumes from its pre-outage integral; so does a
    frame whose two roof markers share a pixel, which shows no heading, and
    a correction that overflows to inf or nan, which no wheel power can carry.
    """
    markers, line_box = observation
    onboard = camera.kind == ONBOARD
    if not line_box.visible or (not onboard and (not markers.visible
                                                 or markers.green == markers.orange)):
        return state, ZERO
    if onboard:
        error = onboard_offset(line_box.center[0], camera.center_x)
        derivative = error - state.last_error
    else:
        vehicle_angle = compute_robot_angle(markers.green, markers.orange)
        line_angle = disambiguate_line_angle(
            line_box.width, line_box.height, line_box.raw_angle, vehicle_angle
        )
        derivative = direction_fix(line_angle, vehicle_angle)
        error = position_fix(front_point(markers), line_box.center, vehicle_angle)
    new_state, correction = pid_update(gains, state, error, derivative)
    if not math.isfinite(correction):
        return state, ZERO
    left, right = commands_from_correction(correction)
    confidence = confidence_from_visibility(line_box.visible_fraction)
    return new_state, SteeringCommand(left, right, confidence, error,
                                      new_state.integral, derivative)

