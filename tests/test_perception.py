"""Perception tests: angle math against the transliteration oracle, and the
virtual camera geometry."""

import dataclasses
import gc
import math
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedrive.perception import (
    MarkerLayout,
    _longest_run,
    compute_robot_angle,
    confidence_from_visibility,
    direction_fix,
    disambiguate_line_angle,
    fold_line_angle,
    front_point,
    infrastructure_camera,
    onboard_camera,
    observe,
    onboard_offset,
    position_fix,
)
import fusedrive.perception as perception
import fusedrive.runner as runner
from fusedrive.faults import ProbabilisticOutage
from fusedrive.runner import run
from fusedrive.scenario import load_scenario, track_from_config
from fusedrive.world import Pose, Track, rounded_rectangle_segments

import oracles
from test_world import FAST_PATH_TRACKS


def _norm360(a):
    return 0.0 if a == 360.0 else a


class TestComputeRobotAngle:
    def test_vertical_cases(self):
        assert compute_robot_angle((100, 200), (100, 100)) == 90.0
        assert compute_robot_angle((100, 100), (100, 200)) == 270.0

    def test_horizontal_cases(self):
        # The raw branch math yields 360 for rightward; normalized to 0.
        assert compute_robot_angle((100, 200), (200, 200)) == 0.0
        assert compute_robot_angle((200, 200), (100, 200)) == 180.0

    def test_degenerate_pair(self):
        with pytest.raises(ValueError, match="degenerate marker pair"):
            compute_robot_angle((5, 5), (5, 5))

    def test_matches_oracle_integer_grid(self):
        for g, o in oracles.marker_pairs(101, 2500, integer_grid=True):
            expected = _norm360(oracles.oracle_compute_robot_angle(g[0], g[1], o[0], o[1]))
            assert compute_robot_angle(g, o) == expected

    def test_matches_oracle_real(self):
        for g, o in oracles.marker_pairs(102, 2500, integer_grid=False):
            expected = _norm360(oracles.oracle_compute_robot_angle(g[0], g[1], o[0], o[1]))
            assert compute_robot_angle(g, o) == pytest.approx(expected, abs=1e-9)

    def test_reversed_markers_flip_180(self):
        rng = random.Random(103)
        for _ in range(500):
            g = (rng.uniform(0, 1000), rng.uniform(0, 700))
            o = (rng.uniform(0, 1000), rng.uniform(0, 700))
            if g == o:
                continue
            a = compute_robot_angle(g, o)
            b = compute_robot_angle(o, g)
            assert math.fmod(abs(a - b), 360.0) == pytest.approx(180.0, abs=1e-9)

    def test_range(self):
        for g, o in oracles.marker_pairs(104, 1000, integer_grid=False):
            assert 0.0 <= compute_robot_angle(g, o) < 360.0


class TestDisambiguateLineAngle:
    def test_examples(self):
        # Landscape box, shallow line: direction is just -raw.
        assert disambiguate_line_angle(30, 6, -20.0, 0.0) == 20.0
        # Same box seen by a vehicle heading the other way.
        assert disambiguate_line_angle(30, 6, -20.0, 180.0) == 200.0
        # Portrait box near vertical, vehicle heading up-ish.
        assert disambiguate_line_angle(6, 30, -20.0, 90.0) == 110.0

    def test_matches_oracle(self):
        for w, h, raw, ang in oracles.disambiguation_inputs(111, 2500, True):
            assert disambiguate_line_angle(w, h, raw, ang) == \
                oracles.oracle_disambiguate(w, h, raw, ang)
        for w, h, raw, ang in oracles.disambiguation_inputs(112, 2500, False):
            assert disambiguate_line_angle(w, h, raw, ang) == pytest.approx(
                oracles.oracle_disambiguate(w, h, raw, ang), abs=1e-9)

    def test_roundtrip_recovers_direction_mod_180(self):
        # Fold a known direction into box form, then disambiguate it back.
        for direction in range(0, 360):
            w, h, raw = fold_line_angle(float(direction), 30.0, 6.0)
            for vehicle in (0.0, 50.0, 140.0, 250.0, 300.0):
                recovered = disambiguate_line_angle(w, h, raw, vehicle)
                assert math.fmod(recovered, 180.0) == pytest.approx(
                    direction % 180, abs=1e-9)

    def test_roundtrip_real_valued(self):
        rng = random.Random(113)
        for _ in range(2000):
            direction = rng.uniform(0.0, 360.0)
            w, h, raw = fold_line_angle(direction, 40.0, 5.0)
            recovered = disambiguate_line_angle(w, h, raw, rng.uniform(0, 360))
            assert math.fmod(recovered, 180.0) == pytest.approx(
                math.fmod(direction, 180.0), abs=1e-9)


class TestDirectionFix:
    def test_examples(self):
        assert direction_fix(350.0, 10.0) == -20.0
        assert direction_fix(100.0, 280.0) == 0.0
        assert direction_fix(45.0, 45.0) == 0.0
        assert direction_fix(20.0, 0.0) == 20.0

    def test_matches_oracle(self):
        for line, ang in oracles.direction_inputs(121, 2500, True):
            assert direction_fix(line, ang) == oracles.oracle_direction_fix(line, ang)
        for line, ang in oracles.direction_inputs(122, 2500, False):
            assert direction_fix(line, ang) == pytest.approx(
                oracles.oracle_direction_fix(line, ang), abs=1e-9)

    def test_bounded_on_reachable_differences(self):
        # The double fold lands in [-90, 90] whenever the wrapped difference
        # is within +-270; the extreme corner below escapes by design.
        for line in range(0, 361):
            for ang in range(0, 361, 3):
                d = line - ang
                if d < -300:
                    d += 360
                elif d > 300:
                    d -= 360
                if abs(d) <= 270:
                    assert -90.0 <= direction_fix(float(line), float(ang)) <= 90.0

    def test_extreme_difference_quirk(self):
        # Differences in (270, 300] fold once and stop outside [-90, 90];
        # frozen here as the reference behavior.
        assert direction_fix(300.0, 0.0) == 120.0
        assert direction_fix(0.0, 300.0) == -120.0


class TestPositionFix:
    def test_examples(self):
        assert position_fix((75, 75), (85, 65), 0.0) == 45.0
        assert position_fix((100, 100), (100, 50), 90.0) == 0.0
        # Line dead ahead of a vehicle pointing along +x in board terms.
        assert position_fix((100, 100), (150, 100), 0.0) == 0.0

    def test_coincident_points(self):
        assert position_fix((75, 75), (75, 75), 123.0) == 0.0

    def test_matches_oracle_integer_grid(self):
        for f, l, ang in oracles.position_inputs(131, 2500, True):
            assert position_fix(f, l, ang) == \
                oracles.oracle_position_fix(f[0], f[1], l[0], l[1], ang)

    def test_matches_oracle_real(self):
        for f, l, ang in oracles.position_inputs(132, 2500, False):
            assert position_fix(f, l, ang) == pytest.approx(
                oracles.oracle_position_fix(f[0], f[1], l[0], l[1], ang), abs=1e-9)

    def test_bounded(self):
        for f, l, ang in oracles.position_inputs(133, 100000, False):
            assert -90.0 <= position_fix(f, l, ang) <= 90.0


class TestSmallHelpers:
    def test_onboard_offset(self):
        assert onboard_offset(160.0, 160.0) == 0.0
        assert onboard_offset(0.0, 160.0) == pytest.approx(53.28)
        assert onboard_offset(320.0, 160.0) == pytest.approx(-53.28)

    def test_confidence(self):
        assert confidence_from_visibility(1.0) == 100
        assert confidence_from_visibility(0.0) == 0
        assert confidence_from_visibility(0.924) == 92

    def test_front_point(self):
        from fusedrive.perception import MarkerObservation

        markers = MarkerObservation((100.0, 200.0), (130.0, 200.0), True)
        assert front_point(markers) == (145.0, 200.0)

    def test_fold_line_angle(self):
        assert fold_line_angle(20.0, 30.0, 6.0) == (30.0, 6.0, -20.0)
        assert fold_line_angle(120.0, 30.0, 6.0) == (6.0, 30.0, -30.0)
        assert fold_line_angle(200.0, 30.0, 6.0) == (30.0, 6.0, -20.0)


def _track():
    return Track(rounded_rectangle_segments((1.0, 1.0), 1.0, 0.3))


class TestObserveOnboard:
    def test_centered_on_line(self):
        cam = onboard_camera()
        markers, box = observe(cam, _track(), Pose(1.0, 0.2, 0.0))
        assert not markers.visible
        assert box.visible
        assert box.center[0] == pytest.approx(160.0, abs=1e-6)
        assert box.visible_fraction == pytest.approx(1.0)

    def test_offset_shifts_center_column(self):
        cam = onboard_camera()
        # Vehicle 0.02 m left of the line: line appears right of center.
        _, box = observe(cam, _track(), Pose(1.0, 0.22, 0.0))
        assert box.center[0] == pytest.approx(160.0 + 0.02 * 2000.0, abs=1.0)
        # And the resulting error steers back toward the line.
        assert onboard_offset(box.center[0], 160.0) < 0

    def test_line_out_of_strip(self):
        cam = onboard_camera()
        _, box = observe(cam, _track(), Pose(1.0, 0.35, 0.0))
        assert not box.visible
        assert box.visible_fraction == 0.0

    def test_noise_is_deterministic(self):
        cam = onboard_camera()
        a = observe(cam, _track(), Pose(1.0, 0.21, 0.0), rng=random.Random(5))
        b = observe(cam, _track(), Pose(1.0, 0.21, 0.0), rng=random.Random(5))
        assert a == b
        c = observe(cam, _track(), Pose(1.0, 0.21, 0.0), rng=random.Random(6))
        assert c != a


class TestObserveInfrastructure:
    def test_markers_projected(self):
        cam = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        layout = MarkerLayout(separation=0.1, body_radius=0.06)
        markers, box = observe(cam, _track(), Pose(1.0, 0.2, 0.0), layout)
        assert markers.visible
        # Board (1, 0.2) maps near (640, 600) at 300 px/m from center (1, 1).
        gx, gy = markers.green
        ox, oy = markers.orange
        assert gx == pytest.approx(640 - 0.05 * 300, abs=1e-6)
        assert ox == pytest.approx(640 + 0.05 * 300, abs=1e-6)
        assert gy == oy == pytest.approx(360 + 0.8 * 300, abs=1e-6)
        assert compute_robot_angle(markers.green, markers.orange) == pytest.approx(0.0)
        assert box.visible

    def test_recovers_heading_all_quadrants(self):
        cam = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        track = _track()
        for heading in (0.0, 45.0, 90.0, 180.0, 270.0, 333.0):
            markers, _ = observe(cam, track, Pose(1.0, 1.0, heading))
            assert compute_robot_angle(markers.green, markers.orange) == \
                pytest.approx(heading, abs=1e-6)

    def test_line_chunk_is_ahead(self):
        cam = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        markers, box = observe(cam, _track(), Pose(1.0, 0.2, 0.0))
        # The chassis hides the line underneath, so the chunk center sits
        # ahead of the look-ahead point and the offset bearing is ~0.
        fx, fy = front_point(markers)
        assert box.center[0] > fx
        ang = compute_robot_angle(markers.green, markers.orange)
        assert abs(position_fix((fx, fy), box.center, ang)) < 10.0

    def test_out_of_coverage_invisible(self):
        cam = infrastructure_camera((0.0, 0.0, 2.0, 1.3))
        markers, box = observe(cam, _track(), Pose(1.0, 1.8, 0.0))
        assert not markers.visible
        assert not box.visible

    def test_coverage_edge_lowers_confidence(self):
        # Window clipped by the coverage boundary: less line in view.
        cam_full = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        cam_edge = infrastructure_camera((0.85, 0.0, 2.0, 2.0))
        pose = Pose(1.0, 0.2, 180.0)  # driving -x, window reaches x < 0.85
        _, box_full = observe(cam_full, _track(), pose)
        _, box_edge = observe(cam_edge, _track(), pose)
        assert box_edge.visible
        assert box_edge.visible_fraction < box_full.visible_fraction

    def test_no_line_in_window(self):
        cam = infrastructure_camera((0.0, 0.0, 2.0, 2.0))
        markers, box = observe(cam, _track(), Pose(1.0, 1.0, 0.0))
        assert markers.visible
        assert not box.visible


class TestLongestRun:
    """Pins the circular run search over a mask of more than one stretch."""

    @staticmethod
    def _mask(n, true_at):
        mask = np.zeros(n, dtype=bool)
        mask[list(true_at)] = True
        return mask

    def test_run_across_sample_zero_joins_the_head(self):
        mask = self._mask(12, [0, 1, 4, 5, 6, 9, 10, 11])
        assert _longest_run(mask.nonzero()[0], mask.size).tolist() == [9, 10, 11, 0, 1]

    def test_tie_goes_to_the_first_run_the_wrapped_one(self):
        # The wrapped run 11, 0, 1 and the later run 5, 6, 7 both hold three.
        mask = self._mask(12, [0, 1, 5, 6, 7, 11])
        assert _longest_run(mask.nonzero()[0], mask.size).tolist() == [11, 0, 1]
        # Without the wrap the first plain run wins the tie.
        mask = self._mask(12, [2, 3, 5, 6])
        assert _longest_run(mask.nonzero()[0], mask.size).tolist() == [2, 3]


def test_mean_equals_np_mean_bit_for_bit():
    # observe takes a chunk's centre as float(np.add.reduce(a)) / a.size.
    rng = np.random.default_rng(19)
    for size in range(1, 401):
        for scale in (1.0, 1e-3, 1e6):
            a = (rng.standard_normal(size) + rng.uniform(-2.0, 2.0)) * scale
            assert np.add.reduce(a) / a.size == np.mean(a)
            assert float(np.add.reduce(a)) / a.size == np.mean(a)


_OBSERVE_CAMERAS = {
    "onboard_2000": onboard_camera(),
    "onboard_1300": onboard_camera(pixels_per_meter=1300.0),
    "infra_crop36": infrastructure_camera((0.0, 0.0, 2.0, 2.0), crop_size=36),
    "infra_crop75": infrastructure_camera((0.0, 0.0, 2.0, 2.0), crop_size=75),
    "infra_clipped": infrastructure_camera((0.85, 0.1, 1.9, 1.35)),
}


def _near_line(track, rng, s, turn, spread=0.03):
    x, y, tan = track.point_at(s)
    return Pose(x + rng.uniform(-spread, spread), y + rng.uniform(-spread, spread),
                tan + turn + rng.uniform(-25.0, 25.0))


def _observe_poses(track, seed):
    """Random, near-line, wrap, reversed and board-edge poses."""
    rng = random.Random(seed)
    length = track.total_length
    poses = [Pose(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 360.0))
             for _ in range(120)]
    poses += [_near_line(track, rng, rng.uniform(0.0, length), 0.0) for _ in range(120)]
    # Within 0.15 m of arclength 0, where the sampling wraps, both ways.
    poses += [_near_line(track, rng, rng.uniform(-0.15, 0.15), rng.choice((0.0, 180.0)), 0.01)
              for _ in range(160)]
    poses += [_near_line(track, rng, rng.uniform(0.0, length), 180.0) for _ in range(80)]
    for _ in range(80):
        edge = rng.choice((0.0, 2.0)) + rng.uniform(-0.06, 0.06)
        along = rng.uniform(0.0, 2.0)
        x, y = (edge, along) if rng.random() < 0.5 else (along, edge)
        poses.append(Pose(x, y, rng.uniform(0.0, 360.0)))
    return poses


def _strip_edge_poses(boxes, camera):
    """Heading-0 poses that put the extreme sample of each sample block's
    box on a strip edge.

    With heading 0, u and v are plain differences, so a block whose only
    candidate samples sit exactly on the edge is found only if the window's
    box reaches the block's box; each pose is also nudged by a few ulps.
    """
    near = camera.look_ahead
    far = near + camera.crop_size / camera.pixels_per_meter
    half_w = camera.image_width / (2.0 * camera.pixels_per_meter)
    poses = []
    for x_lo, x_hi, y_lo, y_hi in boxes:
        mid_x = (x_lo + x_hi) / 2.0
        mid_y = (y_lo + y_hi) / 2.0
        for px, py in ((x_hi - near, mid_y - half_w / 2.0),
                       (x_lo - far, mid_y + half_w / 2.0),
                       (mid_x - (near + far) / 2.0, y_hi + half_w),
                       (mid_x - (near + far) / 2.0, y_lo - half_w)):
            for k in (-2, -1, 0, 1, 2):
                poses.append(Pose(px + k * np.spacing(px), py, 0.0))
                poses.append(Pose(px, py + k * np.spacing(py), 0.0))
    return poses


@pytest.mark.parametrize("camera_name", sorted(_OBSERVE_CAMERAS))
@pytest.mark.parametrize("track_name", sorted(FAST_PATH_TRACKS))
def test_observe_matches_full_mask_oracle(track_name, camera_name):
    track = FAST_PATH_TRACKS[track_name]()
    camera = _OBSERVE_CAMERAS[camera_name]
    poses = _observe_poses(track, 23)
    if camera.kind == "onboard":
        poses += _strip_edge_poses(track.sampling.boxes, camera)
    seen = 0
    for k, pose in enumerate(poses):
        got = observe(camera, track, pose, rng=random.Random(k))
        want = oracles.oracle_observe(camera, track, pose, rng=random.Random(k))
        assert got == want, pose
        seen += want[1].visible
    assert seen > len(poses) // 10


# A rounded rectangle as explicit segments, from halfway round a corner:
# sample 0 lies on an arc, so a window across it meets two curved ends.
ARC_START_TRACK = track_from_config({"kind": "segments", "segments": [
    {"type": "arc", "center": [1.5, 0.5], "radius": 0.3, "start_deg": 315.0, "sweep_deg": 45.0},
    {"type": "straight", "start": [1.8, 0.5], "end": [1.8, 1.5]},
    {"type": "arc", "center": [1.5, 1.5], "radius": 0.3, "start_deg": 0.0, "sweep_deg": 90.0},
    {"type": "straight", "start": [1.5, 1.8], "end": [0.5, 1.8]},
    {"type": "arc", "center": [0.5, 1.5], "radius": 0.3, "start_deg": 90.0, "sweep_deg": 90.0},
    {"type": "straight", "start": [0.2, 1.5], "end": [0.2, 0.5]},
    {"type": "arc", "center": [0.5, 0.5], "radius": 0.3, "start_deg": 180.0, "sweep_deg": 90.0},
    {"type": "straight", "start": [0.5, 0.2], "end": [1.5, 0.2]},
    {"type": "arc", "center": [1.5, 0.5], "radius": 0.3, "start_deg": 270.0, "sweep_deg": 45.0},
]})


def _ulps(x, k):
    """x moved k floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _drawn_frames(draw):
    """(camera, pose, seed): a pose near the line, often within 0.2 m of
    sample 0 either way, facing along or against it or within a few ulps of
    0 or 360 deg; seen by an onboard camera or by a roadside one whose
    coverage edges lie within 0.4 m of the pose."""
    track = ARC_START_TRACK
    s = draw(st.floats(-0.2, 0.2) | st.floats(0.0, track.total_length))
    x, y, tan = track.point_at(s)
    x += draw(st.floats(-0.03, 0.03))
    y += draw(st.floats(-0.03, 0.03))
    if draw(st.booleans()):
        heading = _ulps(draw(st.sampled_from([0.0, 360.0])), draw(st.integers(-4, 4)))
    else:
        heading = tan + draw(st.sampled_from([0.0, 180.0])) + draw(st.floats(-25.0, 25.0))
    noise = draw(st.sampled_from([2.0, 0.0]))
    if draw(st.booleans()):
        camera = onboard_camera(pixels_per_meter=draw(st.sampled_from([2000.0, 1300.0])),
                                noise_px=noise)
    else:
        left, below, right, above = (draw(st.floats(1e-3, 0.4) | st.just(0.4)) for _ in range(4))
        camera = infrastructure_camera((x - left, y - below, x + right, y + above), noise_px=noise)
    return camera, Pose(x, y, heading), draw(st.integers(0, 2 ** 32))


@settings(max_examples=400)
@given(_drawn_frames())
def test_drawn_frames_match_full_mask_oracle(frame):
    camera, pose, seed = frame
    rng, twin = random.Random(seed), random.Random(seed)
    got = observe(camera, ARC_START_TRACK, pose, rng=rng)
    assert got == oracles.oracle_observe(camera, ARC_START_TRACK, pose, rng=twin)
    assert rng.getstate() == twin.getstate()


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _lossy_blackout(scenario):
    """The lossy, blacked-out variant that tests/test_golden.py pins."""
    outage = ProbabilisticOutage(interval=0.4, threshold=35)
    scenario.sensors = [
        dataclasses.replace(s, channel_loss=0.2, channel_delay=(0.0, 0.03), outage=outage)
        for s in scenario.sensors
    ]
    return scenario


def test_observe_matches_full_mask_oracle_on_real_traffic(monkeypatch):
    # Every frame of three 10 s runs against the full-mask oracle, from the
    # camera, pose and RNG state observe sees; the RNG must end in the same
    # state as the oracle's twin, so the jitter made the same draws.
    frames = []
    observe_in_run = runner.observe

    def checked(camera, track, pose, layout, rng):
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = observe_in_run(camera, track, pose, layout, rng)
        assert got == oracles.oracle_observe(camera, track, pose, layout, twin), pose
        assert rng.getstate() == twin.getstate()
        frames.append(got[1].visible)
        return got

    split = []
    longest_run = perception._longest_run

    def counted(*args):
        split.append(args)
        return longest_run(*args)

    monkeypatch.setattr(runner, "observe", checked)
    monkeypatch.setattr(perception, "_longest_run", counted)
    for name, variant in (("combined_weighted", None), ("baseline_infra", None),
                          ("combined_weighted", _lossy_blackout)):
        scenario = load_scenario(SCENARIOS / f"{name}.yaml")
        scenario.duration = 10.0
        if variant is not None:
            variant(scenario)
        run(scenario)
    # Both ways of reading a run ran: the slice for one stretch of the
    # mask, the index array for a joined or split one.
    assert len(frames) > 1000
    assert 0 < len(split) < sum(frames)


def test_a_finished_runs_track_can_be_collected():
    # Per-track state lives on the track, so nothing keeps an old one alive.
    scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
    scenario.duration = 0.5
    result = run(scenario)
    assert result.rows
    track = weakref.ref(scenario.track)
    del scenario
    gc.collect()
    assert track() is None
