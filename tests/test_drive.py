"""The tick loop skips only work whose result is never read, and that is exact.

`runner.run` feeds the crash detector a distance bound instead of the
exact centreline search on ticks that deliver nothing and stay clear of the
crash threshold, and it coasts (steps the vehicle alone) through ticks with
no sensor due and no datagram due; and its simulated channel carries each
command, not the command's text.  Every case here runs `run` and the
oracle's own loop, which runs every tick in full, searches on each and
carries text, and compares the results with ==.  The cases push the bound to fail often
(tiny thresholds, no hold, long gaps between deliveries, crashing runs, a
start far off the line) and put events where coasting must stop exactly:
deliveries landing on tick boundaries, no deliveries at all, a sensor due
every tick, and straight-line driving off the track.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedrive import runner
from fusedrive.control import PidGains
from fusedrive.faults import ProbabilisticOutage
from fusedrive.fusion import POLICIES
from fusedrive.scenario import load_scenario, scenario_from_dict
from fusedrive.sweep import apply_axis

from oracles import assert_reaped, oracle_drive, use_cpus

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _load(name, duration=20.0, **fields):
    scenario = load_scenario(SCENARIOS / f"{name}.yaml")
    scenario.duration = duration
    for key, value in fields.items():
        setattr(scenario, key, value)
    return scenario


def _each_sensor(scenario, **fields):
    """The scenario with the same config fields replaced on every sensor."""
    scenario.sensors = [dataclasses.replace(s, **fields) for s in scenario.sensors]
    return scenario


def _one_hz(name, **fields):
    return _each_sensor(_load(name, duration=60.0, **fields), rate_hz=1.0)


def _blackout_grid(outage_threshold):
    """combined_weighted on a lossy, delayed channel under random blackouts."""
    base = _load("combined_weighted", duration=100.0)
    outage = ProbabilisticOutage(interval=0.4, threshold=0)
    base.sensors = [
        dataclasses.replace(s, channel_loss=0.2, channel_delay=(0.0, 0.03), outage=outage)
        for s in base.sensors
    ]
    return apply_axis(base, "outage_threshold", outage_threshold)


def _start_off_line(scenario, x, y, heading):
    """Start the vehicle at (x, y, heading) instead of on the centreline."""
    scenario.track.point_at = lambda s: (x, y, heading)
    return scenario


# The thresholds and holds are chosen so that the runs crash part-way, after
# many ticks on which the bound reaches the threshold; two complete.
CASES = {
    "onboard_threshold_0.002": lambda: _load("baseline_onboard", crash_threshold=0.002),
    "onboard_threshold_0.01": lambda: _load("baseline_onboard", crash_threshold=0.01),
    "weighted_threshold_0.002": lambda: _load("combined_weighted", crash_threshold=0.002),
    "weighted_threshold_0.01": lambda: _load("combined_weighted", crash_threshold=0.01),
    "onboard_hold_0": lambda: _load("baseline_onboard", crash_threshold=0.005, crash_hold=0.0),
    "onboard_hold_one_tick": lambda: _load("baseline_onboard", crash_threshold=0.005,
                                           crash_hold=0.005),
    "weighted_hold_0": lambda: _load("combined_weighted", crash_threshold=0.005,
                                     crash_hold=0.0),
    "onboard_1hz": lambda: _one_hz("baseline_onboard"),
    "onboard_1hz_threshold_0.5": lambda: _one_hz("baseline_onboard", crash_threshold=0.5),
    "weighted_1hz": lambda: _one_hz("combined_weighted"),
    "blackout_grid_50": lambda: _blackout_grid(50),
    "blackout_grid_65": lambda: _blackout_grid(65),
    "start_off_line_crash": lambda: _start_off_line(_load("baseline_onboard"),
                                                    1.9, 0.1, 45.0),
    "start_off_line_wide_threshold": lambda: _start_off_line(
        _load("combined_weighted", crash_threshold=1.0), 0.4, 0.4, 200.0),
    # Delays of whole ticks: each delivery is due on a tick boundary, within
    # the merge's 1e-12 slack.
    "weighted_delay_0.01": lambda: _each_sensor(_load("combined_weighted"),
                                                channel_delay=0.01),
    "weighted_delay_0.015": lambda: _each_sensor(_load("combined_weighted"),
                                                 channel_delay=0.015),
    "weighted_all_lost": lambda: _each_sensor(_load("combined_weighted"), channel_loss=1.0),
    "onboard_200hz": lambda: _each_sensor(_load("baseline_onboard"), rate_hz=200.0),
    # Equal powers drive straight (omega 0) off the line until the crash.
    "weighted_gains_0": lambda: _each_sensor(_load("combined_weighted"), gains=PidGains()),
}
COMPLETING = {"onboard_threshold_0.01", "start_off_line_wide_threshold",
              "weighted_delay_0.01", "weighted_delay_0.015", "weighted_all_lost",
              "onboard_200hz"}


def _run_both(scenario):
    return runner.run(scenario), oracle_drive(scenario)


def _assert_same(actual, expected):
    assert list(actual.rows) == list(expected.rows)
    assert actual.series.keys() == expected.series.keys()
    for name, series in expected.series.items():
        assert actual.series[name].times == series.times, name
        assert actual.series[name].values == series.values, name
    assert actual.summaries == expected.summaries
    assert actual.completed == expected.completed
    assert actual.crash_time == expected.crash_time


@pytest.mark.parametrize("case", sorted(CASES))
def test_skipping_ground_truth_changes_nothing(case):
    actual, expected = _run_both(CASES[case]())
    _assert_same(actual, expected)
    assert actual.completed == (case in COMPLETING)


_TRACKS = st.sampled_from([
    {"kind": "circle"},
    {"kind": "rounded_rectangle", "center": [1.0, 1.0], "straight": 1.0, "corner_radius": 0.3},
])
_ONBOARD = {"id": "pi", "kind": "onboard", "camera": {"pixels_per_meter": 1300}}
_CAMERAS = [{"id": f"cam{i}", "kind": "infrastructure",
             "camera": {"coverage": [0.0, 0.0, 2.0, 2.0], "pixels_per_meter": 300,
                        "crop_size": 36}} for i in range(2)]
# Timesteps the loader accepts (each tiles a second); half the draws keep 5 ms.
_CLOCKS = st.one_of(st.just(0.005), st.sampled_from([0.001, 0.002, 0.01, 1 / 3]))


def _delays(ts):
    return st.one_of(
        st.sampled_from([0.0, ts, 2 * ts, 3 * ts, 0.0123, 0.05]),  # some on tick multiples
        st.tuples(st.sampled_from([0.0, 0.005, 0.01]), st.sampled_from([0.0, 0.02, 0.1]))
        .map(lambda lo_hi: [lo_hi[0], lo_hi[0] + lo_hi[1]]))


def _spans(ts, spans):
    """The spans a clock of ts admits: those of spans no shorter than ts, and ts."""
    return st.sampled_from(sorted({ts, *(span for span in spans if span >= ts)}))


def _outages(ts):
    return st.one_of(
        st.none(),
        st.builds(lambda period, share: {"kind": "periodic", "period": period,
                                         "duration": period * share},
                  _spans(ts, [0.3, 1.0, 3.0]), st.sampled_from([0.0, 0.3, 1.0])),
        st.builds(lambda interval, threshold: {"kind": "probabilistic", "interval": interval,
                                               "threshold": threshold},
                  _spans(ts, [0.1, 0.4]), st.integers(0, 100)))


_GAINS = st.one_of(st.none(), st.fixed_dictionaries(
    {key: st.sampled_from([0.0, 1.0, 1e300]) for key in ("kp", "ki", "kd")}))


@st.composite
def _sensor(draw, base, ts):
    sensor = dict(base,
                  rate_hz=draw(st.floats(0.5, 1.0 / ts)),  # at most one frame a tick
                  channel={"loss": draw(st.sampled_from([0.0, 0.2, 1.0])),
                           "delay": draw(_delays(ts))})
    for key, strategy in (("outage", _outages(ts)), ("gains", _GAINS)):
        value = draw(strategy)
        if value is not None:
            sensor[key] = value
    return sensor


@st.composite
def _scenario_cfg(draw):
    ts = draw(_CLOCKS)
    bases = draw(st.sampled_from([[_ONBOARD], _CAMERAS[:1], [_ONBOARD, *_CAMERAS]]))
    return {
        "seed": draw(st.integers(0, 2 ** 31)),
        # 100 to 1,000 ticks on every clock
        "duration": draw(st.floats(0.5, 5.0)) * (ts / 0.005),
        "timestep": ts,
        "track": draw(_TRACKS),
        "fusion": draw(st.sampled_from(POLICIES)),
        "sensors": [draw(_sensor(base, ts)) for base in bases],
        "start_arclength": draw(st.floats(0.0, 10.0)),
        "crash": {"threshold_m": draw(st.floats(0.001, 0.25)),
                  "hold_s": draw(st.sampled_from([0.0, 0.005, 0.5]))},
    }


@settings(max_examples=80)
@given(cfg=_scenario_cfg())
def test_drawn_scenarios_match_the_full_loop(cfg):
    # Any scenario a file can hold, on any clock the loader accepts: the
    # coasting, bound-fed loop and the oracle that runs, searches and carries
    # text on every tick agree.
    actual, expected = _run_both(scenario_from_dict(cfg))
    _assert_same(actual, expected)


@settings(max_examples=30)
@given(cfg=_scenario_cfg(), chunk=st.integers(1, 64))
def test_drawn_scenarios_write_the_same_bytes_on_either_formatter_host(cfg, chunk):
    # One usable CPU formats in this process; two fork a formatter once the
    # drive log holds a chunk of records, here shrunk to lengths the drawn
    # runs reach, with no bound on the frames a forking run must take.
    written = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "CHUNK", chunk)
        mp.setattr(runner, "FORK_FRAMES", 0)
        for cpus in (1, 2):
            forked = use_cpus(mp, cpus)
            result = runner.run(scenario_from_dict(cfg), Path(tmp) / str(cpus))
            assert len(forked) == (cpus == 2 and len(result.rows) >= chunk)
            written[cpus] = {p.name: p.read_bytes() for p in (Path(tmp) / str(cpus)).iterdir()}
    if forked:
        assert_reaped(forked)
    assert written[1] == written[2]


def test_ground_truth_searched_on_delivery_ticks_and_few_others(monkeypatch):
    scenario = load_scenario(SCENARIOS / "baseline_onboard.yaml")
    searched = []          # the tick of each centreline search
    tick = [0]             # the tick of the latest merge
    search, merge = runner.lateral_deviation, runner.merge_deliveries

    def counted_search(track, pose, segment):
        searched.append(tick[0])
        return search(track, pose, segment)

    def counted_merge(channels, now):
        # Every tick that can search merges first; coasted ticks do neither.
        tick[0] = round(now / scenario.timestep)
        return merge(channels, now)

    monkeypatch.setattr(runner, "lateral_deviation", counted_search)
    monkeypatch.setattr(runner, "merge_deliveries", counted_merge)
    result = runner.run(scenario)
    assert result.completed
    delivery_ticks = {round(t / scenario.timestep) for t in result.series["deviation"].times}
    assert len(delivery_ticks) > 1000
    assert delivery_ticks <= set(searched)
    assert len(searched) == len(set(searched))
    assert len(searched) < scenario.n_ticks() / 4
