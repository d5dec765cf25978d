"""Relations between runs: what one run's outputs say about another's.

Each relation states a design rule of the tick loop, checked on drawn
scenarios whose channels lose and delay datagrams by their seeded draws:

- Prefix.  The end of the clock is read only as a stop, so a run cut to D
  seconds is the part before D of a longer run, crash or no crash.
- Dead sensor.  Each sensor draws from its own seeded streams, so a sensor
  whose channel loses every datagram changes no file but its own
  error_<id>.csv and summary entry.  Its due ticks run in full where the
  base run coasted, so this also checks that coasting is exact.
- Never-dark outage.  An outage that never goes dark changes no row or
  series; it only adds post_outage_* summary entries.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fusedrive.runner import run
from fusedrive.scenario import scenario_from_dict

from test_drive import _CAMERAS, _GAINS, _ONBOARD, _scenario_cfg, _spans


@st.composite
def _lossy_cfg(draw, room=False):
    """A drawn scenario whose every channel draws loss and delay: a loss
    below 1 and a delay range.  With room, the drive log has a slot free."""
    base = _scenario_cfg()
    cfg = draw(base.filter(lambda c: len(c["sensors"]) < 3) if room else base)
    for sensor in cfg["sensors"]:
        lo = draw(st.sampled_from([0.0, 0.005, 0.01]))
        sensor["channel"] = {"loss": draw(st.sampled_from([0.0, 0.2, 0.5])),
                             "delay": [lo, lo + draw(st.sampled_from([0.02, 0.1]))]}
    return cfg


def _never_dark(ts):
    """Outages that never go dark: a draw of 1..100 is never below 0 or 1,
    and a window of duration 0 holds no tick.  Threshold 1 is drawn most,
    since a dark rule off by one would go dark on 1 draw in 100."""
    return st.one_of(
        st.builds(lambda interval, threshold: {"kind": "probabilistic", "interval": interval,
                                               "threshold": threshold},
                  _spans(ts, [0.02, 0.1]), st.sampled_from([1, 1, 0])),
        st.builds(lambda period: {"kind": "periodic", "period": period, "duration": 0.0},
                  _spans(ts, [0.3, 1.0])))


def _written(scenario, path):
    """The run's output files as bytes, summary.json parsed."""
    run(scenario, path)
    files = {file.name: file.read_bytes() for file in path.iterdir()}
    return files, json.loads(files.pop("summary.json"))


@settings(max_examples=60)
@given(cfg=_lossy_cfg(), data=st.data())
def test_a_cut_run_is_the_prefix_of_a_longer_one(cfg, data):
    ts = cfg["timestep"]
    ticks = round(cfg["duration"] / ts)
    cut = data.draw(st.integers(1, ticks - 1), label="cut")
    long = run(scenario_from_dict(cfg))
    short = run(scenario_from_dict(dict(cfg, duration=cut * ts)))
    end = (cut - 0.5) * ts  # between the short run's last tick and the next
    if long.crash_time is not None and long.crash_time < end:
        # The run crashed before the cut: the short run is the same run.
        assert short.crash_time == long.crash_time
        assert list(short.rows) == list(long.rows)
        assert short.summaries == long.summaries
    else:
        assert short.completed and short.run_end == cut * ts
        # Every field of every record, not only the formatted rows.
        assert list(short.rows.records()) == [r for r in long.rows.records() if r[0] < end]
    assert short.series.keys() == long.series.keys()
    for name, series in long.series.items():
        kept = sum(t < end for t in series.times)
        assert short.series[name].times == series.times[:kept]
        assert short.series[name].values == series.values[:kept]


@settings(max_examples=50)
@given(cfg=_lossy_cfg(room=True), data=st.data())
def test_a_dead_sensor_changes_only_its_own_outputs(cfg, data):
    ts = cfg["timestep"]
    kinds = [s["kind"] for s in cfg["sensors"]]
    free = ([_ONBOARD] if "onboard" not in kinds else []) + \
        ([_CAMERAS[0]] if kinds.count("infrastructure") < 2 else [])
    dead = dict(data.draw(st.sampled_from(free), label="kind"), id="dead",
                rate_hz=data.draw(st.floats(0.5, 1.0 / ts), label="rate_hz"),
                channel={"loss": 1.0})
    gains = data.draw(_GAINS, label="gains")
    if gains is not None:
        dead["gains"] = gains
    if any("outage" in s for s in cfg["sensors"]):
        # Its own draws for an outage that never goes dark: the windows and
        # so the post_outage_* entries stay the base run's.
        outage = data.draw(st.one_of(st.none(), _never_dark(ts).filter(
            lambda o: o["kind"] == "probabilistic")), label="outage")
        if outage is not None:
            dead["outage"] = outage
    with tempfile.TemporaryDirectory() as root:
        base_files, base_summary = _written(scenario_from_dict(cfg), Path(root, "base"))
        files, summary = _written(
            scenario_from_dict(dict(cfg, sensors=[*cfg["sensors"], dead])), Path(root, "dead"))
    assert "error_dead" in summary["metrics"]
    del summary["metrics"]["error_dead"]
    assert summary == base_summary
    assert files.pop("error_dead.csv").startswith(b"time,error_dead\n")
    assert files == base_files


@settings(max_examples=60)
@given(cfg=_lossy_cfg(), data=st.data())
def test_a_never_dark_outage_only_adds_post_outage_entries(cfg, data):
    sensors = [{key: value for key, value in s.items() if key != "outage"}
               for s in cfg["sensors"]]
    base = run(scenario_from_dict(dict(cfg, sensors=sensors)))
    for sensor in sensors:
        sensor["outage"] = data.draw(_never_dark(cfg["timestep"]), label="outage")
    dark = run(scenario_from_dict(dict(cfg, sensors=sensors)))
    assert list(dark.rows) == list(base.rows)
    assert dark.crash_time == base.crash_time
    assert dark.series.keys() == base.series.keys()
    for name, series in base.series.items():
        assert (dark.series[name].times, dark.series[name].values) == \
            (series.times, series.values)
    added = {f"post_outage_{name}" for name in ("correction", "deviation")}
    assert dark.summaries.keys() == base.summaries.keys() | added
    assert {name: dark.summaries[name] for name in base.summaries} == base.summaries
