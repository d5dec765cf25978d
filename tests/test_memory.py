"""What a run keeps in memory: its drive log and metric series are typed
columns (fusion.DriveLog, metrics.SampleSeries), a few bytes per number.

The bytes a RunResult keeps are read under tracemalloc: the traced memory
with the result held, less the traced memory once it is dropped.
"""

import gc
import tracemalloc
from pathlib import Path

from fusedrive.runner import run
from fusedrive.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_a_result_keeps_at_most_120_bytes_per_drive_log_record():
    # Three sensors for 50 s: 2,556 records and 5,444 series samples.  Kept as
    # tuples of a command and boxed numbers, with the samples in lists, they
    # cost about 340 bytes per record, at 50 s as at 500 s.  Under tracemalloc
    # the run takes some ten times as long, so the run is no longer.
    scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
    scenario.seed = 7
    scenario.duration = 50.0
    scenario.track.samples()  # built before the trace, and kept by the scenario
    tracemalloc.start()
    try:
        result = run(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = len(result.rows)
        samples = sum(map(len, result.series.values()))
        del result
        gc.collect()
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 2500 and samples > 5000, (records, samples)
    assert kept / records <= 120, f"{kept} bytes for {records} records and {samples} samples"
