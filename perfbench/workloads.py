"""The benchmark's workloads: fresh set-up, one timed unit of work, its digest.

Every workload reaches the simulator only through its public entry points
(`scenario.load_scenario`, `runner.run`, `sweep.sweep`), looked up on the
module at call time so that the tracer's patches take effect.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT_ROOT = ROOT / ".bench_out"


def import_fusedrive():
    """Import fusedrive from this checkout's src/ and nowhere else."""
    init = SRC / "fusedrive" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, str(SRC))
    import fusedrive  # noqa: F401
    import fusedrive.faults
    import fusedrive.runner
    import fusedrive.scenario
    import fusedrive.sweep

    if Path(fusedrive.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {fusedrive.__file__}, not {init}")
    return fusedrive


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of the simulated outcome of one in-memory run."""
    blob = json.dumps(
        {"summaries": result.summaries, "completed": result.completed,
         "crash_time": result.crash_time},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    wall_s: float
    sim_s: float
    digest: object            # per-file sha256 dict, or list of per-run digests
    counters: dict = field(default_factory=dict)


def _row_counters(results):
    rows = sum(len(r.rows) for r in results)
    degenerate = sum(1 for r in results for row in r.rows if row.endswith(",-1"))
    return {"fusion.rows": rows, "fusion.degenerate_rows": degenerate}


class ScenarioRun:
    """One `runner.run` of a shipped scenario, all outputs written to a fresh directory."""

    runs_per_unit = 1

    def __init__(self, name, scenario_file, duration=None):
        self.name = name
        self.scenario_file = SCENARIOS / scenario_file
        self.duration = duration

    def setup(self, fd, seed):
        scenario = fd.scenario.load_scenario(self.scenario_file)
        scenario.track.samples()
        scenario.seed = seed
        if self.duration is not None:
            scenario.duration = self.duration
        return scenario

    def unit(self, fd, scenario) -> Unit:
        OUT_ROOT.mkdir(exist_ok=True)
        fresh = tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT_ROOT)
        out_dir = os.path.join(fresh, "out")
        try:
            t0 = time.perf_counter()
            result = fd.runner.run(scenario, out_dir)
            wall = time.perf_counter() - t0
            names = sorted(os.listdir(out_dir))
            digest = {n: sha256_file(os.path.join(out_dir, n)) for n in names}
            written = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
        finally:
            shutil.rmtree(fresh, ignore_errors=True)
        counters = _row_counters([result])
        counters["runner.bytes_written"] = written
        return Unit(wall, result.run_end, digest, counters)


class BlackoutGrid:
    """A `sweep.sweep` over outage thresholds on a lossy, delayed channel, kept in memory.

    One seeded repetition per threshold keeps a grid near 4 s of host time,
    so that the reference kernel timed before and after it still tracks the
    machine's speed.
    """

    def __init__(self, name, thresholds, duration=None):
        self.name = name
        self.thresholds = tuple(thresholds)
        self.duration = duration
        self.runs_per_unit = len(self.thresholds)

    def setup(self, fd, seed):
        base = fd.scenario.load_scenario(SCENARIOS / "combined_weighted.yaml")
        base.track.samples()
        base.seed = seed
        if self.duration is not None:
            base.duration = self.duration
        for sensor in base.sensors:
            sensor.outage = fd.faults.ProbabilisticOutage(interval=0.4, threshold=0)
            sensor.channel_loss = 0.2
            sensor.channel_delay = (0.0, 0.03)
        return base

    def unit(self, fd, base) -> Unit:
        spec = fd.sweep.SweepSpec("outage_threshold", self.thresholds, 1)
        t0 = time.perf_counter()
        table = fd.sweep.sweep(base, spec)
        wall = time.perf_counter() - t0
        results = [r for per_value in table.runs for r in per_value]
        counters = _row_counters(results)
        counters["runner.bytes_written"] = 0
        return Unit(wall, sum(r.run_end for r in results),
                    [result_digest(r) for r in results], counters)


# Thresholds run from survivable (20, 35) to crashing (50, 65).
WORKLOADS = {
    w.name: w
    for w in (
        ScenarioRun("fused_run", "combined_weighted.yaml"),
        ScenarioRun("onboard_run", "baseline_onboard.yaml"),
        BlackoutGrid("blackout_grid", (20, 35, 50, 65)),
    )
}
