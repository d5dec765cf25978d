"""fusedrive benchmark: simulated time per host time, end to end and layer by layer.

    python3 perfbench/run.py --workload fused_run --seed 1 --seconds 30 --trace 0

Runs one workload in this process and thread for about --seconds of host
time; `all`, the default, runs each workload in turn in a child process of
its own.  Each unit of work starts from a fresh `load_scenario` whose seed
is --seed.  Every unit's outputs are checked
against the digests pinned in digests.json; for a seed with none pinned the
digest is printed and every unit must reproduce the first one.

--trace 0 reports the end-to-end metrics with tracing off.  A fixed
reference kernel (reference.py) is timed before and after every unit; the
bounded throughput is simulated seconds per reference-kernel time, which
cancels most of the drift in the machine's speed, and the raw host-second
figures are printed beside it.

--trace 1 alternates untraced and traced units and reports the per-layer
metrics; the deterministic counters must repeat exactly between units, and
the traced units' outputs must match the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import DETERMINISTIC, END_TO_END, PER_LAYER, RESULT_COUNTERS, SOURCE, UNBOUNDED
from reference import reference_s
from tracer import Tracer, write_spans
from workloads import OUT_ROOT, WORKLOADS, import_fusedrive

PINS = Path(__file__).resolve().parent / "digests.json"
# Set-up takes about 15 ms, so it is sampled several times beside every unit
# and reported as a median.
SETUP_PER_UNIT = 5


def load_pins(path=PINS):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest_id(digest) -> str:
    return hashlib.sha256(json.dumps(digest, sort_keys=True).encode("utf-8")).hexdigest()


def mismatched_runs(expected, actual) -> int:
    """How many runs of a unit differ from the expected digest."""
    if isinstance(actual, list):
        if not isinstance(expected, list) or len(expected) != len(actual):
            return len(actual)
        return sum(1 for e, a in zip(expected, actual) if e != a)
    return 0 if expected == actual else 1


class Measurement:
    """Everything one invocation measured on one workload."""

    def __init__(self, workload, seed, pinned):
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.expected = pinned
        self.setups = []
        self.units = []          # untraced Unit objects
        self.ref_s = []          # reference-kernel time beside each untraced unit
        self.traced = []         # (Unit, totals) of traced units
        self.attempted = 0
        self.failed = 0
        self.inconsistent = []   # descriptions of counters that did not repeat
        self.absent = []
        self.spans = None

    def setup(self, fd):
        t0 = time.perf_counter()
        scenario = self.workload.setup(fd, self.seed)
        self.setups.append(time.perf_counter() - t0)
        return scenario

    def run_unit(self, fd, tracer=None):
        n = self.workload.runs_per_unit
        self.attempted += n
        gc.collect()
        try:
            if tracer is None:
                before = reference_s()
                scenarios = [self.setup(fd) for _ in range(SETUP_PER_UNIT)]
                unit = self.workload.unit(fd, scenarios[-1])
                ref_s = (before + reference_s()) / 2
            else:
                with tracer:
                    unit = self.workload.unit(fd, self.workload.setup(fd, self.seed))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += n
            return None
        if self.expected is None:
            self.expected = unit.digest
        self.failed += mismatched_runs(self.expected, unit.digest)
        if tracer is None:
            self.units.append(unit)
            self.ref_s.append(ref_s)
        else:
            totals, spans = tracer.take()
            totals.update(unit.counters)
            self.traced.append((unit, totals))
            self.absent = tracer.absent
            if self.spans is None:
                self.spans = spans
        first = (self.units or [u for u, _ in self.traced])[0]
        for name in RESULT_COUNTERS:
            if unit.counters[name] != first.counters[name]:
                self.inconsistent.append(
                    f"{name}: {unit.counters[name]} != {first.counters[name]}")
        return unit

    def end_to_end(self):
        units = self.units
        if not units:
            return {}
        return {
            "sim_s_per_ref": statistics.median(
                u.sim_s / u.wall_s * ref for u, ref in zip(units, self.ref_s)),
            "sim_s_per_s": statistics.median(u.sim_s / u.wall_s for u in units),
            "wall_s": statistics.median(u.wall_s for u in units),
            "ref_s": statistics.median(self.ref_s),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self):
        if not self.traced:
            return {}
        rows = [totals for _, totals in self.traced]
        for totals in rows[1:]:
            for name in DETERMINISTIC:
                source = SOURCE.get(name, name)
                if totals.get(source) != rows[0].get(source):
                    self.inconsistent.append(
                        f"{name}: {totals.get(source)} != {rows[0].get(source)} between traced units")
        out = {}
        for name, unit in PER_LAYER:
            if name == "wire.delivery_ratio":
                sent = rows[0].get("wire.send_calls")
                delivered = rows[0].get("wire.datagrams_delivered")
                if sent:
                    out[name] = delivered / sent
            elif name == "trace.overhead_s":
                if self.units:
                    out[name] = (statistics.median(u.wall_s for u, _ in self.traced)
                                 - statistics.median(u.wall_s for u in self.units))
            elif SOURCE.get(name, name) in rows[0]:
                values = [totals[SOURCE.get(name, name)] for totals in rows]
                out[name] = values[0] if unit == "count" else statistics.median(values)
        return out


def measure(fd, workload, seed, seconds, trace, pins):
    """Run units of one workload for about `seconds`; returns the Measurement."""
    m = Measurement(workload, seed, pins.get(workload.name, {}).get(str(seed)))
    start = time.perf_counter()
    while True:
        m.run_unit(fd)
        if trace:
            m.run_unit(fd, Tracer())
        if time.perf_counter() - start >= seconds:
            break
    return m


def report(m, trace):
    """Print metrics by name with units; returns the JSON metrics dict."""
    name = m.workload.name
    metrics = {}
    values, table = (m.per_layer(), PER_LAYER) if trace else (m.end_to_end(), END_TO_END)
    for metric, unit in table:
        if metric in values:
            print(f"{name}: {metric} = {values[metric]:.6g} {unit}")
            metrics[metric] = {"value": values[metric], "unit": unit}
    if not trace:
        for metric, unit in UNBOUNDED:
            if metric in values:
                print(f"{name}: {metric} = {values[metric]:.6g} {unit} (no bound)")
    print(f"{name}: runs_attempted = {m.attempted} count")
    print(f"{name}: runs_failed = {m.failed} count")
    if trace and m.units:
        counters = m.units[0].counters
        print(f"{name}: untraced counters " + json.dumps(counters, sort_keys=True))
    if m.absent:
        print(f"{name}: absent patch points (metrics not reported): {', '.join(m.absent)}")
    for line in m.inconsistent:
        print(f"{name}: counter did not repeat: {line}")
    if m.pinned is None and m.expected is not None:
        print(f"{name}: no pinned digest for seed {m.seed}; digest {digest_id(m.expected)}")
    return metrics


def run_all(args, names):
    """Run each workload in a child process of its own, one after another.

    peak_rss_mb is the high-water mark of a whole process, so each workload
    needs a process to itself for the figure to be its own.  The children's
    metrics come back under "<workload>.<metric>".
    """
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        correct = correct and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None, workloads=None, pins=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = WORKLOADS if workloads is None else workloads
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        line = run_all(args, list(workloads))
        print(json.dumps(line))
        return line
    fd = import_fusedrive()
    pins = load_pins() if pins is None else pins
    m = measure(fd, workloads[args.workload], args.seed, args.seconds, bool(args.trace), pins)
    metrics = report(m, bool(args.trace))
    if args.trace and m.spans is not None:
        OUT_ROOT.mkdir(exist_ok=True)
        write_spans(OUT_ROOT / f"spans-{m.workload.name}-seed{args.seed}.csv", m.spans)
    line = {
        "correct": m.failed == 0 and not m.inconsistent,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return line


if __name__ == "__main__":
    main()
