"""Self-test of the benchmark on shortened runs.

    python3 perfbench/test_bench.py

Checks that every named metric is printed, that the counters repeat exactly,
that the tracer restores every function it wrapped, and that a perturbed
output is counted as a failed run.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import BlackoutGrid, ScenarioRun, import_fusedrive  # noqa: E402

FD = import_fusedrive()

SHORT = {
    "fused_run": ScenarioRun("fused_run", "combined_weighted.yaml", duration=2.0),
    "onboard_run": ScenarioRun("onboard_run", "baseline_onboard.yaml", duration=2.0),
    "blackout_grid": BlackoutGrid("blackout_grid", (20, 65), duration=6.0),
}


def _main(*argv, pins=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        line = run.main(["--seconds", "0", *argv], workloads=SHORT,
                        pins={} if pins is None else pins)
    return out.getvalue(), line


def _attributes():
    """Every function-valued attribute of fusedrive modules and their classes."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("fusedrive"):
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                seen[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("fusedrive"):
                for cattr, cvalue in vars(value).items():
                    seen[(mod_name, attr, cattr)] = cvalue
    return seen


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_printed(self):
        for trace, table in (("0", END_TO_END), ("1", PER_LAYER)):
            for name in SHORT:
                text, line = _main("--workload", name, "--trace", trace)
                self.assertTrue(line["correct"], text)
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(set(line["metrics"]), {m for m, _ in table}, text)
                for metric, unit in table:
                    self.assertIn(f"{name}: {metric} = ", text)
                    self.assertEqual(line["metrics"][metric]["unit"], unit)
                self.assertIn(f"{name}: runs_attempted = ", text)
                self.assertIn(f"{name}: runs_failed = 0 count", text)
                self.assertEqual(json.loads(text.strip().splitlines()[-1]), line)

    def test_all_runs_each_workload_in_its_own_process(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            line = run.main(["--workload", "all", "--seconds", "0"])
        self.assertTrue(line["correct"], out.getvalue())
        self.assertEqual(line["failed"], 0)
        self.assertEqual(set(line["metrics"]),
                         {f"{w}.{m}" for w in run.WORKLOADS for m, _ in END_TO_END})
        self.assertEqual(json.loads(out.getvalue().strip().splitlines()[-1]), line)

    def test_counters_repeat_exactly(self):
        for workload in SHORT.values():
            first = run.measure(FD, workload, 3, 0, True, {})
            second = run.measure(FD, workload, 3, 0, True, {})
            a, b = first.per_layer(), second.per_layer()
            self.assertEqual(first.inconsistent + second.inconsistent, [])
            self.assertEqual({k: a[k] for k in DETERMINISTIC}, {k: b[k] for k in DETERMINISTIC})
            self.assertEqual(first.expected, second.expected)
            # The untraced and traced units of one measurement agree too.
            untraced, (traced, _) = first.units[0], first.traced[0]
            self.assertEqual(untraced.digest, traced.digest)
            self.assertEqual(untraced.counters, traced.counters)

    def test_wrappers_restored(self):
        before = _attributes()
        with Tracer() as tracer:
            self.assertEqual(tracer.absent, [])
            self.assertIsNot(FD.runner.observe, before[("fusedrive.runner", "observe")])
            self.assertIs(FD.runner.observe.__wrapped__, before[("fusedrive.perception", "observe")])
            SHORT["blackout_grid"].unit(FD, SHORT["blackout_grid"].setup(FD, 1))
        after = _attributes()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_missing_patch_point_is_absent(self):
        targets = TARGETS + (("gone.layer", "fusedrive.world", "Track.no_such_method", None, None),
                             ("gone.module", "fusedrive.no_such_module", "f", None, None))
        with Tracer(targets) as tracer:
            workload = SHORT["onboard_run"]
            workload.unit(FD, workload.setup(FD, 1))
            totals, _ = tracer.take()
        self.assertEqual(tracer.absent, ["gone.layer", "gone.module"])
        self.assertGreater(totals["world.lateral_deviation_calls"], 0)

    def test_perturbed_output_counted_as_failed(self):
        pins = {}
        for name, workload in SHORT.items():
            pins[name] = {"5": run.measure(FD, workload, 5, 0, False, {}).expected}
        original = FD.runner.assemble_result

        def perturbed(*args, **kwargs):
            result = original(*args, **kwargs)
            result.summaries["deviation"]["mean_abs"] += 1e-9
            return result

        FD.runner.assemble_result = perturbed
        try:
            for name in SHORT:
                text, line = _main("--workload", name, "--seed", "5", pins=pins)
                self.assertFalse(line["correct"])
                self.assertEqual(line["failed"], line["attempted"])
                self.assertIn(f"{name}: runs_failed = {line['attempted']} count", text)
        finally:
            FD.runner.assemble_result = original
        for name in SHORT:
            text, line = _main("--workload", name, "--seed", "5", pins=pins)
            self.assertTrue(line["correct"], text)
            self.assertNotIn("no pinned digest", text)

    def test_unpinned_seed_prints_digest(self):
        text, line = _main("--workload", "onboard_run", "--seed", "123456")
        self.assertTrue(line["correct"])
        self.assertIn("onboard_run: no pinned digest for seed 123456; digest ", text)


if __name__ == "__main__":
    unittest.main()
