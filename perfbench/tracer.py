"""Span tracer that wraps the simulator's layer functions from outside.

Each traced function is found by identity: every attribute of a loaded
`fusedrive.*` module, or of a class defined there, that *is* the original
function is replaced by a wrapper, so names imported with `from .x import f`
are covered too.  Wrappers record (name, start, end, parent) spans in flat
arrays; `restore()` puts every original back.  A patch point that no longer
exists is reported as absent instead of failing the run.
"""

import importlib
import sys
import time
from array import array

import numpy as np


def _visible(counters, args, result, pre):
    if result[1].visible:
        counters["perception.line_visible_frames"] += 1


def _zero_report(counters, args, result, pre):
    if result[1].is_zero_report():
        counters["control.zero_reports"] += 1


def _dark(counters, args, result, pre):
    if args[1]:
        counters["faults.dark_reports"] += 1


def _pending_before(args):
    return args[0].pending()


def _queued(counters, args, result, pre):
    if args[0].pending() > pre:
        counters["wire.datagrams_queued"] += 1


def _delivered(counters, args, result, pre):
    counters["wire.datagrams_delivered"] += len(result)
    # Datagrams still queued after this tick's merge are held across ticks.
    held = sum(ch.pending() for ch in args[0])
    if held > counters["wire.queue_depth_max"]:
        counters["wire.queue_depth_max"] = held


# (span name, module, attribute path, counter hook, pre-call hook)
TARGETS = (
    ("scenario.load", "fusedrive.scenario", "load_scenario", None, None),
    ("world.track_samples", "fusedrive.world", "Track.samples", None, None),
    ("world.lateral_deviation", "fusedrive.world", "lateral_deviation", None, None),
    ("world.step_vehicle", "fusedrive.world", "step_vehicle", None, None),
    ("perception.observe", "fusedrive.perception", "observe", _visible, None),
    ("control.sensor_tick", "fusedrive.control", "sensor_tick", _zero_report, None),
    ("faults.gate", "fusedrive.faults", "gate", _dark, None),
    ("wire.encode", "fusedrive.wire", "encode_command", None, None),
    ("wire.send", "fusedrive.wire", "SimulatedChannel.send", _queued, _pending_before),
    ("wire.merge", "fusedrive.wire", "merge_deliveries", _delivered, None),
    ("fusion.handle_datagram", "fusedrive.fusion", "VehicleNode.handle_datagram", None, None),
    ("fusion.decode", "fusedrive.wire", "decode_command", None, None),
    ("fusion.drive_tick", "fusedrive.fusion", "drive_tick", None, None),
    ("metrics.crash_update", "fusedrive.metrics", "CrashDetector.update", None, None),
    ("metrics.series_append", "fusedrive.metrics", "SampleSeries.append", None, None),
    ("metrics.summarize", "fusedrive.metrics", "summarize", None, None),
    ("runner.run", "fusedrive.runner", "run", None, None),
    ("runner.assemble_result", "fusedrive.runner", "assemble_result", None, None),
    ("runner.write_outputs", "fusedrive.runner", "write_outputs", None, None),
    ("sweep.sweep", "fusedrive.sweep", "sweep", None, None),
)

HOOK_COUNTERS = {
    "perception.observe": ("perception.line_visible_frames",),
    "control.sensor_tick": ("control.zero_reports",),
    "faults.gate": ("faults.dark_reports",),
    "wire.send": ("wire.datagrams_queued",),
    "wire.merge": ("wire.datagrams_delivered", "wire.queue_depth_max"),
}


def _resolve(module_name, path):
    """The original function behind module.path, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return fn if callable(fn) else None


def _owners_of(fn):
    """Every (owner, attribute) in loaded fusedrive modules that is fn."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fusedrive" or mod_name.startswith("fusedrive.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found[(id(mod), attr)] = (mod, attr)
            elif isinstance(value, type) and value.__module__.startswith("fusedrive"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is fn:
                        found[(id(value), cattr)] = (value, cattr)
    return list(found.values())


class Tracer:
    """Patches the layer functions and records one span per call.

    Use as a context manager: entering patches, leaving restores.  Between
    units call `take()` to fold the recorded spans into per-layer numbers.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []
        self.absent = []
        self._patched = []       # (owner, attribute, original)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = {}       # hook counters of the spans actually patched

    def _reset(self):
        del self.span_name[:], self.span_parent[:], self.span_start[:], self.span_end[:]
        self._stack[:] = [-1]
        for name in self.counters:
            self.counters[name] = 0

    def __enter__(self):
        for span, module_name, path, hook, pre in self.targets:
            fn = _resolve(module_name, path)
            owners = _owners_of(fn) if fn is not None else []
            if not owners:
                self.absent.append(span)
                continue
            self.counters.update(dict.fromkeys(HOOK_COUNTERS.get(span, ()), 0))
            wrapper = self._wrap(len(self.names), fn, hook, pre)
            self.names.append(span)
            for owner, attr in owners:
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name_id, fn, hook, pre):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters = self._stack, self.counters
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = pre(args) if pre is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Per-layer totals of the spans since the last call, then clear them.

        Returns (totals, spans) where totals maps "<span>_s", "<span>_self_s"
        and "<span>_calls" to values and spans is the raw record.
        """
        n = len(self.names)
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=float)
        end = np.array(self.span_end, dtype=float)
        dur = end - start
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        total = np.bincount(name, weights=dur, minlength=n)
        total_self = np.bincount(name, weights=self_time, minlength=n)
        calls = np.bincount(name, minlength=n)
        totals = {}
        for i, span in enumerate(self.names):
            totals[f"{span}_s"] = float(total[i])
            totals[f"{span}_self_s"] = float(total_self[i])
            totals[f"{span}_calls"] = int(calls[i])
        totals.update(self.counters)
        spans = (list(self.names), name, parent, start, end)
        self._reset()
        return totals, spans


def write_spans(path, spans):
    """Write one unit's spans as CSV: name, start and end (s from first span), parent row."""
    names, name, parent, start, end = spans
    origin = float(start.min()) if start.size else 0.0
    rows = zip(name.tolist(), (start - origin).tolist(), (end - origin).tolist(), parent.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,start_s,end_s,parent\n")
        for n, t0, t1, p in rows:
            fh.write(f"{names[n]},{t0!r},{t1!r},{p}\n")
