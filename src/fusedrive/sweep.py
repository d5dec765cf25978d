"""Parameter sweeps over repeated seeded runs, with gnuplot-ready output.

A sweep varies one axis (a PID gain or an outage parameter), runs the
scenario a few times per value with seeds derived from (seed, value, rep),
and aggregates the per-run summaries into one table row per value.
"""

import functools
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .runner import fork_child, replace_dir, run, usable_cpus
from .scenario import _GAIN_KEYS, _OUTAGES, Scenario, _file_name, _wrap, derive_seed
from .world import ConfigError

_OUTAGE_AXES = {  # axis: (outage kind in a scenario file, field)
    "outage_duration": ("periodic", "duration"),
    "outage_threshold": ("probabilistic", "threshold"),
}
AXES = (*_GAIN_KEYS, *_OUTAGE_AXES)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    reps: int = 3

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.reps < 1:
            raise ConfigError("repetitions must be >= 1")


@dataclass
class SweepTable:
    axis: str
    values: list
    metrics: dict            # metric name -> list of (mean, std) per value
    crash_rate: list
    runs: list = field(default_factory=list)  # list (per value) of RunResult lists


def apply_axis(scenario: Scenario, axis: str, value) -> Scenario:
    """A copy of the scenario with one swept parameter replaced.

    The scenario is left as it is: the copy shares its track and every
    sensor whose parameter the axis does not change.  The value is read and
    built on as a scenario file's value for that key would be, so a value
    the file could not hold is a ConfigError naming axis.
    """
    if axis in _GAIN_KEYS:
        value = _wrap(axis, _GAIN_KEYS[axis], value)
        return replace(scenario, sensors=[
            replace(sensor, gains=_wrap(axis, replace, sensor.gains, **{axis: value}))
            for sensor in scenario.sensors])
    if axis not in _OUTAGE_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    kind, name = _OUTAGE_AXES[axis]
    readers, model = _OUTAGES[kind]
    if not any(isinstance(sensor.outage, model) for sensor in scenario.sensors):
        raise ConfigError(f"{axis} sweep needs a {kind} outage model")
    value = _wrap(axis, readers[name], value)
    return replace(scenario, sensors=[
        replace(sensor, outage=_wrap(axis, replace, sensor.outage, **{name: value}))
        if isinstance(sensor.outage, model) else sensor
        for sensor in scenario.sensors])


def sweep(scenario: Scenario, spec: SweepSpec, out_dir=None) -> SweepTable:
    """Run the scenario per (value, repetition) and aggregate summaries.

    Every value is applied first, so a bad one is a ConfigError before
    anything is written or run.  With out_dir, runner.replace_dir is entered
    before the first run, so an unusable path is an OSError before anything
    runs; each run writes into the staged tree as it ends, and nothing shows
    until the tree replaces out_dir.  A run is in <axis>_<value>_rep<rep>, the
    value in the .dat value column's text; values that share that text, or an
    id too long for its <axis>_error_<id>.dat, raise ConfigError too.  The
    runs are spread over every usable CPU, with no option to choose how
    many: a run's outputs depend only on its scenario and seed, so the table,
    table.runs and every file are those that one process would give, and a
    failed sweep raises the error of the first run, in value then rep
    order, that failed, as one process would.
    """
    values = list(spec.values)
    labels = [f"{value:.10g}" for value in values]
    for vi, label in enumerate(labels):
        if out_dir is not None and label in labels[:vi]:
            raise ConfigError(f"two sweep values share the run directory label {label!r}")
    for i, sensor in enumerate(scenario.sensors if out_dir is not None else ()):
        _wrap(f"sensors[{i}].id", _file_name, sensor.sensor_id, f"{spec.axis}_error_{{}}.dat")
    variants = [apply_axis(scenario, spec.axis, value) for value in values]
    metric_rows = {}
    crash_rate = []
    with replace_dir(out_dir) as new:
        flat = _run_all([
            (replace(variant, seed=derive_seed(scenario.seed, spec.axis, value, rep)),
             None if new is None else os.path.join(new, f"{spec.axis}_{label}_rep{rep}"))
            for value, label, variant in zip(values, labels, variants) for rep in range(spec.reps)])
        all_runs = [flat[i:i + spec.reps] for i in range(0, len(flat), spec.reps)]
        for vi, results in enumerate(all_runs):
            crash_rate.append(sum(1 for r in results if not r.completed) / len(results))
            for name in sorted({m for r in results for m in r.summaries}):
                counted = [r.summaries[name] for r in results if r.summaries[name].get("count")]
                cell = ((float(np.mean([c["mean_abs"] for c in counted])),
                         float(np.mean([c["std_abs"] for c in counted]))) if counted
                        else (math.nan, math.nan))
                metric_rows.setdefault(name, [(math.nan, math.nan)] * len(values))
                metric_rows[name][vi] = cell
        table = SweepTable(spec.axis, values, metric_rows, crash_rate, all_runs)
        if new is not None:
            emit_plot_data(table, new)
    return table


def _run_all(jobs):
    """run(*job) for every job, in job order, on every usable CPU.

    The jobs are dealt in snake order (0..P-1, P-1..0, ...) to P processes:
    this one and P - 1 children forked from it, which inherit the jobs and
    any patched run and send back, pickled over a pipe, their results and
    the exception, with its traceback, that stopped their share.  Every
    process runs its share up to its first failure, and the failure of the
    lowest job is raised, the one a single process would have met first; a
    child that dies without replying is a ChildProcessError at its share's
    first job.  No child outlives the call.  No os.fork, or a second Python
    thread, which a fork would not copy: every job runs here.
    """
    procs = min(len(jobs), usable_cpus())
    snake = [*range(procs), *reversed(range(procs))]
    shares = [[i for i in range(len(jobs)) if snake[i % len(snake)] == p] for p in range(procs)]
    pids, readers = [], []
    try:
        for share in shares[1:]:
            pid, reader = fork_child(functools.partial(_run_share, jobs, share))
            pids.append(pid)
            readers.append(reader)
        results, failures = _run_share(jobs, shares[0])
        for pid, reader, share in zip(pids, readers, shares[1:]):
            try:  # loaded as it is read, so the whole reply is never held as bytes
                done, failed = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                failures.append((share[0], ChildProcessError(
                    f"sweep process {pid} died without replying"), None))
                continue
            results.update(done)
            for i, exc, text in failed:
                exc.__cause__ = Exception(f"raised in sweep process {pid}:\n{text}")
            failures += failed
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i] for i in range(len(jobs))]


def _run_share(jobs, share):
    """Run a share's jobs in order up to the first that raises:
    ({job: result}, [] or [(job, exception, its traceback text)])."""
    done = {}
    for i in share:
        try:
            done[i] = run(*jobs[i])
        except Exception as exc:
            return done, [(i, exc, "".join(traceback.format_exception(exc)))]
    return done, []


def emit_plot_data(table: SweepTable, out_dir):
    """One whitespace-column .dat file per metric: value, mean, std, crash_rate."""
    for name, cells in sorted(table.metrics.items()):
        path = os.path.join(out_dir, f"{table.axis}_{name}.dat")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {table.axis} mean_abs std_abs crash_rate\n")
            for value, (mean, std), rate in zip(table.values, cells, table.crash_rate):
                fh.write(f"{value:.10g} {mean:.10g} {std:.10g} {rate:.10g}\n")
