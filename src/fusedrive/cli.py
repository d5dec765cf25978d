"""Command-line entry points: run, sweep, summarize.

Exit codes: 0 for a completed run, 2 when the run ended in a crash, 1 for
configuration problems and usage errors.  The default output directory comes
from --out, then the FUSEDRIVE_OUT environment variable, then ./runs.
"""

import argparse
import json
import os
import sys

from .runner import run
from .scenario import load_scenario
from .sweep import AXES, SweepSpec, sweep
from .world import ConfigError

OUT_ENV = "FUSEDRIVE_OUT"


def _default_out(explicit):
    return explicit or os.environ.get(OUT_ENV) or "runs"


def _parse_values(text):
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2: 2 means the run crashed
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusedrive",
        description="Line-following vehicle simulator with networked sensor fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--transport", choices=("sim", "udp"), default="sim",
                       help="simulated channel (deterministic) or real UDP sockets")
    p_run.add_argument("--pace", type=float, default=1.0,
                       help="udp transport speed-up factor over real time")

    p_sweep = sub.add_parser("sweep", help="vary one parameter over repeated runs")
    p_sweep.add_argument("scenario", help="scenario config file")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.add_argument("--reps", type=int, default=3, help="repetitions per value")
    p_sweep.add_argument("--out", default=None, help="output directory")

    p_sum = sub.add_parser("summarize", help="print the summary of a finished run")
    p_sum.add_argument("run_dir", help="directory containing summary.json")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    out_dir = os.path.join(_default_out(args.out), scenario.name)
    if args.transport == "udp":
        from .udp import run_udp

        result = run_udp(scenario, out_dir, pace=args.pace)
    else:
        result = run(scenario, out_dir)
    status = "crashed at {:.3f} s".format(result.crash_time) if not result.completed \
        else "completed {:.0f} s".format(result.duration)
    print(f"{scenario.name}: {status}; outputs in {out_dir}")
    for name in sorted(result.summaries):
        summary = result.summaries[name]
        if summary.get("count"):
            print(f"  {name}: mean |x| = {summary['mean_abs']:.4g} "
                  f"(std {summary['std_abs']:.4g}, n={summary['count']})")
    return 0 if result.completed else 2


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    spec = SweepSpec(args.axis, _parse_values(args.values), args.reps)
    out_dir = os.path.join(_default_out(args.out), f"{scenario.name}_{args.axis}")
    table = sweep(scenario, spec, out_dir)
    print(f"{scenario.name}: swept {args.axis} over {list(table.values)} "
          f"({spec.reps} reps); outputs in {out_dir}")
    for vi, value in enumerate(table.values):
        cells = ", ".join(
            f"{name}={table.metrics[name][vi][0]:.4g}"
            for name in ("correction", "deviation") if name in table.metrics
        )
        print(f"  {args.axis}={value:.10g}: {cells}, crash_rate={table.crash_rate[vi]:.2f}")
    return 0


def _cmd_summarize(args) -> int:
    path = os.path.join(args.run_dir, "summary.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "summarize": _cmd_summarize}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
