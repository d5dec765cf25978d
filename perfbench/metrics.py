"""The benchmark's metrics: names, units and bounds from BENCHMARK.json, and
what BENCHMARK.json does not hold.

`SOURCE` names the key in the traced totals behind a per-layer metric whose
name differs from it.  `MOVES` records, before any optimisation, which
end-to-end metric a change to each layer should move and on which workload.
"""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

# (name, unit) in BENCHMARK.json's order.  sim_s_per_ref is the simulated
# seconds completed per host second, times the host seconds the reference
# kernel (reference.py) took beside the same unit: simulated seconds per
# reference-kernel time.  It is the bounded throughput because the machine's
# speed drifts too much for host-second rates to repeat.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# Printed beside the end-to-end metrics but given no bound.  Host-second rates
# and times drift with the load other tenants put on the machine (30 s medians
# spread by 0.25 of their median).  A grid's simulated length also depends on
# when its runs crash, so its wall time spreads about 0.18 across seeds.
UNBOUNDED = (
    ("sim_s_per_s", "sim_s/s"),
    ("wall_s", "s"),
    ("ref_s", "s"),
)

SOURCE = {
    "wire.datagrams_sent": "wire.send_calls",
    "runner.loop_self_s": "runner.run_self_s",
    "sweep.self_s": "sweep.sweep_self_s",
}

MOVES = {
    "world.lateral_deviation_s": "sim_s_per_s: most on onboard_run, less on fused_run",
    "world.lateral_deviation_calls": "none (work count)",
    "world.step_vehicle_s": "sim_s_per_s: most on onboard_run, less on fused_run",
    "world.step_vehicle_calls": "none (work count)",
    "world.track_samples_s": "setup_s on every workload",
    "perception.observe_s":
        "sim_s_per_s on fused_run and blackout_grid; barely on onboard_run",
    "perception.observe_calls": "none (work count)",
    "perception.line_visible_frames": "none (simulated statistic; must stay identical)",
    "control.sensor_tick_s": "none; small everywhere",
    "control.zero_reports": "none (simulated statistic; must stay identical)",
    "faults.dark_reports": "none (simulated statistic; non-zero only on blackout_grid)",
    "wire.encode_s": "sim_s_per_s on blackout_grid only",
    "wire.send_s": "sim_s_per_s on blackout_grid only",
    "wire.merge_s": "sim_s_per_s on blackout_grid only",
    "wire.datagrams_sent": "none (simulated statistic; must stay identical)",
    "wire.datagrams_queued": "none (simulated statistic; must stay identical)",
    "wire.datagrams_delivered": "none (simulated statistic; must stay identical)",
    "wire.queue_depth_max":
        "sim_s_per_s on blackout_grid (datagrams held in the channels after "
        "a tick's merge; 0 on the clean-channel runs)",
    "wire.delivery_ratio": "none (delivered / sent; 1 on the clean-channel runs)",
    "fusion.handle_datagram_s": "sim_s_per_s on fused_run and blackout_grid",
    "fusion.decode_s": "sim_s_per_s on fused_run and blackout_grid",
    "fusion.drive_tick_s": "sim_s_per_s on fused_run and blackout_grid",
    "fusion.handle_datagram_self_s":
        "sim_s_per_s on blackout_grid; deferred formatting reappears in "
        "runner.write_outputs_s on the *_run workloads",
    "fusion.rows": "none (simulated statistic; must stay identical)",
    "fusion.degenerate_rows": "none (simulated statistic; must stay identical)",
    "metrics.crash_update_s": "sim_s_per_s slightly (per-tick work)",
    "metrics.series_append_s": "sim_s_per_s slightly (per-tick work)",
    "metrics.summarize_s": "none; once per run",
    "runner.run_s": "sim_s_per_s and wall_s on every workload",
    "runner.loop_self_s": "sim_s_per_s on every workload",
    "runner.assemble_result_s": "none; once per run",
    "runner.write_outputs_s": "wall_s on fused_run and onboard_run; zero on blackout_grid",
    "runner.bytes_written": "wall_s on fused_run and onboard_run; zero on blackout_grid",
    "scenario.load_s": "setup_s on every workload",
    "sweep.sweep_s": "sim_s_per_s and wall_s on blackout_grid",
    "sweep.self_s": "sim_s_per_s on blackout_grid (deepcopies and aggregation)",
    "trace.overhead_s": "none (traced minus untraced wall time of one unit)",
}

# Counters computed from each run's own results, in traced and untraced units alike.
RESULT_COUNTERS = ("fusion.rows", "fusion.degenerate_rows", "runner.bytes_written")

DETERMINISTIC = tuple(name for name, unit in PER_LAYER if unit in ("count", "ratio"))
