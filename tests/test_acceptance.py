"""Release acceptance gate.

Each test here covers one release criterion at its stated tolerance and
prints a single ``PASS``/``FAIL`` verdict line, so running

    pytest -v tests/test_acceptance.py

reads as a checklist.  The scenario-driven checks (outage trends, fusion
robustness, baselines, the gain sweep) run the shipped reference scenarios
under fixed seeds and pin their own wall-clock budgets; everything is
deterministic, so a verdict never flips between machines.
"""

import contextlib
import copy
import itertools
import math
import os
import random
import statistics
import time
from pathlib import Path

import pytest

import oracles
from oracles import read_plot_data
from fusedrive.control import PidGains, PidState, pid_update
from fusedrive.faults import PeriodicOutage, ProbabilisticOutage
from fusedrive.fusion import (
    CONFIDENCE_WEIGHTED,
    MAXIMUM_CONFIDENCE,
    SIMPLE_AVERAGE,
    VehicleNode,
    fuse_max,
    fuse_simple_avg,
    fuse_weighted,
)
from fusedrive.perception import (
    compute_robot_angle,
    direction_fix,
    disambiguate_line_angle,
    position_fix,
)
from fusedrive.runner import run
from fusedrive.scenario import load_scenario
from fusedrive.sweep import SweepSpec, _run_all, sweep
from fusedrive.wire import (
    ZERO,
    SimulatedChannel,
    SteeringCommand,
    decode_command,
    encode_command,
    merge_deliveries,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SEEDS = (1, 2, 3)


@contextlib.contextmanager
def _verdict(label):
    """Emit exactly one verdict line for the enclosed criterion."""
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def _fixture(name):
    return load_scenario(SCENARIOS / f"{name}.yaml")


def _seeded(scenario, seed, outage=None):
    """Copy of a reference scenario under a specific seed and outage model."""
    sc = copy.deepcopy(scenario)
    sc.seed = seed
    if outage is not None:
        for sensor in sc.sensors:
            sensor.outage = outage
    return sc


def _norm360(angle):
    return 0.0 if angle == 360.0 else angle


# --- 1. perception operations match the reference branch logic ------------


def test_perception_ops_match_reference_branches():
    with _verdict("perception ops match reference branches "
                  "(10^4 inputs, exact on integer grid, 1e-9 real, < 5 s)"):
        start = time.monotonic()
        n = 10_000
        for integer_grid, tol in ((True, 0.0), (False, 1e-9)):
            for g, o in oracles.marker_pairs(11, n, integer_grid):
                want = _norm360(oracles.oracle_compute_robot_angle(
                    g[0], g[1], o[0], o[1]))
                got = compute_robot_angle(g, o)
                assert abs(got - want) <= tol
            for w, h, raw, ang in oracles.disambiguation_inputs(12, n, integer_grid):
                want = oracles.oracle_disambiguate(w, h, raw, ang)
                assert abs(disambiguate_line_angle(w, h, raw, ang) - want) <= tol
            for line, ang in oracles.direction_inputs(13, n, integer_grid):
                want = oracles.oracle_direction_fix(line, ang)
                assert abs(direction_fix(line, ang) - want) <= tol
            for f, l, ang in oracles.position_inputs(14, n, integer_grid):
                want = oracles.oracle_position_fix(f[0], f[1], l[0], l[1], ang)
                assert abs(position_fix(f, l, ang) - want) <= tol
        assert time.monotonic() - start < 5.0


# --- 2. controller hand evaluations and integral bound ---------------------


def test_controller_hand_evaluations_and_integral_bound():
    with _verdict("controller: 61.5 hand case, decayed-integral limit 10 "
                  "within 1e-9, |integral| <= M/(1-0.9) over 10^5 steps"):
        # kp*10 + ki*(10 + 0.9*0) + kd*(10 - 0) = 15 + 1.5 + 45 = 61.5
        _, correction = pid_update(PidGains(1.5, 0.15, 4.5), PidState(), 10.0, 10.0 - 0.0)
        assert correction == pytest.approx(61.5, abs=1e-9)

        # Constant unit error drives the decayed sum to 1/(1-0.9) = 10.  The
        # remainder after n steps is the geometric tail 10*0.9**n, which is
        # still 7.1e-9 at n = 200; check the tail exactly there, and full
        # 1e-9 agreement once the tail has shrunk below it (n >= 219).
        gains = PidGains(0.0, 1.0, 0.0)
        state = PidState()
        for step in range(1, 301):
            state, correction = pid_update(gains, state, 1.0, 1.0 - state.last_error)
            if step == 200:
                assert 10.0 - correction == pytest.approx(
                    10.0 * 0.9 ** 200, rel=1e-6)
        assert correction == pytest.approx(10.0, abs=1e-9)

        # |x| <= M keeps the decayed integral inside M/(1-0.9) forever.
        rng = random.Random(22)
        m = 12.5
        bound = m / (1.0 - 0.9)
        gains = PidGains(2.0, 0.3, 1.0)
        state = PidState()
        for _ in range(100_000):
            error = rng.uniform(-m, m)
            state, _ = pid_update(gains, state, error, error - state.last_error)
            assert abs(state.integral) <= bound


# --- 3. fusion policies match their brute-force definitions ----------------


def _node_of(source_ids):
    return VehicleNode(source_ids, MAXIMUM_CONFIDENCE, (None, None, None))


def _random_node(rng):
    n = rng.randint(1, 5)
    sids = [f"s{i}" for i in range(n)]
    node = _node_of(sids)
    for sid in sids:
        if rng.random() < 0.2:
            cmd = ZERO
        else:
            conf = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 120.0)
            cmd = SteeringCommand(rng.uniform(-30.0, 300.0),
                                  rng.uniform(-30.0, 300.0),
                                  conf, 0.0, 0.0, 0.0)
        node.ingest(sid, cmd)
    return node


def test_fusion_policies_match_brute_force_definitions():
    with _verdict("fusion: 10^4 command sets vs brute force within 1e-9, "
                  "uniform-confidence weighted == simple average, "
                  "ties pick the latest source"):
        fns = ((MAXIMUM_CONFIDENCE, fuse_max),
               (SIMPLE_AVERAGE, fuse_simple_avg),
               (CONFIDENCE_WEIGHTED, fuse_weighted))
        rng = random.Random(33)
        for _ in range(10_000):
            node = _random_node(rng)
            stored = [(c.left, c.right, c.confidence) for c in node.commands]
            for policy, fn in fns:
                want = oracles.oracle_fuse(stored, policy)
                got = fn(node.commands)
                if want is None:
                    assert got is None
                else:
                    assert got[0] == pytest.approx(want[0], abs=1e-9)
                    assert got[1] == pytest.approx(want[1], abs=1e-9)

        # When every live source reports the same confidence, the weighted
        # average must collapse to the simple average over live sources.
        rng = random.Random(34)
        for _ in range(2_000):
            n = rng.randint(1, 5)
            conf = rng.uniform(1.0, 120.0)
            sids = [f"s{i}" for i in range(n)]
            node = _node_of(sids)
            live = 0
            for sid in sids:
                if rng.random() < 0.3:
                    node.ingest(sid, ZERO)
                else:
                    live += 1
                    node.ingest(sid, SteeringCommand(rng.uniform(1.0, 250.0),
                                                     rng.uniform(1.0, 250.0),
                                                     conf, 0.0, 0.0, 0.0))
            weighted = fuse_weighted(node.commands)
            simple = fuse_simple_avg(node.commands)
            if live == 0:
                assert weighted is None and simple is None
            else:
                assert weighted[0] == pytest.approx(simple[0], abs=1e-9)
                assert weighted[1] == pytest.approx(simple[1], abs=1e-9)

        # Exhaustive 3-source confidence grid: on ties the source ingested
        # latest (in source order) must win; all-zero confidence has no
        # winner at all.
        for confs in itertools.product((0, 10, 20, 30), repeat=3):
            node = _node_of(["a", "b", "c"])
            for i, sid in enumerate(["a", "b", "c"]):
                node.ingest(sid, SteeringCommand(30 * (i + 1), 60 * (i + 1),
                                                 3 * confs[i], 0.0, 0.0, 0.0))
            got = fuse_max(node.commands)
            if all(c == 0 for c in confs):
                assert got is None
                continue
            winner = max(range(3), key=lambda i: (confs[i], i))
            stored = node.commands[winner]
            assert got == (stored.left, stored.right)


# --- 4. wire codec identity and channel statistics --------------------------


def test_wire_codec_identity_and_channel_statistics():
    with _verdict("wire: 10^4 roundtrips, zero-report decode, delivery rate "
                  "within 1% of 1-loss over 10^5, seeded schedule replays"):
        rng = random.Random(44)
        for _ in range(10_000):
            cmd = SteeringCommand(rng.randint(0, 255), rng.randint(0, 255),
                                  rng.randint(0, 100),
                                  rng.uniform(-200.0, 200.0),
                                  rng.uniform(-500.0, 500.0),
                                  rng.uniform(-200.0, 200.0))
            assert decode_command(encode_command(cmd)) == cmd

        assert decode_command("0;0;0;0;0;0").is_zero_report()

        loss = 0.3
        channel = SimulatedChannel(loss, 0.0, seed=45)
        total = 100_000
        for i in range(total):
            channel.send("cam", "x", i * 1e-4)
        delivered = len(merge_deliveries([channel], 1e9))
        assert abs(delivered / total - (1.0 - loss)) <= 0.01

        def transcript(seed):
            ch = SimulatedChannel(0.25, (0.01, 0.05), seed=seed)
            out = []
            for i in range(2_000):
                ch.send("cam", f"datagram-{i}", i * 0.01)
                for src, datagram in merge_deliveries([ch], i * 0.01):
                    out.append((i, src, datagram))
            out.extend(("end", src, datagram)
                       for src, datagram in merge_deliveries([ch], 1e9))
            return out

        assert transcript(46) == transcript(46)
        assert transcript(46) != transcript(47)


# --- 5. longer blackouts degrade recovery, then crash -----------------------


def _trend_holds(series, rel=0.10):
    """Non-decreasing, allowing one adjacent inversion within rel."""
    inversions = [(prev - nxt) / prev
                  for prev, nxt in zip(series, series[1:]) if nxt < prev]
    return len(inversions) <= 1 and all(drop <= rel for drop in inversions)


def test_longer_blackouts_degrade_recovery_then_crash():
    with _verdict("outage-duration trend: post-outage |correction| and "
                  "|deviation| non-decreasing over {0..1.0} s, crashes at "
                  ">= 0.8 s in >= 2/3 seeds, < 2 min"):
        start = time.monotonic()
        base = _fixture("outage_onboard")
        durations = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        corr, dev, crashes = [], [], []
        for duration in durations:
            outage = PeriodicOutage(period=3.0, duration=duration)
            per_seed_corr, per_seed_dev, crashed = [], [], 0
            for seed in SEEDS:
                result = run(_seeded(base, seed, outage))
                if not result.completed:
                    crashed += 1
                for values, key in ((per_seed_corr, "post_outage_correction"),
                                    (per_seed_dev, "post_outage_deviation")):
                    summary = result.summaries[key]
                    if summary.get("count"):
                        values.append(summary["mean_abs"])
            corr.append(statistics.mean(per_seed_corr))
            dev.append(statistics.mean(per_seed_dev))
            crashes.append(crashed)
        assert _trend_holds(corr), f"post-outage |correction| trend broke: {corr}"
        assert _trend_holds(dev), f"post-outage |deviation| trend broke: {dev}"
        assert crashes[durations.index(0.8)] >= 2, crashes
        assert crashes[durations.index(1.0)] >= 2, crashes
        assert time.monotonic() - start < 120.0


# --- 6. fused streams survive harsher random blackouts ----------------------


def test_fused_streams_survive_harsher_random_blackouts():
    with _verdict("fusion robustness: max survivable blackout threshold is "
                  "onboard < infra pair <= weighted, weighted > max-pick "
                  "and > simple average, < 10 min"):
        start = time.monotonic()
        grid = (5, 10, 15, 20, 25, 30, 35, 40)
        arms = {
            "onboard": _fixture("baseline_onboard"),
            "infra_pair": _fixture("baseline_infra"),
            "weighted": _fixture("combined_weighted"),
            "max_pick": _fixture("combined_max"),
            "simple_avg": _fixture("combined_simple"),
        }
        # An arm's best threshold is the highest one that all its seeds
        # survive, so the grid runs from the top in rounds: each round runs
        # the next threshold's seeds of every arm still open, and an arm
        # closes at the first threshold that they all survive (0 if none
        # does).  The runs take the fork path every sweep takes, which
        # leaves no child process behind.
        best = {}
        for threshold in reversed(grid):
            open_arms = [arm for arm in arms if arm not in best]
            if not open_arms:
                break
            cases = [(arm, seed) for arm in open_arms for seed in SEEDS]
            jobs = [
                (_seeded(arms[arm], seed, ProbabilisticOutage(interval=0.4, threshold=threshold)), None)
                for arm, seed in cases]
            completed = dict(zip(cases, (result.completed for result in _run_all(jobs))))
            for arm in open_arms:
                if all(completed[arm, seed] for seed in SEEDS):
                    best[arm] = threshold
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        best = {arm: best.get(arm, 0) for arm in arms}

        assert best["onboard"] < best["infra_pair"] <= best["weighted"], best
        assert best["weighted"] > best["max_pick"], best
        assert best["weighted"] > best["simple_avg"], best
        assert time.monotonic() - start < 600.0


# --- 7. single-source baselines are comparable ------------------------------


def test_single_source_baselines_complete_and_compare():
    with _verdict("baselines: onboard-only and infra-only complete 100 s, "
                  "mean |correction| differs < 50% relative"):
        effort = {}
        for name in ("baseline_onboard", "baseline_infra"):
            base = _fixture(name)
            means = []
            for seed in SEEDS:
                result = run(_seeded(base, seed))
                assert result.completed, (name, seed, result.crash_time)
                means.append(result.summaries["correction"]["mean_abs"])
            effort[name] = statistics.mean(means)
        onboard, infra = effort["baseline_onboard"], effort["baseline_infra"]
        assert abs(onboard - infra) / max(onboard, infra) < 0.5, effort


# --- 8. determinism of full runs --------------------------------------------


def test_same_seed_reproduces_byte_identical_outputs(tmp_path):
    with _verdict("determinism: same seed twice gives byte-identical logs "
                  "and summaries"):
        base = _fixture("combined_weighted")
        base.duration = 10.0
        for sensor in base.sensors:
            sensor.channel_loss = 0.2
            sensor.channel_delay = (0.0, 0.03)
        dirs = []
        for label in ("first", "second"):
            out = tmp_path / label
            run(base, str(out))
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert names  # the run must have produced output files at all
        for name in names:
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"


# --- 9. proportional gain sweep shows an interior optimum --------------------


def test_proportional_gain_sweep_finds_interior_optimum(tmp_path):
    with _verdict("kp sweep {0.5..3.0}: emits 6-point table with an interior "
                  "mean-|deviation| optimum"):
        spec = SweepSpec("kp", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0), reps=3)
        table = sweep(_fixture("sweep_kp"), spec, out_dir=str(tmp_path))
        assert table.values == list(spec.values)
        deviations = [mean for mean, _ in table.metrics["deviation"]]
        assert len(deviations) == 6
        assert all(math.isfinite(v) for v in deviations), deviations
        best = min(range(6), key=deviations.__getitem__)
        assert 0 < best < 5, deviations
        assert deviations[best] < deviations[0], deviations
        assert deviations[best] < deviations[-1], deviations
        header, data = read_plot_data(tmp_path / "kp_deviation.dat")
        assert header == ["kp", "mean_abs", "std_abs", "crash_rate"]
        assert data.shape[0] == 6
