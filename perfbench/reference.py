"""A fixed reference kernel, timed beside every unit of work.

On a shared host the speed of one core drifts by a third within minutes as
other tenants load the machine, and the drift slows the simulator and this
kernel alike.  Throughput per reference-kernel time cancels most of it: in
30 s windows of `fused_run`, the spread of the median throughput fell from
0.25 to 0.03 of the median.  The kernel mixes the simulator's kinds of work:
scalar float maths (kinematics, ground truth), a NumPy mask over a
3000-sample array (perception) and float formatting (the drive log).  It
belongs to the benchmark and must not change between the commits compared.
"""

import math
import random
import time

import numpy as np

_SAMPLES = np.linspace(0.0, 6.0, 3000)
_STEPS = 3000


def reference_s() -> float:
    """Host seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    acc = 0.0
    rows = []
    for _ in range(_STEPS):
        x, y = rng.random(), rng.random()
        acc += math.hypot(x, y) * math.cos(x) - math.sin(y)
        acc += float(np.count_nonzero(np.abs(_SAMPLES - x) < 0.2))
        rows.append(f"{acc:.6f},{x!r},{int(y * 255)}")
    elapsed = time.perf_counter() - t0
    if len(rows) != _STEPS or not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a wrong result")
    return elapsed
