"""Regenerate perfbench/digests.json: the golden output digests per workload and seed.

    python3 perfbench/pin_digests.py

Pins are taken once, from the commit that defined the benchmark.  A later
change must not regenerate them to pass; a change that alters outputs on
purpose says so and justifies it.
"""

import json

from run import PINS
from workloads import WORKLOADS, import_fusedrive

SEEDS = range(32)


def main():
    fd = import_fusedrive()
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in SEEDS:
            unit = workload.unit(fd, workload.setup(fd, seed))
            pins[name][str(seed)] = unit.digest
            print(name, seed, f"{unit.sim_s:g} sim s in {unit.wall_s:.2f} s", flush=True)
    with open(PINS, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
