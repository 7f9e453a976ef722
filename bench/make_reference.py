#!/usr/bin/env python3
"""Regenerate the stored reference outputs the benchmark checks every run against.

Usage (from the repository root):

    python3 bench/make_reference.py [WORKLOAD ...]

For each workload (all by default) and each seed offset 0..SEED_OFFSETS-1 this
runs the workload once through the benchmark's own child process and writes the
fingerprints of its artifacts and its summary to ``bench/reference/<name>.json``.
Only regenerate after a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import check
from run import REFERENCE, run_child
from workloads import SEED_OFFSETS, WORKLOADS


def main(names: list[str]) -> int:
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        offsets = {}
        for offset in range(SEED_OFFSETS):
            result = run_child(workload, offset, "full")
            offsets[str(offset)] = {
                "scenario_seed": result["scenario_seed"],
                **check.reference_entry(result["out_dir"], result["summary"]),
            }
            print(f"{name} offset {offset}: scenario seed {result['scenario_seed']}, "
                  f"{result['wall_s']:.2f} s")
        record = {"scenario": workload.scenario, "overrides": workload.overrides,
                  "offsets": offsets}
        (REFERENCE / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
