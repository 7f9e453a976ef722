#!/usr/bin/env python3
"""Run every built-in scenario and collect the CSV artifacts under one directory.

Usage:
    python scripts/run_all_scenarios.py [--out results] [--seed N] [--sha256]

Each scenario writes its artifacts to <out>/<scenario-name>/ and prints its
summary lines; the full run takes well under a minute.  With ``--sha256`` it
prints one ``<sha256>  <scenario>/<file>`` line per CSV instead, sorted, so
two checkouts' outputs compare with a single ``diff``.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradesync.cli import run_scenario
from gradesync.scenarios import SCENARIOS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=None, help="override every scenario's seed")
    parser.add_argument(
        "--sha256", action="store_true", help="print each CSV's SHA-256 instead of the summaries"
    )
    args = parser.parse_args()

    for name in SCENARIOS:
        t0 = time.perf_counter()
        summary = run_scenario(name, out_dir=args.out, seed=args.seed)
        elapsed = time.perf_counter() - t0
        if args.sha256:
            for path in sorted((args.out / name).glob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}")
            continue
        print(f"=== {name} ({elapsed:.1f}s) -> {args.out / name}")
        for key, value in summary.items():
            print(f"  {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
