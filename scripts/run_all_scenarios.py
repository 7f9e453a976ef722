#!/usr/bin/env python3
"""Run every built-in scenario and collect the CSV artifacts under one directory.

Usage:
    python scripts/run_all_scenarios.py [--out results] [--seed N] [--check]

Each scenario writes its artifacts to <out>/<scenario-name>/ and prints its
summary lines; the full run takes well under a minute.  With ``--check`` it
instead checks every recorded SHA-256 listing under ``tests/``: the default
outputs, the 2,000-node line and the difference-convention theory-check.  It
prints a diff for each listing that differs and exits 1 if any does.
"""

import argparse
import difflib
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gradesync.cli import run_scenario
from gradesync.scenarios import SCENARIOS

# The recorded listings of single runs: listing, scenario and its --set overrides.
RUNS = (
    ("line2000_outputs.sha256", "fig3-multihop",
     {"nodes": "2000", "seeds": "1", "duration": "600"}),
    ("theory_check_difference.sha256", "theory-check", {"noise_convention": "difference"}),
)


def listing(directory: Path, prefix: str = "") -> list[str]:
    """One ``<sha256>  <prefix><file>`` line per CSV in ``directory``, sorted by name."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {prefix}{path.name}\n"
            for path in sorted(directory.glob("*.csv"))]


def check(out: Path) -> int:
    """Compare each recorded listing with a fresh run's; 1 if any differs."""
    for name in SCENARIOS:
        run_scenario(name, out_dir=out)
    listings = {"default_outputs.sha256": [
        line for name in SCENARIOS for line in listing(out / name, f"{name}/")]}
    for recorded, name, overrides in RUNS:
        run_scenario(name, overrides, out_dir=out / Path(recorded).stem)
        listings[recorded] = listing(out / Path(recorded).stem / name)
    failed = 0
    for recorded, lines in listings.items():
        expected = (ROOT / "tests" / recorded).read_text().splitlines(keepends=True)
        diff = list(difflib.unified_diff(expected, lines, f"tests/{recorded}", "this run"))
        print(f"{'ok' if not diff else 'DIFFERS'}  tests/{recorded}")
        sys.stdout.writelines(diff)
        failed |= bool(diff)
    return int(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=None, help="override every scenario's seed")
    parser.add_argument(
        "--check", action="store_true",
        help="check the outputs against every SHA-256 listing under tests/ instead",
    )
    args = parser.parse_args()
    if args.check:
        if args.seed is not None:
            parser.error("--check runs the recorded default seeds; drop --seed")
        return check(args.out)

    for name in SCENARIOS:
        t0 = time.perf_counter()
        summary = run_scenario(name, out_dir=args.out, seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(f"=== {name} ({elapsed:.1f}s) -> {args.out / name}")
        for key, value in summary.items():
            print(f"  {key} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
