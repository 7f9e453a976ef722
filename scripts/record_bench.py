#!/usr/bin/env python3
"""Record a performance snapshot of this tree as one JSON file.

Usage (from the repository root):

    python3 scripts/record_bench.py --out BENCH_<n>.json

For each workload that ``BENCHMARK.json`` declares it runs ``bench/run.py`` twice
for ``SECONDS`` seconds at its default seed, ``--trace 0`` for the end-to-end
metrics and ``--trace 1`` for the per-layer ones, each as its own process.  It
then times every scenario's ``cli.run_scenario`` call at its defaults in
``SCENARIO_RUNS`` fresh processes, and the Tier-1 suite once with ``TIER1``, the
command CI runs.  It writes every workload's metrics, correctness tallies and
sample counts, each scenario's median and per-process wall seconds, the Tier-1
wall time and the environment ``bench/run.py`` reports (``src_lines`` included).  It changes no file under
``bench/``.  It refuses to run while ``git status`` shows changes under the
measured paths, so the ``git_commit`` it records names the code it measured:
commit first, then record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 10.0  # per bench/run.py measurement
SCENARIO_RUNS = 3  # fresh processes per scenario; the snapshot records their median
# What a snapshot measures; each must match the recorded commit.
MEASURED = ("src", "tests", "bench", "scripts", "pyproject.toml")
# The fields of bench/run.py's env line that describe the machine and the tree.
ENV_FIELDS = ("python", "numpy", "nproc", "src_lines", "git_commit")
# The Tier-1 command's arguments to python, the same as the workflow's "Tier-1 tests" step.
TIER1 = ("-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--durations=10", "--continue-on-collection-errors")


def workload_names() -> list[str]:
    """The workloads ``BENCHMARK.json`` declares, sorted."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    return sorted(w["name"] for w in declared)


def _bench_run(workload: str, trace: int, seconds: float) -> tuple[dict, dict]:
    """``(env, result)``: the last two lines of one ``bench/run.py`` run."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2][len("env "):]), json.loads(lines[-1])


def record_workload(workload: str, seconds: float = SECONDS) -> dict:
    """One workload's end-to-end (``--trace 0``) and per-layer (``--trace 1``) record."""
    record = {}
    for trace, part in ((0, "end_to_end"), (1, "per_layer")):
        env, result = _bench_run(workload, trace, seconds)
        record[part] = {**result, "env": env}
    return record


def _src_env() -> dict:
    """This environment with the tree's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _python(*args: str) -> str:
    """Stdout of one fresh ``python args`` process on this tree; raises if it fails."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


# Prints the wall seconds of one cli.run_scenario(argv[1]) at its defaults.
TIME_SCENARIO = """
import sys, tempfile, time
from gradesync.cli import run_scenario
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    run_scenario(sys.argv[1], out_dir=out)
    print(time.perf_counter() - start)
"""


def scenario_names() -> list[str]:
    """The scenarios ``gradesync.scenarios.SCENARIOS`` defines, in its order."""
    return _python("-c", "from gradesync.scenarios import SCENARIOS; print(*SCENARIOS)").split()


def record_scenario(name: str) -> dict:
    """Median and per-process wall seconds of ``cli.run_scenario(name)`` at its defaults."""
    walls = [float(_python("-c", TIME_SCENARIO, name)) for _ in range(SCENARIO_RUNS)]
    return {"wall_s": statistics.median(walls), "runs_s": walls}


def tier1_run() -> dict:
    """Wall seconds and last summary line of one Tier-1 run (``tests/``), as CI runs it."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def uncommitted() -> str:
    """``git status --porcelain`` of the measured paths: empty when they are committed."""
    return subprocess.run(["git", "status", "--porcelain", "--", *MEASURED], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record a BENCH_<n>.json snapshot")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if changed := uncommitted():
        print(f"commit these first, so git_commit names what is measured:\n{changed}",
              file=sys.stderr)
        return 1
    names = workload_names()
    workloads = {name: record_workload(name) for name in names}
    env = workloads[names[0]]["end_to_end"]["env"]
    snapshot = {
        "env": {key: env[key] for key in ENV_FIELDS},
        "tier1": tier1_run(),
        "scenarios": {name: record_scenario(name) for name in scenario_names()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
