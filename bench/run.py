#!/usr/bin/env python3
"""gradesync benchmark: time one workload end to end, or per layer, and check its outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --profile

Each workload run happens in a fresh child process (``bench/child.py``), one
at a time: a closed loop with a single client and no threads or pools.  With
``--trace 0`` the run first starts ``SETUP_PROBES`` children that stop where
set-up ends, then runs the whole workload again and again for ``--seconds``
seconds and reports the medians of

    wall_s        host seconds around gradesync.cli.run_scenario
    setup_s       child start (interpreter, imports, configs, Topology) to the
                  first call of gradesync.sim.run, or on theory-check of
                  gradesync.analysis.estimate_variance_mc
    work_per_s    simulated node-rounds (nodes x duration / beacon_period) per
                  host second inside sim.run, or on theory-check normal draws
                  (trials x (2 rounds + 1)) per host second inside
                  estimate_variance_mc
    peak_rss_mb   the child's peak resident memory (ru_maxrss)

Times are scaled to the reference speed (see ``REFERENCE_CALIBRATION_S``); the
unscaled medians are recorded with the environment.

With ``--trace 1`` it alternates untraced and traced children for ``--seconds``
seconds and reports the per-layer metrics of ``bench/tracer.py``, the tracing
overhead and the largest numeric difference from the reference outputs.

Every workload run is checked against ``bench/reference/<workload>.json``
(see ``bench/check.py``); a run that raises or fails the check counts in
``failed``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment; the full per-run record goes to
``.bench_out/results/``.  ``--profile`` saves the top 20 cProfile entries of one
run to ``.bench_out/profile/<workload>.txt`` and reports no metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import SEED_OFFSETS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCE = ROOT / "bench" / "reference"
SETUP_PROBES = 3
# Host seconds of one pass of bench/child.py's calibration loop on the
# reference machine (2 vCPUs, CPython 3.11.7, numpy 2.4.6): about the fastest
# of 30 passes, measured once.  End-to-end times are reported at that speed, as
# host seconds x REFERENCE_CALIBRATION_S / the mean calibration of the same
# child, so that the slow phases of a shared host cancel out instead of moving
# the medians.
REFERENCE_CALIBRATION_S = 0.05
DEADLINE_S = 170.0  # every run ends within 180 s, whatever --seconds asks for

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: Workload, seed_offset: int, mode: str, overrides=None,
              timeout: float = DEADLINE_S) -> dict:
    """Run one child process and return its result record (artifacts under ``out_dir``)."""
    run_dir = OUT / "runs" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = {
        "mode": mode,
        "scenario": workload.scenario,
        "overrides": {**workload.overrides, **(overrides or {})},
        "work": workload.work,
        "seed_offset": seed_offset,
        "out_dir": str(run_dir / "artifacts"),
        "result": str(run_dir / "result.json"),
        "spans": str(OUT / "spans" / f"{workload.name}.npz"),
        "profile": str(OUT / "profile" / f"{workload.name}.txt"),
    }
    for key in ("spans", "profile"):
        Path(spec[key]).parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-I", str(ROOT / "bench" / "child.py")]
    spec["spawn_t"] = time.monotonic()
    try:
        proc = subprocess.run(cmd + [json.dumps(spec)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{workload.name} {mode}: no result within {err.timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{workload.name} {mode}: exit {proc.returncode}: {' | '.join(tail)}")
    result = json.loads((run_dir / "result.json").read_text())
    result["out_dir"] = str(run_dir / "artifacts" / workload.scenario)
    return result


def load_reference(workload: Workload, seed_offset: int) -> dict | None:
    path = REFERENCE / f"{workload.name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["offsets"].get(str(seed_offset))


def checked(result: dict, reference: dict | None) -> dict:
    """A child's result record, marked ``ok`` only if its outputs match ``reference``."""
    out_dir, summary = result.pop("out_dir"), result.pop("summary")
    if reference is None:
        cmp = check.Comparison()
        cmp.problems.append("no reference outputs for this seed")
    else:
        cmp = check.compare(out_dir, summary, reference)
    result.update(ok=not cmp.problems, problems=cmp.problems[:10],
                  max_rel_output_diff=cmp.max_rel_diff)
    return result


def checked_run(workload: Workload, seed_offset: int, mode: str, reference, deadline: float) -> dict:
    """One workload run plus its correctness check; never raises for a failed run."""
    try:
        result = run_child(workload, seed_offset, mode, timeout=deadline - time.monotonic())
    except ChildFailed as err:
        return {"mode": mode, "ok": False, "problems": [str(err)]}
    return checked(result, reference)


def outcome(runs: list[dict]) -> dict:
    failed = sum(1 for r in runs if not r["ok"])
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "src_lines": src_lines(),
        "git_commit": git_commit(),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Loop:
    """Closed loop: start the next run until ``seconds`` have passed (at least one
    run), and never one that the longest run so far says would pass ``deadline``."""

    def __init__(self, seconds: float, deadline: float):
        self.start = self.last = time.monotonic()
        self.seconds, self.deadline = seconds, deadline
        self.longest = 0.0
        self.runs = 0

    def again(self) -> bool:
        now = time.monotonic()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        self.runs += 1
        if self.runs == 1:
            return True
        return now - self.start < self.seconds and now + self.longest < self.deadline


SPEED_POWER = {"setup_s": 1, "wall_s": 1, "work_per_s": -1}


def at_reference_speed(run: dict, key: str) -> float:
    """``run[key]`` as it would read at the speed of the reference calibration."""
    factor = REFERENCE_CALIBRATION_S / run["calibration_s"]
    return run[key] * factor ** SPEED_POWER.get(key, 0)


def measure(workload: Workload, seed_offset: int, seconds: float, deadline: float) -> tuple:
    reference = load_reference(workload, seed_offset)
    probes: list[dict] = []
    for _ in range(SETUP_PROBES):
        try:
            probes.append({**run_child(workload, seed_offset, "setup",
                                       timeout=deadline - time.monotonic()), "ok": True})
        except ChildFailed as err:
            probes.append({"mode": "setup", "ok": False, "problems": [str(err)]})
    runs: list[dict] = []
    loop = Loop(seconds, deadline)
    while loop.again():
        runs.append(checked_run(workload, seed_offset, "full", reference, deadline))
    good = [r for r in runs if r["ok"]]
    samples = {"setup_s": [r for r in probes if r["ok"]] + good,
               "wall_s": good, "work_per_s": good, "peak_rss_mb": good}
    metrics = {}
    counts: dict = {"raw_medians": {}}
    for name, rs in samples.items():
        metrics[name] = median([at_reference_speed(r, name) for r in rs])
        counts[name] = len(rs)
        counts["raw_medians"][name] = median([r[name] for r in rs])
    return metrics, runs + probes, counts


def measure_traced(workload: Workload, seed_offset: int, seconds: float, deadline: float) -> tuple:
    reference = load_reference(workload, seed_offset)
    plain: list[dict] = []
    traced: list[dict] = []
    loop = Loop(seconds, deadline)
    while loop.again():
        plain.append(checked_run(workload, seed_offset, "full", reference, deadline))
        traced.append(checked_run(workload, seed_offset, "trace", reference, deadline))
    good = [r for r in traced if r["ok"]]
    metrics: dict[str, float] = {}
    if good:
        for name in good[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in good)
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in good])
                                   - median([r["wall_s"] for r in plain if r["ok"]]))
    metrics["check.max_rel_output_diff"] = max(
        r.get("max_rel_output_diff", 0.0) for r in plain + traced)
    return metrics, plain + traced, {"trace": len(good), "plain": len(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gradesync benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="save the top 20 cProfile entries of one run; reports no metric")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "gradesync" / "__init__.py").is_file():
        print(f"error: no gradesync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    seed_offset = args.seed % SEED_OFFSETS
    env = environment()
    if args.profile:
        try:
            run_child(workload, seed_offset, "profile")
        except ChildFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(f"profile written to {OUT / 'profile' / (workload.name + '.txt')}")
        return 0

    measure_fn = measure_traced if args.trace else measure
    metrics, runs, counts = measure_fn(workload, seed_offset, args.seconds, deadline)
    shutil.rmtree(OUT / "runs" / workload.name, ignore_errors=True)
    numpy_versions = {r["numpy"] for r in runs if "numpy" in r}
    env.update(numpy=sorted(numpy_versions), loadavg_after=os.getloadavg(),
               workload=workload.name, seed=args.seed, seed_offset=seed_offset,
               seconds=args.seconds, trace=args.trace, samples=counts)
    for r in runs:
        if not r["ok"]:
            print(f"FAILED {r['mode']} run: {'; '.join(r['problems'])}", file=sys.stderr)
    record = {
        **outcome(runs),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": record, "runs": runs}, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
