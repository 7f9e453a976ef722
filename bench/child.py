"""One workload run in a fresh process: ``python -I bench/child.py '<spec json>'``.

The parent (``bench/run.py``) starts one child per workload run, one at a
time, and reads the result file the child writes.  The spec names the
scenario, its overrides, the seed offset, the mode and where to write:

* ``full``    run the workload and time it (the end-to-end numbers);
* ``setup``   stop at the first call into the simulator or the Monte-Carlo
              oracle, which is where set-up ends;
* ``trace``   like ``full``, with every layer boundary wrapped in spans;
* ``profile`` like ``full``, under cProfile; never used for any metric.

``spawn_t`` is the parent's ``time.monotonic()`` just before it started the
process, so ``setup_s`` includes interpreter start-up and ``import gradesync``.
"""

from __future__ import annotations

import inspect
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# In a full run the probe times the calibration loop at the first call into
# the program and again at the first call after each CALIBRATE_EVERY_S seconds,
# so that the calibrations sample the same stretch of host time as the work.
CALIBRATE_EVERY_S = 1.0


@dataclass(frozen=True)
class _State:
    value: float
    seq: int


def calibration_s() -> float:
    """Host seconds for one pass of a fixed loop shaped like the program's work.

    Half of it is event-queue and frozen-dataclass churn in the interpreter, as
    in the simulator; half is numpy calls on small arrays, as in the
    Monte-Carlo oracle.  It uses no gradesync code, so a change to the program
    cannot change it.  The parent scales every measured time by
    ``REFERENCE_CALIBRATION_S`` over the mean calibration of the same child (see
    ``bench/run.py``), which cancels most of the slow phases of a shared host.
    """
    import heapq

    import numpy as np

    t0 = time.perf_counter()
    heap: list = []
    states = {i: _State(float(i), i) for i in range(64)}
    for i in range(12_000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i & 63, i))
        if len(heap) > 256:
            _, node, seq = heapq.heappop(heap)
            state = states[node]
            if seq > state.seq:
                states[node] = replace(state, value=state.value * 0.5 + 1.0, seq=seq)
    rng = np.random.default_rng(1)
    z = np.zeros(1500)
    total = np.zeros(1500)
    for _ in range(600):
        w = rng.normal(0.0, 0.1, 1500)
        d = rng.normal(0.0, 0.1, 1500)
        e = z * (1.0 + w) + w - d
        z = z - 0.3 * e
        total += e * e
    return time.perf_counter() - t0


class SetupReached(Exception):
    """Raised at the end of set-up in ``setup`` mode."""


class Probe:
    """Times the calls into ``sim.run`` or ``estimate_variance_mc`` and counts their work.

    Set-up ends at the first call; in ``setup`` mode the probe stops the run
    there.  In ``full`` mode it runs the calibration loop between calls and adds
    that time to ``paused_s``, which is subtracted from ``wall_s``.
    """

    def __init__(self, spawn_t: float, mode: str):
        self.spawn_t = spawn_t
        self.mode = mode
        self.setup_s: float | None = None
        self.calibrations: list[float] = []
        self.paused_s = 0.0
        self.last_calibration = -math.inf
        self.inner_s = 0.0
        self.work = 0.0

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.calibrations.append(calibration_s())
        self.last_calibration = time.perf_counter()
        self.paused_s += self.last_calibration - t0

    def wrap(self, fn, work_of):
        def probed(*args, **kwargs):
            if self.setup_s is None:
                self.setup_s = time.monotonic() - self.spawn_t
                if self.mode == "setup":
                    raise SetupReached
            if self.mode == "full" and time.perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S:
                self.calibrate()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.inner_s += time.perf_counter() - t0
            self.work += work_of(args, kwargs)
            return result

        return probed


def node_rounds(args, kwargs) -> float:
    """Simulated node-rounds of one ``sim.run(config)`` call."""
    config = args[0] if args else kwargs["config"]
    return len(config.topology.nodes) * config.duration / config.beacon_period


def mc_draws_counter(estimate_variance_mc):
    """Normal draws of one ``estimate_variance_mc`` call: trials x (2 rounds + 1)."""
    signature = inspect.signature(estimate_variance_mc)

    def draws(args, kwargs) -> float:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["trials"] * (2 * bound.arguments["rounds"] + 1)

    return draws


def _install_probe(probe: Probe, work: str, scenarios, sim, draws) -> None:
    if work == "node_rounds":
        probed = probe.wrap(sim.run, node_rounds)
        sim.run = probed  # scaling_experiment looks run up in gradesync.sim
        scenarios.run = probed
    else:
        scenarios.estimate_variance_mc = probe.wrap(scenarios.estimate_variance_mc, draws)


def _plain(value):
    """JSON-safe copy of a summary value (numpy scalars become Python scalars)."""
    return value.item() if hasattr(value, "item") else value


def main(spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import gradesync
    from gradesync import analysis, cli, clocks, errors, scenarios, sim

    if not Path(gradesync.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gradesync imported from {gradesync.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    mode = spec["mode"]
    name = spec["scenario"]
    draws = mc_draws_counter(analysis.estimate_variance_mc)
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(ROOT / "bench"))
        import tracer as tracing

        tracer = tracing.install((cli, scenarios, sim, clocks, errors), name, draws)
    probe = Probe(spec["spawn_t"], mode)
    _install_probe(probe, spec["work"], scenarios, sim, draws)

    seed = scenarios.SCENARIOS[name].defaults["seed"] + spec["seed_offset"]
    result: dict = {"mode": mode, "scenario_seed": seed, "numpy": numpy.__version__}
    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    try:
        summary = cli.run_scenario(name, spec["overrides"], spec["out_dir"], seed)
    except SetupReached:
        for _ in range(3):
            probe.calibrate()
        result.update(setup_s=probe.setup_s, calibration_s=statistics.fmean(probe.calibrations))
        Path(spec["result"]).write_text(json.dumps(result))
        return 0
    wall = time.perf_counter() - t0 - probe.paused_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "full":
        for _ in range(2):
            probe.calibrate()
    if profiler is not None:
        import pstats

        profiler.disable()
        with open(spec["profile"], "w") as fh:
            pstats.Stats(profiler, stream=fh).sort_stats("tottime").print_stats(20)
    result.update(
        wall_s=wall,
        setup_s=probe.setup_s,
        work_per_s=probe.work / probe.inner_s if probe.inner_s > 0 else 0.0,
        peak_rss_mb=peak_rss_mb,
        summary={k: _plain(v) for k, v in summary.items()},
    )
    if probe.calibrations:
        result["calibration_s"] = statistics.fmean(probe.calibrations)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.save_spans(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
