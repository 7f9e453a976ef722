"""Traced mode: spans and counts around the public calls into each gradesync layer.

The tracer wraps functions and methods from outside, where their callers look
them up, so nothing in ``src/`` changes.  Each call becomes a span (name,
start, end, parent); a span's self time is its duration minus the durations of
the spans directly inside it.  Spans are kept in flat in-memory arrays and
written out once, after the run.

Names bound at import time are wrapped where they are bound: ``sim`` binds the
protocol handlers, ``scenarios`` binds ``run``, the CSV writers, the Monte-Carlo
oracle and the variance formulas, and ``scaling_experiment`` reaches
``gradesync.sim.run`` through the ``sim`` module.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array


class Tracer:
    def __init__(self, violation_type: type[BaseException]):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.violations: list[int] = []
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [span index, time of direct children]
        self._violation_type = violation_type

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for counter in (self.calls, self.violations):
                counter.append(0)
            for timer in (self.total, self.self_time):
                timer.append(0.0)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs outside it."""
        nid = self.name_id(name)
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        calls, total, self_time, violations = self.calls, self.total, self.self_time, self.violations
        stack = self._stack
        violation_type = self._violation_type
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except violation_type:
                violations[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                total[nid] += span
                self_time[nid] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> int:
        return self.calls[self.name_id(name)]

    def seconds(self, name: str, self_only: bool = False) -> float:
        nid = self.name_id(name)
        return self.self_time[nid] if self_only else self.total[nid]

    def save_spans(self, path) -> None:
        """Write every span to a numpy ``.npz`` file: names, name_id, parent, start, end."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def _patch(tracer: Tracer, owner, attr: str, name: str, after=None):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def install(gradesync_modules, scenario_name: str, mc_draws) -> Tracer:
    """Wrap every traced boundary of the imported gradesync modules.

    ``mc_draws(args, kwargs)`` gives the normal draws of one Monte-Carlo call.
    """
    cli, scenarios, sim, clocks, errors = gradesync_modules
    tracer = Tracer(errors.ContractViolation)

    # cli and scenarios
    _patch(tracer, cli, "run_scenario", "cli.run_scenario")
    scenario = scenarios.SCENARIOS[scenario_name]
    scenarios.SCENARIOS[scenario_name] = dataclasses.replace(
        scenario, runner=tracer.wrap("scenarios.runner", scenario.runner)
    )

    def csv_bytes(args, kwargs, result):
        tracer.add("scenarios.csv.bytes", os.path.getsize(args[0]))

    _patch(tracer, scenarios, "write_csv", "scenarios.csv", csv_bytes)

    # sim
    _patch(tracer, sim.Topology, "__post_init__", "sim.topology")
    _patch(tracer, sim.Topology, "neighbors", "sim.topology.neighbors")

    def csv_rows(per_node: bool):
        def after(args, kwargs, result):
            trace, path = args
            per_sample = len(trace.protocols) * (len(trace.node_ids) if per_node else 1)
            tracer.add("sim.csv.rows", len(trace.times) * per_sample)
            tracer.add("sim.csv.bytes", os.path.getsize(path))

        return after

    _patch(tracer, scenarios, "write_trace_csv", "sim.csv", csv_rows(per_node=True))
    _patch(tracer, scenarios, "write_skew_csv", "sim.csv", csv_rows(per_node=False))

    # protocols, as the simulator binds them
    def accepted(key):
        def after(args, kwargs, result):
            if result is not args[0]:  # a stale message returns its input state
                tracer.add(key, 1)

        return after

    _patch(tracer, sim, "grades_on_message", "protocols.grades.on_message",
           accepted("protocols.grades.on_message.accepted"))
    _patch(tracer, sim, "pisync_on_message", "protocols.pisync.on_message",
           accepted("protocols.pisync.on_message.accepted"))
    _patch(tracer, sim, "on_beacon_tick", "protocols.on_beacon_tick")

    # clocks
    _patch(tracer, clocks.HardwareClock, "advance_to", "clocks.advance_to")
    _patch(tracer, clocks.HardwareClock, "time_of_tick", "clocks.time_of_tick")
    _patch(tracer, clocks.ConstantDrift, "deviation_integral",
           "clocks.deviation_integral.constant")
    _patch(tracer, clocks.WhiteDrift, "deviation_integral", "clocks.deviation_integral.white")
    _patch(tracer, clocks.LogicalClock, "read", "clocks.logical_read")

    # the simulator run loop: events = beacons + receptions handed to a
    # protocol + trace samples, counted from the calls made inside each run
    traced_run = tracer.wrap("sim.run", sim.run)

    def counted_run(config, *args, **kwargs):
        first = f"protocols.{config.protocols[0]}.on_message"
        beacons0, receptions0 = tracer.count("protocols.on_beacon_tick"), tracer.count(first)
        trace = traced_run(config, *args, **kwargs)
        beacons = tracer.count("protocols.on_beacon_tick") - beacons0
        receptions = tracer.count(first) - receptions0
        tracer.add("sim.events", beacons + receptions + len(trace.times))
        return trace

    sim.run = counted_run
    scenarios.run = counted_run
    _patch(tracer, scenarios, "scaling_experiment", "sim.scaling_experiment")

    # analysis, as scenarios binds it
    def count_draws(args, kwargs, result):
        tracer.add("analysis.mc.draws", mc_draws(args, kwargs))

    _patch(tracer, scenarios, "estimate_variance_mc", "analysis.mc", count_draws)
    _patch(tracer, scenarios, "grades_variance", "analysis.closed_form")
    _patch(tracer, scenarios, "pisync_variance", "analysis.closed_form")
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced workload run, by name."""
    t = tracer
    extra = t.extra.get
    m: dict[str, float] = {
        "sim.topology.s": t.seconds("sim.topology"),
        "sim.topology.neighbors.calls": t.count("sim.topology.neighbors"),
        "sim.topology.neighbors.s": t.seconds("sim.topology.neighbors"),
        "sim.run.calls": t.count("sim.run"),
        "sim.run.self_s": t.seconds("sim.run", self_only=True),
        "sim.events": extra("sim.events", 0),
        "sim.events_per_s": _ratio(extra("sim.events", 0), t.seconds("sim.run")),
        "sim.csv.rows": extra("sim.csv.rows", 0),
        "sim.csv.bytes": extra("sim.csv.bytes", 0),
        "sim.csv.s": t.seconds("sim.csv"),
    }
    for name in (
        "clocks.advance_to",
        "clocks.time_of_tick",
        "clocks.deviation_integral.constant",
        "clocks.deviation_integral.white",
        "clocks.logical_read",
        "protocols.on_beacon_tick",
    ):
        m[f"{name}.calls"] = t.count(name)
        m[f"{name}.self_s"] = t.seconds(name, self_only=True)
    calls = accepted = 0
    for proto in ("grades", "pisync"):
        name = f"protocols.{proto}.on_message"
        m[f"{name}.calls"] = t.count(name)
        m[f"{name}.accepted"] = extra(f"{name}.accepted", 0)
        m[f"{name}.self_s"] = t.seconds(name, self_only=True)
        calls += m[f"{name}.calls"]
        accepted += m[f"{name}.accepted"]
    m["protocols.accept_ratio"] = _ratio(accepted, calls)
    m["protocols.contract_violations"] = sum(
        t.violations[t.name_id(n)]
        for n in ("protocols.grades.on_message", "protocols.pisync.on_message",
                  "protocols.on_beacon_tick")
    )
    m["analysis.mc.calls"] = t.count("analysis.mc")
    m["analysis.mc.self_s"] = t.seconds("analysis.mc", self_only=True)
    m["analysis.mc.draws"] = extra("analysis.mc.draws", 0)
    m["analysis.mc.draws_per_s"] = _ratio(m["analysis.mc.draws"], t.seconds("analysis.mc"))
    m["analysis.closed_form.s"] = t.seconds("analysis.closed_form")
    m["scenarios.self_s"] = t.seconds("scenarios.runner", self_only=True)
    m["scenarios.csv.bytes"] = extra("scenarios.csv.bytes", 0)
    m["scenarios.csv.s"] = t.seconds("scenarios.csv")
    m["cli.run_scenario.self_s"] = t.seconds("cli.run_scenario", self_only=True)
    return m
