"""A naive event simulator that ``gradesync.sim.run`` must match exactly.

It follows the documented rules one step at a time, with none of the
simulator's fast paths: a heap of next beacons, one ``HardwareClock`` per
node, scalar noise and drop draws, the stale check on every delivery, and
every trace sample read from every ``LogicalClock`` at that sample.  At each
instant t it sends every beacon due at t in node order, each from its sender's
state before t, and then applies the deliveries those beacons made in the
order they were sent.  A sample at t sees nothing of t.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right

import numpy as np

from gradesync.clocks import HardwareClock, LogicalClock
from gradesync.errors import ContractViolation
from gradesync.protocols import SyncState, error_scale, on_beacon_tick, on_message, step_size_limit
from gradesync.sim import SimConfig, SyncEvent, _drift_for_node


def _phases(config: SimConfig, nodes, round_ticks: float, rng) -> list[float]:
    if config.phase_mode == "random":
        return rng.uniform(0.0, round_ticks, len(nodes)).tolist()
    if config.phase_mode == "staggered":
        hops = config.topology.hops_from_reference()
        span = max(hops.values()) + 1
        return [((span - hops[u]) % span) * round_ticks / span for u in nodes]
    return [0.0] * len(nodes)


def reference_run(config: SimConfig) -> dict:
    """The trace of ``config`` as a dict of ``SkewTrace`` fields, plus ``deliveries``."""
    topo = config.topology
    nodes = sorted(topo.nodes)
    n = len(nodes)
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    sample_period = config.sample_period if config.sample_period is not None else b / 3.0
    n_samples = math.floor(config.duration / sample_period + 1e-9) + 1
    times = (np.arange(n_samples) * sample_period).tolist()

    phase_ss, delay_ss, drop_ss, drift_ss = np.random.SeedSequence(config.seed).spawn(4)
    delay_rng = np.random.default_rng(delay_ss)
    drop_rng = np.random.default_rng(drop_ss)
    phases = _phases(config, nodes, round_ticks, np.random.default_rng(phase_ss))
    clocks = [
        HardwareClock(f0, _drift_for_node(config, u, np.random.default_rng(child)), phase,
                      config.quantize_ticks)
        for u, child, phase in zip(nodes, drift_ss.spawn(n), phases)
    ]
    start = [LogicalClock(c.advance_to(0.0), 1.0, c.advance_to(0.0)) for c in clocks]
    states = [[SyncState(config.resolved_step_size(p), clock=c) for c in start]
              for p in config.protocols]
    scales = [error_scale(p, b, f0) for p in config.protocols]
    limits = [step_size_limit(p, b, f0) for p in config.protocols]
    adaptive = config.step_policy == "adaptive"
    seqs = [0] * n
    neighbors = [[nodes.index(v) for v in topo.neighbors(u)] for u in nodes]
    targets = [(math.floor(p / round_ticks) + 1) * round_ticks for p in phases]
    heap = [(clk.time_of_tick(x), i) for i, (clk, x) in enumerate(zip(clocks, targets))]
    heapq.heapify(heap)

    shape = (n_samples, n)
    readings = {p: np.empty(shape) for p in config.protocols}
    rates = {p: np.empty(shape) for p in config.protocols}
    hw_rates = np.empty(shape)
    events, counts = [], {"accepted": 0, "stale": 0, "dropped": 0}

    def take_sample(k: int) -> None:
        for i, clk in enumerate(clocks):
            hw = clk.advance_to(times[k])
            drift = clk.drift
            hw_rates[k, i] = f0 + drift.devs[bisect_right(drift.starts, times[k]) - 1]
            for lane, p in enumerate(config.protocols):
                clock = states[lane][i].clock
                readings[p][k, i] = clock.read(hw)
                rates[p][k, i] = clock.rate_multiplier

    k = 0
    while heap[0][0] <= config.duration:
        t = heap[0][0]
        while k < n_samples and times[k] <= t:
            take_sample(k)
            k += 1
        sent = []
        while heap[0][0] == t:
            who = heapq.heappop(heap)[1]
            mine = tuple(lane[who] for lane in states)
            try:
                msg = on_beacon_tick(mine, seqs[who], nodes[who] == topo.reference,
                                     clocks[who].advance_to(t))
            except ContractViolation as err:
                raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
            seqs[who] = msg.seq
            for v in neighbors[who]:
                noise = delay_rng.normal(0.0, config.delay_std) * f0
                if config.drop_probability > 0 and drop_rng.random() < config.drop_probability:
                    counts["dropped"] += 1
                else:
                    sent.append((v, msg, noise))
            targets[who] += round_ticks
            heapq.heappush(heap, (clocks[who].time_of_tick(targets[who]), who))
        for v, msg, noise in sent:
            if msg.seq <= seqs[v]:
                counts["stale"] += 1
                continue
            counts["accepted"] += 1
            seqs[v] = msg.seq
            hw = clocks[v].advance_to(t)
            for lane, p in enumerate(config.protocols):
                try:
                    new = on_message(states[lane][v], msg.readings[lane] + noise, hw,
                                     scales[lane], limits[lane], adaptive)
                except ContractViolation as err:
                    raise ContractViolation(f"node {nodes[v]} at t={t:.9g}: {err}") from err
                states[lane][v] = new
                if config.record_events:
                    events.append(SyncEvent(t, nodes[v], p, msg.seq, new.error, new.step_size,
                                            new.clock.rate_multiplier))
    for k in range(k, n_samples):
        take_sample(k)
    return {"times": np.array(times), "node_ids": tuple(nodes), "readings": readings,
            "rate_multipliers": rates, "hw_rates": hw_rates, "events": events,
            "deliveries": counts}
