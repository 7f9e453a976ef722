"""A naive event simulator that ``gradesync.sim.run`` must match exactly.

It follows the documented rules one step at a time, with none of the
simulator's fast paths and none of its arithmetic: a heap of next beacons,
every hardware reading and tick inversion a plain-float walk over the node's
drift pieces up from time 0 (realized again further out whenever a walk needs
more), the update rule written out here from its documented form, scalar
noise and drop draws, the stale check on every delivery, and every trace
sample read from every logical clock at that sample.  At each instant t it
sends every beacon due at t in node order, each from its sender's state before
t, and then applies the deliveries those beacons made in the order they were
sent.  A sample at t sees nothing of t.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right

import numpy as np

from gradesync.errors import ContractViolation, DrivenRate
from gradesync.protocols import error_scale
from gradesync.clocks import ConstantDrift
from gradesync.sim import SimConfig, SyncEvent


class Realization:
    """The pieces of drift model ``model`` drawn from generator seed ``seed``, as far as read.

    Whenever a walk passes their end they are drawn again from the seed to
    twice as far: a realization to one horizon is a prefix of one to any later
    horizon, so the pieces only grow, whatever the order of the reads.
    """

    def __init__(self, model, seed):
        self.model, self.seed = model, seed
        self.starts, self.devs = model.pieces(1.0, np.random.default_rng(seed))

    def cover(self, t: float) -> None:
        """Draw the pieces past ``t``."""
        while self.starts[-1] <= t:
            self.starts, self.devs = self.model.pieces(2 * self.starts[-1],
                                                       np.random.default_rng(self.seed))


def deviation_at(drift, t):
    """The deviation of the piece of realization ``drift`` that holds ``t``."""
    drift.cover(t)
    return drift.devs[bisect_right(drift.starts, t) - 1]


def reference_reading(drift, f0, start, t):
    """The per-piece formula with plain floats, walking the pieces up from 0."""
    drift.cover(t)
    starts, devs = drift.starts, drift.devs
    knot, i = start, 0
    while starts[i + 1] <= t:
        knot += (f0 + devs[i]) * (starts[i + 1] - starts[i])
        i += 1
    return knot + (f0 + devs[i]) * (t - starts[i])


def reference_time_of_tick(drift, f0, start, target):
    """The same walk, stopped at the first piece whose end reads above ``target``."""
    knot, i = start, 0
    while True:
        while len(drift.devs) <= i:
            drift.cover(drift.starts[-1])
        rate = f0 + drift.devs[i]
        end = knot + rate * (drift.starts[i + 1] - drift.starts[i])
        if target < end:
            return drift.starts[i] + (target - knot) / rate
        knot, i = end, i + 1


def logical_reading(clock, hw):
    """A logical clock ``(value, rate, hw_at)`` read at hardware reading ``hw``."""
    value, rate, hw_at = clock
    if hw < hw_at:
        raise ContractViolation(f"logical read at hw={hw} before last update hw={hw_at}")
    return value + rate * (hw - hw_at)


def reference_update(clock, gain, prev_error, received, hw, gain_max, adaptive):
    """The documented rule: ``(error, gain, new clock)`` after a reading ``received`` at ``hw``.

    The error is the local reading minus the received one.  An adaptive gain
    doubles while consecutive errors agree in sign and is divided by three
    otherwise, at most ``gain_max`` and kept if it would underflow to zero.
    The rate moves by ``-gain * error`` and the clock jumps onto the received
    reading.
    """
    error = logical_reading(clock, hw) - received
    if adaptive:
        grown = 2.0 * gain if error * prev_error > 0 else gain / 3.0
        if grown > gain_max:
            grown = gain_max
        if grown != 0.0:
            gain = grown
    rate = clock[1] - gain * error
    if rate <= 0:
        raise DrivenRate(rate, gain, gain_max, error, hw - clock[2])
    return error, gain, (received, rate, hw)


def driven_rate_text(err: DrivenRate, protocol: str, config: SimConfig) -> str:
    """What ``sim.run`` says of ``err``: the protocol, its step and limit, and rounds since."""
    rate, gain, gain_max, error, ticks = err.args
    b, f0 = config.beacon_period, config.nominal_freq
    scale = error_scale(protocol, b, f0)
    fit = "below its limit" if gain < gain_max else "mis-scaled; its limit is"
    return (f"{protocol} rate multiplier driven to {rate} by step size {gain / scale} "
            f"({fit} {gain_max / scale}) on a sync error of {error} ticks, "
            f"{ticks / (b * f0):.9g} rounds after the node's last update")


def _phases(config: SimConfig, nodes, round_ticks: float, rng) -> list[float]:
    if config.phase_mode == "random":
        return rng.uniform(0.0, round_ticks, len(nodes)).tolist()
    if config.phase_mode == "staggered":
        hops = config.topology.hops_from_reference()
        span = max(hops.values()) + 1
        return [((span - hops[u]) % span) * round_ticks / span for u in nodes]
    return [0.0] * len(nodes)


def reference_run(config: SimConfig) -> dict:
    """The trace of ``config`` as a dict of ``SkewTrace`` fields, plus ``deliveries``.

    Each protocol runs its own lane: ``readings``, ``rate_multipliers`` and
    ``events`` map each protocol to its lane's arrays and ``SyncEvent`` list.
    """
    topo = config.topology
    nodes = sorted(topo.nodes)
    n = len(nodes)
    b, f0 = config.beacon_period, config.nominal_freq
    round_ticks = b * f0
    period = b / 3.0
    n_samples = math.floor(config.duration / period + 1e-9) + 1
    times = (np.arange(n_samples) * period).tolist()

    phase_ss, delay_ss, drop_ss, drift_ss = np.random.SeedSequence(config.seed).spawn(4)
    delay_rng = np.random.default_rng(delay_ss)
    drop_rng = np.random.default_rng(drop_ss)
    phases = _phases(config, nodes, round_ticks, np.random.default_rng(phase_ss))
    models = config.drift if isinstance(config.drift, dict) else dict.fromkeys(nodes, config.drift)
    drifts = [Realization(models.get(u, ConstantDrift(0.0)), child)
              for u, child in zip(nodes, drift_ss.spawn(n))]

    def hardware(i: int, t: float) -> float:
        return reference_reading(drifts[i], f0, phases[i], t)

    # Per protocol and node: the logical clock (value, rate, hw_at), gain and last error.
    # Every protocol starts at the one gain, step_fraction of the one stability bound.
    logical = [[(hardware(i, 0.0), 1.0, hardware(i, 0.0)) for i in range(n)]
               for _ in config.protocols]
    gain_max = 2.0 / (b * f0)  # one stability bound on the gain, for either protocol
    gains = [[config.step_fraction * gain_max] * n for _ in config.protocols]
    errors = [[0.0] * n for _ in config.protocols]
    adaptive = config.step_policy == "adaptive"
    seqs = [0] * n
    neighbors = [[nodes.index(v) for v in topo.neighbors(u)] for u in nodes]
    targets = [(math.floor(p / round_ticks) + 1) * round_ticks for p in phases]
    heap = [(reference_time_of_tick(drifts[i], f0, phases[i], x), i)
            for i, x in enumerate(targets)]
    heapq.heapify(heap)

    shape = (n_samples, n)
    readings = {p: np.empty(shape) for p in config.protocols}
    rates = {p: np.empty(shape) for p in config.protocols}
    hw_rates = np.empty(shape)
    events = {p: [] for p in config.protocols}
    counts = {"accepted": 0, "stale": 0, "dropped": 0}

    def take_sample(k: int) -> None:
        for i in range(n):
            hw = hardware(i, times[k])
            hw_rates[k, i] = f0 + deviation_at(drifts[i], times[k])
            for lane, p in enumerate(config.protocols):
                readings[p][k, i] = logical_reading(logical[lane][i], hw)
                rates[p][k, i] = logical[lane][i][1]

    k = 0
    while heap[0][0] <= config.duration:
        t = heap[0][0]
        while k < n_samples and times[k] <= t:
            take_sample(k)
            k += 1
        sent = []
        while heap[0][0] == t:
            who = heapq.heappop(heap)[1]
            hw = hardware(who, t)
            if nodes[who] == topo.reference:  # it advertises its hardware clock
                seqs[who] += 1
                payload = [hw] * len(config.protocols)
            else:
                try:
                    payload = [logical_reading(lane[who], hw) for lane in logical]
                except ContractViolation as err:
                    raise ContractViolation(f"node {nodes[who]} at t={t:.9g}: {err}") from err
            for v in neighbors[who]:
                noise = delay_rng.normal(0.0, config.delay_std) * f0
                if config.drop_probability > 0 and drop_rng.random() < config.drop_probability:
                    counts["dropped"] += 1
                else:
                    sent.append((v, seqs[who], payload, noise))
            targets[who] += round_ticks
            heapq.heappush(heap, (reference_time_of_tick(drifts[who], f0, phases[who],
                                                         targets[who]), who))
        for v, seq, payload, noise in sent:
            if seq <= seqs[v]:
                counts["stale"] += 1
                continue
            counts["accepted"] += 1
            seqs[v] = seq
            hw = hardware(v, t)
            for lane, p in enumerate(config.protocols):
                try:
                    error, gain, clock = reference_update(
                        logical[lane][v], gains[lane][v], errors[lane][v], payload[lane] + noise,
                        hw, gain_max, adaptive)
                except DrivenRate as err:
                    text = driven_rate_text(err, p, config)
                    raise ContractViolation(f"node {nodes[v]} at t={t:.9g}: {text}") from err
                except ContractViolation as err:
                    raise ContractViolation(f"node {nodes[v]} at t={t:.9g}: {err}") from err
                logical[lane][v], gains[lane][v], errors[lane][v] = clock, gain, error
                events[p].append(SyncEvent(t, nodes[v], seq, error, gain, clock[1]))
    for k in range(k, n_samples):
        take_sample(k)
    return {"times": np.array(times), "node_ids": tuple(nodes), "readings": readings,
            "rate_multipliers": rates, "hw_rates": hw_rates, "events": events,
            "deliveries": counts}
